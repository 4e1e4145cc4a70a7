import copy
import functools
import pickle
import random
import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from chainsim.core import (
    ADDRESS,
    INT,
    MAX_MUTEZ,
    NAT,
    UNIT,
    UNIT_VALUE,
    AddressV,
    AmountError,
    AtomicBundle,
    BoolV,
    CallContext,
    Contract,
    ContextBundle,
    CreateContract,
    EndInteractions,
    Environment,
    IntV,
    ListV,
    MutezV,
    NatV,
    PairV,
    Restricted,
    StringV,
    Transfer,
    amount_add,
    check_address,
    check_amount,
    list_t,
    make_param,
    nest_values,
    pair_t,
    render_op,
    render_op_brief,
    render_value,
    split_param,
    value_type,
    value_typecheck,
    walk_ops,
)
from chainsim import core, registry
from chainsim.features import FeatureSet
from chainsim.scenario import (
    AccountDecl,
    ContractDecl,
    ExpectBalance,
    ExpectStorage,
    Scenario,
    build_environment,
    parse_scenario,
    print_scenario,
)
from chainsim.scheduler import SignedTransaction


def _fails_fast(test):
    """Run a test whose calls go deeper than the interpreter's recursion
    limit allows frames, and fail it at once, without a traceback, if one of
    them recurses. Reporting a traceback thousands of frames deep, each frame
    holding deep records, would keep pytest busy for minutes, so a regression
    would look like a hang."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        try:
            return test(*args, **kwargs)
        except RecursionError as err:
            message = f"{test.__name__} recursed: RecursionError: {err}"
        # Outside the handler, so the failure does not chain the traceback.
        pytest.fail(message, pytrace=False)

    return run


class TestTypecheck:
    def test_nat_matches_nat(self):
        assert value_typecheck(NatV(9), NAT) is True

    def test_pair_recurses(self):
        v = PairV(NatV(9), AddressV("bad"))
        assert value_typecheck(v, pair_t(NAT, ADDRESS)) is True

    def test_negative_excluded_from_nat(self):
        assert value_typecheck(IntV(-1), NAT) is False

    def test_nat_only_matches_nat(self):
        assert value_typecheck(NatV(1), INT) is False
        assert value_typecheck(IntV(1), NAT) is False

    def test_list_elements_checked(self):
        assert value_typecheck(ListV((NatV(1), NatV(2))), list_t(NAT))
        assert not value_typecheck(ListV((NatV(1),)), list_t(ADDRESS))
        assert value_typecheck(ListV(()), list_t(ADDRESS))


_values = st.deferred(
    lambda: st.one_of(
        st.just(UNIT_VALUE),
        st.integers(min_value=0, max_value=10**9).map(NatV),
        st.integers(min_value=-(10**9), max_value=10**9).map(IntV),
        st.booleans().map(BoolV),
        st.text(max_size=12).map(StringV),
        st.integers(min_value=0, max_value=MAX_MUTEZ).map(MutezV),
        st.text(
            alphabet="abcdefgh_", min_size=1, max_size=6
        ).map(AddressV),
        st.tuples(_values, _values).map(lambda lr: PairV(*lr)),
        st.lists(st.integers(min_value=0, max_value=99).map(NatV), max_size=4).map(
            lambda xs: ListV(tuple(xs))
        ),
    )
)


@given(_values)
def test_every_value_inhabits_its_inferred_type(v):
    assert value_typecheck(v, value_type(v))


@given(st.text(max_size=12), st.lists(_values, max_size=3))
def test_make_param_is_the_name_paired_with_the_nested_arguments(name, args):
    param = make_param(name, *args)
    nested = PairV(StringV(name), nest_values(args))
    assert param == nested
    assert hash(param) == hash(nested)
    assert render_value(param) == render_value(nested)


@pytest.mark.parametrize("args", [(5,), (NatV(1), 5)], ids=["one", "two"])
def test_make_param_refuses_an_argument_that_is_not_a_value(args):
    with pytest.raises(TypeError, match="not a value: 5"):
        make_param("f", *args)


def test_value_constructors_enforce_invariants():
    with pytest.raises(ValueError):
        NatV(-1)
    with pytest.raises(ValueError):
        AddressV("has space")
    with pytest.raises(ValueError):
        AddressV("")
    with pytest.raises(AmountError):
        MutezV(MAX_MUTEZ + 1)
    with pytest.raises(ValueError):
        ListV((NatV(1), IntV(1)))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: IntV(True), ValueError),
        (lambda: BoolV(1), ValueError),
        (lambda: StringV(1), ValueError),
        (lambda: PairV(1, UNIT_VALUE), TypeError),
        (lambda: ListV([UNIT_VALUE, 1]), TypeError),
        (lambda: value_type(1), TypeError),
    ],
    ids=[
        "int_of_bool", "bool_of_int", "string_of_int", "pair_of_int", "list_of_int",
        "type_of_int",
    ],
)
def test_value_constructors_refuse_a_wrong_payload(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize(
    "items",
    [
        (NatV(1), NatV(2), IntV(1)),
        (PairV(NatV(1), NatV(2)), PairV(NatV(1), IntV(2))),
        (ListV((NatV(1),)), ListV((IntV(1),))),
        (ListV(()), ListV((NatV(1),))),
    ],
)
def test_list_items_of_one_class_may_differ_in_type(items):
    with pytest.raises(ValueError):
        ListV(items)
    assert ListV(items[:1] * 3).items == items[:1] * 3


_IDENTIFIER_START = frozenset(string.ascii_letters + "_")
_IDENTIFIER_REST = _IDENTIFIER_START | frozenset(string.digits)


@given(st.text(st.sampled_from("aZ_09-.@ \t\n\xe9\xb2\u0660"), max_size=6) | st.text())
def test_address_is_an_identifier(token):
    """An address is an ASCII letter or `_`, then letters, digits and `_`;
    every address accepted prints in scenario text that parses back."""
    valid = bool(token) and token[0] in _IDENTIFIER_START and set(token) <= _IDENTIFIER_REST
    if not valid:
        for build in (check_address, AddressV, lambda t: Transfer(t, 0, UNIT_VALUE)):
            with pytest.raises(ValueError):
                build(token)
        return
    assert check_address(token) is token
    call = make_param("invoke", AddressV(token), NatV(1))
    scenario = Scenario(
        "addresses",
        (AccountDecl(token, 5), ContractDecl(token + "_fwd", "forwarder", UNIT_VALUE, NatV(0), 0)),
        (SignedTransaction(token, (Transfer(token + "_fwd", 1, call),)),),
        (ExpectBalance(token, "=", 5), ExpectStorage(token + "_fwd", NatV(0))),
    )
    assert parse_scenario(print_scenario(scenario)) == scenario


class _Text(str):
    """A `str` subclass, which an address may be, as `re` matches it."""


@given(
    st.one_of(
        st.text(),
        st.text(string.printable),
        st.text(st.sampled_from("aZ_09\u017f\u212a\xe9\u0660\uff21"), max_size=4),
        st.sampled_from(["", "_", "0", "0a", "a0", "if", "None", "class", "_1", "a-b"]),
        st.builds(_Text, st.text(st.sampled_from("aZ_09\u017f "), max_size=4)),
    )
)
def test_address_check_is_the_identifier_syntax(token):
    """`check_address` accepts exactly the full matches of `IDENTIFIER`, the
    syntax the scanner reads names with, for any text: non-ASCII letters and
    digits (which `str.isidentifier` alone would take), keywords, empty text,
    leading digits and `str` subclasses."""
    if re.fullmatch(core.IDENTIFIER, token):
        assert check_address(token) is token
    else:
        with pytest.raises(ValueError, match="^invalid address token"):
            check_address(token)


def test_address_must_be_a_str():
    for bad in (None, 1, b"a", ["a"]):
        with pytest.raises(ValueError):
            check_address(bad)


class TestAmounts:
    def test_checked_bounds(self):
        assert amount_add(2, 3) == 5
        assert check_amount(5 - 5) == 0
        with pytest.raises(AmountError):
            check_amount(3 - 5)
        with pytest.raises(AmountError):
            amount_add(MAX_MUTEZ, 1)

    @given(
        st.integers(min_value=0, max_value=MAX_MUTEZ),
        st.integers(min_value=0, max_value=MAX_MUTEZ),
    )
    def test_add_then_sub_restores(self, a, b):
        try:
            total = amount_add(a, b)
        except AmountError:
            assert a + b > MAX_MUTEZ
            return
        assert check_amount(total - b) == a


class TestEnvironment:
    def test_update_then_lookup(self):
        env = Environment()
        acct = registry.implicit_account(7)
        env2 = env.updated({"a": acct})
        assert env2.get("a") is acct

    def test_frame_law(self):
        env = Environment().updated({"a": registry.implicit_account(1)})
        env2 = env.updated({"b": registry.implicit_account(2)})
        assert env2.get("a") is env.get("a")

    def test_persistence_law(self):
        env = Environment().updated({"a": registry.implicit_account(1)})
        snapshot = env.get("a")
        env.updated({"a": registry.implicit_account(99)})
        assert env.get("a") is snapshot
        assert env.get("a").balance == 1

    def test_total_balance(self):
        env = Environment()
        env = env.updated({"vault": registry.implicit_account(15)})
        env = env.updated({"bad": registry.implicit_account(0)})
        env = env.updated({"alice": registry.implicit_account(100)})
        assert env.total_balance() == 115
        assert Environment().total_balance() == 0

    def test_total_balance_overflow(self):
        env = Environment()
        env = env.updated({"a": registry.implicit_account(MAX_MUTEZ)})
        env = env.updated({"b": registry.implicit_account(1)})
        with pytest.raises(AmountError):
            env.total_balance()

    def test_absent_vs_present(self):
        env = Environment().updated({"a": registry.implicit_account(0)})
        assert env.get("missing") is None
        assert "missing" not in env
        assert "a" in env

    @pytest.mark.parametrize("position", range(4))
    def test_invalid_new_address_is_rejected(self, position):
        env = Environment({"a": registry.implicit_account(0)}).updated(
            {"b": registry.implicit_account(1)}
        )
        good = ["a", "b", "new"]
        for bad in ("a b", "", 5):
            addrs = good[:position] + [bad] + good[position:]
            writes = {addr: registry.implicit_account(9) for addr in addrs}
            with pytest.raises(ValueError):
                Environment().updated(writes)
            with pytest.raises(ValueError):
                env.updated(writes)
        assert env.get("a").balance == 0 and "new" not in env

    def test_one_update_writes_every_address(self):
        env = Environment({f"a{i}": registry.implicit_account(i) for i in range(20)})
        one, two = registry.implicit_account(1), registry.implicit_account(2)
        fused = env.updated({"a0": one, "new": two})
        assert fused == env.updated({"a0": one}).updated({"new": two})
        assert fused.get("a0") is one and fused.get("new") is two
        assert env.get("a0").balance == 0 and "new" not in env

    def test_the_old_flat_pair_form_is_refused(self):
        env = Environment({"a": registry.implicit_account(0)})
        one = registry.implicit_account(1)
        with pytest.raises(TypeError):
            env.updated("a", one)
        with pytest.raises(TypeError):
            env.updated("a", one, "b", one)
        assert env.get("a").balance == 0

    @pytest.mark.parametrize("size", [0, 20])
    def test_the_callers_mapping_is_copied(self, size):
        # With no earlier writes the write stays in `top`. After sixteen it
        # promotes `top` into `middle`, which twenty accounts keep and an
        # empty base folds in at once.
        for earlier in (0, core._TOP_MAX):
            env = Environment({f"a{i}": registry.implicit_account(i) for i in range(size)})
            env = env.updated({f"w{i}": registry.implicit_account(i) for i in range(earlier)})
            one, two = registry.implicit_account(1), registry.implicit_account(2)
            writes = {"a0": one}
            env2 = env.updated(writes)
            writes["a0"] = two
            writes["other"] = two
            assert env2.get("a0") is one and "other" not in env2
            assert env2.accounts == {**env.accounts, "a0": one}

    def test_present_address_is_not_checked_again(self, monkeypatch):
        env = Environment({f"a{i}": registry.implicit_account(i) for i in range(100)})
        env = env.updated({"new": registry.implicit_account(0)})
        env = env.updated({f"m{i}": registry.implicit_account(0) for i in range(16)})
        env = env.updated({"top": registry.implicit_account(0)})
        # "a0" sits in the shared base, "new" in `middle` and "top" in `top`.
        assert "new" in env._middle and "top" in env._top

        def refuse(token):
            raise AssertionError(f"{token!r} checked again")

        monkeypatch.setattr(core, "check_address", refuse)
        for addr in ("a0", "new", "top", "a0", "new", "top"):
            env = env.updated({addr: registry.implicit_account(7)})
        assert env.get("a0").balance == env.get("new").balance == env.get("top").balance == 7
        eight, nine = registry.implicit_account(8), registry.implicit_account(9)
        env = env.updated({"new": eight, "a0": nine})
        assert (env.get("new").balance, env.get("a0").balance) == (8, 9)


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 100)), max_size=8))
def test_updates_never_mutate_snapshots(script):
    import copy

    env = Environment()
    history = [(copy.deepcopy(env), env)]
    for addr, balance in script:
        env = env.updated({addr: registry.implicit_account(balance)})
        history.append((copy.deepcopy(env), env))
    for frozen, live in history:
        assert frozen == live


_MODEL_ADDRS = [f"a{i}" for i in range(200)]

# Write maps over up to 300 addresses, half of them absent from the starting
# environment, so updates both fold into the base and check new addresses.
_WRITE_MAPS = st.dictionaries(
    st.sampled_from([f"a{i}" for i in range(300)]), st.integers(0, 1000), max_size=300
)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 150), _WRITE_MAPS, _WRITE_MAPS)
def test_one_update_equals_the_writes_in_order(start, w1, w2):
    """Two updates, one update of the merged map, and one update per write
    give the same environment, and each holds the last contract written."""
    w1 = {addr: registry.implicit_account(n) for addr, n in w1.items()}
    w2 = {addr: registry.implicit_account(n) for addr, n in w2.items()}
    env = Environment({a: registry.implicit_account(0) for a in _MODEL_ADDRS[:start]})
    merged = {**w1, **w2}
    one_by_one = env
    for addr, contract in [*w1.items(), *w2.items()]:
        one_by_one = one_by_one.updated({addr: contract})
    twice = env.updated(w1).updated(w2)
    once = env.updated(merged)
    assert twice == once == one_by_one
    for addr in _MODEL_ADDRS + list(merged):
        expected = merged.get(addr, env.get(addr))
        assert twice.get(addr) is once.get(addr) is one_by_one.get(addr) is expected


def _crossed(old, new):
    """Which thresholds one update crossed, read from the private layers:
    whether `top` was promoted into a new `middle`, and whether `middle` was
    folded into a new `base`."""
    return new._middle is not old._middle, new._base is not old._base


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 120),
    st.permutations(_MODEL_ADDRS),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 1000)), min_size=100, max_size=300
    ),
)
def test_layered_environment_matches_a_dict_model(start, order, script):
    """Updates that cross many promotions and folds, some applied to an
    older snapshot (a branch, as revert and fuzz take), read exactly as a
    plain dict."""
    model = {a: registry.implicit_account(k) for k, a in enumerate(_MODEL_ADDRS[:start])}
    history = [(Environment(dict(model)), model)]
    crossings = []
    for step, (branch, balance) in enumerate(script):
        # Step k writes the k-th address of a shuffled order. The first 60
        # steps extend the newest snapshot, so their distinct writes promote
        # `top` at least every 17 steps and, over at most 120 accounts, fold
        # `middle` into the base by the 60th; later every fourth step
        # branches, and every third writes a second address in the same
        # update.
        addr = order[step % len(order)]
        branches = step >= 60 and not branch % 4
        env, model = history[branch % len(history) if branches else -1]
        model = {**model, addr: registry.implicit_account(balance)}
        if branch % 3:
            new = env.updated({addr: model[addr]})
        else:
            other = _MODEL_ADDRS[branch % len(_MODEL_ADDRS)]
            model = {**model, other: registry.implicit_account(branch)}
            new = env.updated({addr: model[addr], other: model[other]})
        crossings.append(_crossed(env, new))
        assert len(new._top) <= core._TOP_MAX
        history.append((new, model))
    promotions, folds = map(sum, zip(*crossings))
    assert promotions >= 2 and folds >= 1
    for env, model in history:
        for addr in _MODEL_ADDRS + ["absent"]:
            assert env.get(addr) is model.get(addr)
            assert (addr in env) == (addr in model)
        assert env == Environment(dict(model))
        assert env.accounts == model
        assert env.total_balance() == sum(c.balance for c in model.values())
        assert Environment(dict(env.accounts)) == env


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 30),
    st.permutations(_MODEL_ADDRS[:40]),
    st.lists(
        st.tuples(
            st.sampled_from(["update", "keep", "branch", "read"]),
            st.integers(0, 10**6),
            st.sampled_from(_MODEL_ADDRS[:40]),
        ),
        max_size=120,
    ),
)
def test_changed_since_matches_a_brute_force_diff(start, prelude, script):
    """Across updates (some promoting top into middle, some folding middle
    into base), branches from older snapshots, rewrites of an address with
    its own contract, and `.accounts` reads that fold in place,
    `changed_since` is the set of addresses whose contract object differs."""
    history = [Environment({a: registry.implicit_account(1) for a in _MODEL_ADDRS[:start]})]
    env = history[0]
    crossings = []
    # Forty distinct writes open every script: at most 30 accounts fold once
    # `middle` holds 22, so they promote `top` twice and fold once.
    for k, addr in enumerate(prelude):
        new = env.updated({addr: registry.implicit_account(k % 7)})
        crossings.append(_crossed(env, new))
        env = new
        history.append(env)
    promotions, folds = map(sum, zip(*crossings))
    assert promotions >= 2 and folds >= 1
    for action, n, addr in script:
        if action == "update":
            env = env.updated({addr: registry.implicit_account(n % 7)})
        elif action == "keep" and addr in env:
            env = env.updated({addr: env.get(addr)})
        elif action == "branch":
            env = history[n % len(history)]
        elif action == "read":
            history[n % len(history)].accounts
        history.append(env)
    pairs = [(history[i], history[j]) for i in range(len(history)) for j in (0, i // 2, -1)]
    # Every answer first: the brute force reads `.accounts`, which folds.
    answers = [(later, earlier, later.changed_since(earlier)) for later, earlier in pairs]
    for later, earlier, changed in answers:
        names = later.accounts.keys() | earlier.accounts.keys()
        assert changed == {a for a in names if later.get(a) is not earlier.get(a)}


def test_every_layer_over_ten_thousand_accounts_reads_as_a_dict():
    """A 10,000-account ledger written ten addresses per update promotes
    `top` into `middle` every second update and folds `middle` into the base
    once it passes 400 entries. A branch from an older snapshot and an
    `accounts` read (which folds the newest snapshot in place) come before
    the fold. Every snapshot reads as its dict model, and `changed_since`
    matches a brute-force diff."""
    rng = random.Random(29)
    accounts = {f"u{i}": registry.implicit_account(i % 97) for i in range(10_000)}
    history = [(Environment(accounts), dict(accounts))]
    crossings = []
    for step in range(75):
        env, model = history[10 if step == 20 else -1]
        if step == 30:
            assert env.accounts == model
        # About one address in six is new, and is checked as it enters.
        writes = {
            f"u{rng.randrange(12_000)}": registry.implicit_account(rng.randrange(100))
            for _ in range(10)
        }
        new = env.updated(writes)
        crossings.append(_crossed(env, new))
        assert len(new._top) <= core._TOP_MAX
        history.append((new, {**model, **writes}))
    promotions, folds = map(sum, zip(*crossings))
    assert promotions >= 2 and folds >= 1
    written = {addr for _, model in history for addr in model.keys() - accounts.keys()}
    probes = sorted(written) + [f"u{i}" for i in range(0, 12_000, 37)] + ["absent"]
    # Every answer before any brute force, which reads `.accounts` and folds.
    answers = [
        (i, j, history[i][0].changed_since(history[j][0]))
        for i in range(len(history))
        for j in {0, i // 2, max(i - 1, 0)}
    ]
    for env, model in history:
        for addr in probes:
            assert env.get(addr) is model.get(addr)
            assert (addr in env) == (addr in model)
    for i, j, changed in answers:
        later, earlier = history[i][1], history[j][1]
        names = later.keys() | earlier.keys()
        assert changed == {a for a in names if later.get(a) is not earlier.get(a)}
    for env, model in history:
        assert env == Environment(dict(model))
        assert env.accounts == model
        assert env.total_balance() == sum(c.balance for c in model.values())


class TestContract:
    def test_storage_must_typecheck(self):
        # The storage type lives with the code, so installing a contract is
        # where a storage of another type is refused.
        for key, storage in (("forwarder", UNIT_VALUE), ("receiver", NatV(1))):
            with pytest.raises(
                registry.RegistryError,
                match=rf"^storage {render_value(storage)} does not fit contract '{key}'$",
            ):
                registry.instantiate(key, UNIT_VALUE, storage, 0)

    def test_balance_checked(self):
        with pytest.raises(AmountError):
            registry.implicit_account(-1)

    def test_moved_changes_only_the_balance(self):
        contract = registry.instantiate("forwarder", UNIT_VALUE, NatV(3), 3)
        moved = contract.moved(MAX_MUTEZ)
        assert type(moved) is Contract
        assert moved.balance == MAX_MUTEZ
        expected = Contract(NatV(3), MAX_MUTEZ, "forwarder", UNIT_VALUE)
        assert moved == expected and hash(moved) == hash(expected)
        assert moved.storage is contract.storage
        assert contract.balance == 3

    def test_with_storage_changes_only_the_storage(self):
        contract = registry.instantiate("forwarder", UNIT_VALUE, NatV(3), 3, contextual=True)
        stored = contract.with_storage(NatV(9))
        assert type(stored) is Contract
        expected = Contract(NatV(9), 3, "forwarder", UNIT_VALUE, contextual=True)
        assert stored == expected and hash(stored) == hash(expected)
        assert contract.storage == NatV(3)

    def test_fields_cannot_be_assigned(self):
        contract = registry.instantiate("forwarder", UNIT_VALUE, NatV(3), 3)
        for name in contract._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(contract, name, 5)
        assert contract == registry.instantiate("forwarder", UNIT_VALUE, NatV(3), 3)

    def test_construction_checks_every_field_it_can(self):
        assert Contract._fields == ("storage", "balance", "code_key", "config", "contextual")
        contract = Contract(NatV(3), 3, "forwarder", UNIT_VALUE, contextual=True)
        assert contract.contextual is True
        assert contract != Contract(NatV(3), 3, "forwarder", UNIT_VALUE)
        for bad in (-1, MAX_MUTEZ + 1, True):
            with pytest.raises(AmountError):
                Contract(NatV(3), bad, "forwarder", UNIT_VALUE)
        with pytest.raises(TypeError, match=r"^not a value: 3$"):
            Contract(3, 3, "forwarder", UNIT_VALUE)
        with pytest.raises(TypeError, match=r"^not a value: None$"):
            Contract(NatV(3), 3, "forwarder", None)
        with pytest.raises(TypeError):
            Contract(NatV(3), 3, "forwarder", UNIT_VALUE, owner="bad")

    def test_a_contract_is_a_record(self):
        contract = registry.instantiate("forwarder", UNIT_VALUE, NatV(3), 3)
        assert contract != tuple.__getitem__(contract, slice(None))
        with pytest.raises(TypeError):
            iter(contract)

    def test_repr_names_every_field(self):
        contract = registry.instantiate("forwarder", UNIT_VALUE, NatV(3), 3)
        assert repr(contract) == (
            "Contract(storage=NatV(n=3), balance=3, code_key='forwarder', "
            "config=UnitV(), contextual=False)"
        )


class TestOperations:
    def test_restricted_rejects_both_sets(self):
        with pytest.raises(ValueError):
            Restricted((), allow=frozenset({"a"}), block=frozenset({"b"}))
        Restricted((), allow=frozenset({"a"}))
        Restricted((), block=frozenset({"b"}))
        Restricted((), allow=frozenset(), block=frozenset())

    def test_restricted_has_one_encoding_per_meaning(self):
        # neither set given: an empty block list
        assert Restricted(()) == Restricted((), block=frozenset())
        assert Restricted(()).allow is None
        assert Restricted(()).block == frozenset()
        # an allow list drops an empty or absent block set
        for allow in (frozenset(), frozenset({"a"})):
            wrapper = Restricted((), allow=allow, block=frozenset())
            assert wrapper == Restricted((), allow=allow)
            assert wrapper.allow == allow and wrapper.block is None
        # an allow list, even empty, never silently drops a non-empty block set
        with pytest.raises(ValueError):
            Restricted((), allow=frozenset(), block=frozenset({"b"}))
        with pytest.raises(ValueError):
            Restricted((), allow=[], block=["b"])

    @pytest.mark.parametrize("entry", ["a b", "", 7, None])
    def test_restricted_entries_must_be_addresses(self, entry):
        for kind in ("allow", "block"):
            with pytest.raises(ValueError):
                Restricted((), **{kind: frozenset({"ok", entry})})

    def test_transfer_validates_fields(self):
        with pytest.raises(ValueError):
            Transfer("bad addr", 1, UNIT_VALUE)
        with pytest.raises(AmountError):
            Transfer("ok", -1, UNIT_VALUE)
        for bad in (5, "default", None, (StringV("default"), UNIT_VALUE)):
            with pytest.raises(ValueError, match="not a value"):
                Transfer("ok", 1, bad)
        for value in (UNIT_VALUE, NatV(5), make_param("f", ListV(()))):
            assert Transfer("ok", 1, value).param == value

    def test_transfer_checks_unusual_arguments_as_before(self):
        # Only an exact ASCII identifier and an exact in-range int skip
        # `check_address` and `check_amount`; the rest get their answers.
        sub = Transfer(_Text("ok"), 1, UNIT_VALUE)
        assert type(sub.dest) is _Text and sub.dest == "ok"
        with pytest.raises(ValueError, match=r"^invalid address token: 'a-b'$"):
            Transfer(_Text("a-b"), 1, UNIT_VALUE)
        with pytest.raises(ValueError, match=r"^invalid address token: 'é'$"):
            Transfer("é", 1, UNIT_VALUE)
        for bad in (True, 2**64):
            with pytest.raises(AmountError, match=r"^amount out of range"):
                Transfer("ok", bad, UNIT_VALUE)
        assert Transfer("ok", MAX_MUTEZ, UNIT_VALUE).amount == MAX_MUTEZ

    def test_create_validates_fields(self):
        with pytest.raises(ValueError):
            CreateContract("bad addr", 1, UNIT_VALUE, "receiver", UNIT_VALUE)
        with pytest.raises(AmountError):
            CreateContract("ok", -1, UNIT_VALUE, "receiver", UNIT_VALUE)
        for bad in (5, "unit", None, (UNIT_VALUE,)):
            with pytest.raises(ValueError, match="^created storage is not a value"):
                CreateContract("ok", 1, bad, "receiver", UNIT_VALUE)
            with pytest.raises(ValueError, match="^created config is not a value"):
                CreateContract("ok", 1, UNIT_VALUE, "receiver", bad)
        created = CreateContract("ok", 1, NatV(5), "receiver", UNIT_VALUE)
        assert (created.storage, created.config) == (NatV(5), UNIT_VALUE)

    @pytest.mark.parametrize("kind", ["allow", "block"])
    def test_restricted_refuses_a_bare_string(self, kind):
        # "vault" is not five one-letter addresses.
        with pytest.raises(ValueError):
            Restricted((), **{kind: "vault"})
        assert getattr(Restricted((), **{kind: ["vault"]}), kind) == frozenset({"vault"})


class TestRendering:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (UNIT_VALUE, "unit"),
            (NatV(9), "9"),
            (IntV(-5), "-5"),
            (BoolV(True), "true"),
            (StringV('say "hi"\n'), '"say \\"hi\\"\\n"'),
            (MutezV(3), "mutez 3"),
            (AddressV("vault"), "@vault"),
            (PairV(NatV(9), AddressV("bad")), "(pair 9 @bad)"),
            (ListV((NatV(1), NatV(2))), "[1, 2]"),
        ],
    )
    def test_literals(self, value, expected):
        assert render_value(value) == expected

    @pytest.mark.parametrize("text", ["\\", '"', "\n", "\t", "é", "", "name", 'a\\b"c\nd\te'])
    def test_a_string_renders_as_a_literal_that_parses_back(self, text):
        literal = render_value(StringV(text))
        s = parse_scenario(
            f'scenario "x"\ncontract @v code receiver config {literal} storage unit balance 0'
        )
        assert s.decls[0].config == StringV(text)

    # One value of each leaf class; the string needs every escape.
    LEAVES = (
        UNIT_VALUE, NatV(9), IntV(-5), BoolV(False), StringV('a\\b"c\nd\te'),
        MutezV(3), AddressV("vault"),
    )

    @pytest.mark.parametrize("left", LEAVES, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize("right", LEAVES, ids=lambda v: type(v).__name__)
    def test_a_pair_of_leaves_renders_as_the_general_path_does(self, left, right):
        # Inside a list, the pair is rendered from the explicit stack.
        pair = PairV(left, right)
        assert f"[{render_value(pair)}]" == render_value(ListV((pair,)))
        assert render_value(pair) == f"(pair {render_value(left)} {render_value(right)})"

    @_fails_fast
    def test_a_deep_pair_chain_renders(self):
        chain = nest_values([NatV(k) for k in range(5000)])
        expected = "".join(f"(pair {k} " for k in range(4999)) + "4999" + ")" * 4999
        assert render_value(chain) == expected

    def test_brief_call_keeps_trailing_unit_argument(self):
        one = Transfer("x", 0, make_param("f", NatV(1)))
        with_unit = Transfer("x", 0, make_param("f", NatV(1), UNIT_VALUE))
        assert render_op_brief(one) == "x.f(1)"
        assert render_op_brief(with_unit) == "x.f(1, unit)"
        assert render_op_brief(Transfer("x", 0, make_param("default"))) == "x.default()"

    def test_brief_transfer_of_a_parameter_that_is_no_call(self):
        # A body may emit a transfer whose parameter names no entrypoint;
        # --step prints it before the callee refuses it.
        assert render_op_brief(Transfer("x", 0, NatV(1))) == "x!1"
        assert render_op_brief(Transfer("x", 0, PairV(NatV(1), UNIT_VALUE))) == "x!(pair 1 unit)"


class TestWalkOps:
    T = Transfer("x", 0, make_param("default"))
    EMPTY = ContextBundle(())
    NESTED = AtomicBundle((AtomicBundle((T,)), EMPTY, T, EndInteractions()))

    def test_pre_order_with_depths(self):
        inner = self.NESTED.ops[0]
        assert list(walk_ops([self.NESTED, self.T])) == [
            (0, self.NESTED), (1, inner), (2, self.T), (1, self.EMPTY), (1, self.T),
            (1, EndInteractions()), (0, self.T),
        ]

    def test_renderers_close_wrappers_as_depth_drops(self):
        assert render_op_brief(self.NESTED) == (
            "atomic{atomic{x.default()}, context{}, x.default(), end_interactions}"
        )
        assert render_op(self.NESTED, 1).splitlines() == [
            "  atomic {", "    atomic {", "      transfer 0 to @x", "    }",
            "    context {", "    }", "    transfer 0 to @x", "    end_interactions", "  }",
        ]

    @_fails_fast
    def test_nesting_past_the_recursion_limit(self):
        op = Transfer("x", 1, make_param("default"))
        for _ in range(1500):
            op = Restricted((op,), allow=frozenset({"x"}))
        lines = render_op(op).splitlines()
        assert len(lines) == 3001
        assert lines[1499:1502] == [
            " " * 2998 + "allow [@x] {", " " * 3000 + "transfer 1 to @x", " " * 2998 + "}"
        ]
        assert render_op_brief(op) == "allow[@x]{" * 1500 + "x.default()" + "}" * 1500
        assert len(list(walk_ops([op]))) == 1501


def test_split_param_inverts_make_param():
    from scenario_gen import random_value

    rng = random.Random(21)
    for _ in range(300):
        args = tuple(random_value(rng) for _ in range(rng.randrange(0, 4)))
        param = make_param("f", *args)
        name, split = split_param(param)
        assert name == "f" and make_param(name, *split) == param
        if args and not isinstance(args[-1], PairV) and args != (UNIT_VALUE,):
            assert split == args
    assert split_param(NatV(1)) is None


@_fails_fast
def test_make_param_nesting():
    assert make_param("default") == PairV(StringV("default"), UNIT_VALUE)
    assert make_param("withdraw", NatV(5)) == PairV(StringV("withdraw"), NatV(5))
    assert make_param("rob", NatV(3), NatV(5)) == PairV(
        StringV("rob"), PairV(NatV(3), NatV(5))
    )
    assert nest_values([NatV(1), NatV(2), NatV(3)]) == PairV(
        NatV(1), PairV(NatV(2), NatV(3))
    )
    # more arguments than the recursion limit allows frames
    chain = nest_values([NatV(k) for k in range(5000)])
    for k in range(4999):
        assert chain.left == NatV(k)
        chain = chain.right
    assert chain == NatV(4999)


class TestDeepValues:
    """Values nested far past the recursion limit hash, compare, deep-copy,
    type and typecheck: each carries its tag and hash, and `==` and the
    structural typecheck walk from an explicit stack."""

    DEPTH = 5000

    def chain(self, last):
        return nest_values([NatV(1)] * (self.DEPTH - 1) + [last])

    @_fails_fast
    def test_hash_and_equality(self):
        a, same, other = self.chain(NatV(1)), self.chain(NatV(1)), self.chain(NatV(2))
        assert a is not same
        assert hash(a) == hash(same)
        assert a == same and not a != same
        assert a != other and not a == other
        assert Transfer("b", 1, a) == Transfer("b", 1, same)
        assert hash(Transfer("b", 1, a)) == hash(Transfer("b", 1, same))
        assert Transfer("b", 1, a) != Transfer("b", 1, other)

    @_fails_fast
    def test_deepcopy_is_the_value_itself(self):
        a = self.chain(NatV(1))
        assert copy.deepcopy(a) is a
        op = Transfer("b", 1, a)
        assert copy.deepcopy(op) is op

    @_fails_fast
    def test_type_and_typecheck(self):
        nats, ints = self.chain(NatV(1)), self.chain(IntV(-1))
        assert value_type(nats) is value_type(self.chain(NatV(2)))
        assert value_type(nats) is not value_type(ints)
        assert value_typecheck(nats, value_type(nats))
        assert not value_typecheck(nats, value_type(ints))
        assert not value_typecheck(ints, value_type(nats))
        # An empty list at the bottom takes the structural path all the way.
        empty, names = self.chain(ListV(())), self.chain(ListV((AddressV("x"),)))
        assert value_typecheck(empty, value_type(names))
        assert not value_typecheck(names, value_type(empty))

    @_fails_fast
    def test_scenario_round_trip(self):
        args = ", ".join(["1"] * self.DEPTH)
        text = (
            'scenario "deep"\naccount @a balance 5\naccount @b balance 0\n'
            f"transaction from @a {{ transfer 1 to @b call f({args}) }}\n"
        )
        scenario = parse_scenario(text)
        assert parse_scenario(print_scenario(scenario)) == scenario
        assert copy.deepcopy(scenario) == scenario
        transfer = scenario.transactions[0].ops[0]
        assert hash(transfer) == hash(parse_scenario(text).transactions[0].ops[0])


_RECORDS = (
    UNIT_VALUE,
    NatV(1),
    IntV(1),
    BoolV(True),
    StringV("1"),
    MutezV(1),
    AddressV("a"),
    PairV(NatV(1), NatV(1)),
    ListV((NatV(1),)),
    Transfer("a", 1, NatV(1)),
    CreateContract("a", 1, NatV(1), "receiver", UNIT_VALUE),
    AtomicBundle((Transfer("a", 1, NatV(1)),)),
    ContextBundle((Transfer("a", 1, NatV(1)),)),
    Restricted((Transfer("a", 1, NatV(1)),)),
    EndInteractions(),
)


def test_records_equal_only_records_of_their_class():
    assert NatV(1) != IntV(1)
    t = Transfer("a", 1, NatV(1))
    assert AtomicBundle((t,)) != ContextBundle((t,))
    for a in _RECORDS:
        rebuilt = copy.copy(a)  # built anew from its fields
        assert rebuilt is not a and rebuilt == a and hash(rebuilt) == hash(a)
        # A record is a tuple underneath; it still equals no plain tuple.
        plain = a[:]
        assert a != plain and plain != a and not a == plain and not plain == a
        for b in _RECORDS:
            if b is not a:
                assert a != b and not a == b


_ONE = Transfer("a", 1, NatV(1))
_ONE_TEXT = "Transfer(dest='a', amount=1, param=NatV(n=1))"


@pytest.mark.parametrize(
    "record, text",
    [
        (UNIT_VALUE, "UnitV()"),
        (IntV(-3), "IntV(i=-3)"),
        (MutezV(5), "MutezV(mutez=5)"),
        (BoolV(True), "BoolV(b=True)"),
        (ListV(()), "ListV(items=())"),
        (ListV((NatV(1),)), "ListV(items=(NatV(n=1),))"),
        (ListV((NatV(1), NatV(2))), "ListV(items=(NatV(n=1), NatV(n=2)))"),
        (
            PairV(StringV("a'\"b"), AddressV("x")),
            "PairV(left=StringV(s='a\\'\"b'), right=AddressV(addr='x'))",
        ),
        (AtomicBundle(()), "AtomicBundle(ops=())"),
        (AtomicBundle((_ONE,)), f"AtomicBundle(ops=({_ONE_TEXT},))"),
        (
            ContextBundle((_ONE, EndInteractions())),
            f"ContextBundle(ops=({_ONE_TEXT}, EndInteractions()))",
        ),
        (
            Restricted((_ONE,), allow=["b"]),
            f"Restricted(ops=({_ONE_TEXT},), allow=frozenset({{'b'}}), block=None)",
        ),
        (
            CreateContract("a", 1, NatV(1), "receiver", UNIT_VALUE),
            "CreateContract(addr='a', amount=1, storage=NatV(n=1), code_key='receiver', "
            "config=UnitV())",
        ),
        (
            CallContext("a", "b", "c", 1, 2, 3, UNIT_VALUE, FeatureSet(views=True)),
            "CallContext(self_addr='a', sender='b', source='c', amount=1, self_balance=2, "
            "level=3, config=UnitV(), features=FeatureSet(views=True, pending_balance=False, "
            "restrictions=False, bundles=False, contexts=False, end_interactions=False))",
        ),
    ],
)
def test_record_repr(record, text):
    assert repr(record) == text


@_fails_fast
def test_deep_record_repr_does_not_recurse():
    op = _ONE
    for _ in range(3000):
        op = AtomicBundle((op,))
    text = repr(op)
    assert text == "AtomicBundle(ops=(" * 3000 + _ONE_TEXT + ",))" * 3000
    # The constructor's message prints what it refuses.
    with pytest.raises(ValueError, match="^transfer parameter is not a value: AtomicBundle"):
        Transfer("r", 0, op)


def _nested_op(depth, param):
    """A transfer of `param` under `depth` wrappers of each kind in turn."""
    op = Transfer("b", 1, param)
    wrappers = (
        AtomicBundle,
        lambda ops: ContextBundle((EndInteractions(), *ops)),
        lambda ops: Restricted(ops, block={"x"}),
    )
    for k in range(depth):
        op = wrappers[k % 3]((op,))
    return op


@_fails_fast
def test_deep_operation_hash_does_not_recurse():
    a, same = _nested_op(5000, UNIT_VALUE), _nested_op(5000, UNIT_VALUE)
    assert a is not same
    assert a == same and hash(a) == hash(same)
    assert a != _nested_op(5000, NatV(1))
    shallow = _nested_op(4, UNIT_VALUE)
    assert hash(shallow) == hash(_nested_op(4, UNIT_VALUE))
    assert len({shallow, _nested_op(4, UNIT_VALUE), _nested_op(4, NatV(1))}) == 2


def test_records_are_not_iterable():
    for record in _RECORDS:
        with pytest.raises(TypeError, match="not iterable"):
            tuple(record)


def test_type_tags_are_interned():
    assert pair_t(list_t(ADDRESS), NAT) is pair_t(list_t(ADDRESS), NAT)
    assert core.TypeTag("list", [INT]) is list_t(INT)
    assert copy.deepcopy(list_t(INT)) is list_t(INT)
    assert value_type(ListV(())) is list_t(UNIT)
    with pytest.raises(AttributeError):
        NAT.kind = "int"


def test_type_tag_table_stops_growing_under_fuzz_traffic():
    """The intern table keeps every tag it makes. The types a run builds
    form a small fixed set, so once fuzzing has warmed up, further
    iterations find every tag they need already there."""
    from dataclasses import replace

    from chainsim.harness import default_universe, fuzz

    env, cfg = default_universe(7)
    fuzz(env, cfg, 300)
    before = set(core._TAGS)
    fuzz(env, replace(cfg, seed=cfg.seed + 300), 2000)
    assert set(core._TAGS) == before


def test_type_tag_repr_and_copies():
    tag = pair_t(NAT, list_t(INT))
    assert repr(tag) == (
        "TypeTag(kind='pair', args=(TypeTag(kind='nat', args=()), "
        "TypeTag(kind='list', args=(TypeTag(kind='int', args=()),))))"
    )
    for t in (UNIT, tag, list_t(tag)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t


def test_type_tag_equals_no_tuple():
    for tag, plain in ((NAT, ("nat", ())), (list_t(INT), ("list", (INT,)))):
        assert tuple.__getitem__(tag, slice(None)) == plain
        assert tag != plain and plain != tag
        assert not tag == plain and not plain == tag
        assert tag == tag and not tag != tag


@_fails_fast
def test_deep_type_tag_hashes_and_prints():
    tag = NAT
    for _ in range(5000):
        tag = pair_t(tag, NAT)
    assert hash(tag) == hash(pair_t(tag.args[0], NAT))
    text = repr(tag)
    assert text.startswith("TypeTag(kind='pair', args=(TypeTag(kind='pair', ")
    assert text.count("TypeTag(kind='nat', args=())") == 5001


def test_fanout_pay_parameter_takes_no_structural_typecheck(monkeypatch):
    """The 4,000-entry `pay` argument of the `fanout` workload, checked
    against its entrypoint on the way in, and every payout it emits, checked
    against `default`: each is an identity test on the argument's tag."""
    from chainsim.scheduler import run_transaction, SchedulerConfig, Commit

    dests = ", ".join(f"@r{k % 16}" for k in range(4000))
    receivers = "".join(f"account @r{k} balance 0\n" for k in range(16))
    scenario = parse_scenario(
        'scenario "fanout"\naccount @user balance 0\n'
        "contract @payer code payer config unit storage unit balance 8000\n"
        f"{receivers}transaction from @user {{ transfer 0 to @payer call pay([{dests}], 2) }}\n"
    )
    env = build_environment(scenario)
    walks = []
    plain = core._inhabits
    monkeypatch.setattr(core, "_inhabits", lambda v, t: walks.append(t) or plain(v, t))
    outcome, _, tree = run_transaction(env, scenario.transactions[0], SchedulerConfig(), 0)
    assert isinstance(outcome, Commit) and len(tree.nodes) == 4001
    assert walks == []
    # The counter sees the structural path when it is taken.
    assert value_typecheck(ListV(()), list_t(ADDRESS))
    assert walks == [list_t(ADDRESS)]
