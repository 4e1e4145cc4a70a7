import random

import pytest
from hypothesis import given, strategies as st

from chainsim.core import (
    ADDRESS,
    INT,
    MAX_MUTEZ,
    NAT,
    UNIT,
    UNIT_VALUE,
    AddressV,
    AmountError,
    BoolV,
    Contract,
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
    check_amount,
    list_t,
    make_param,
    nest_values,
    pair_t,
    render_op_brief,
    render_value,
    split_param,
    union_t,
    value_type,
    value_typecheck,
)
from chainsim import registry


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

    def test_union_admits_any_alternative(self):
        t = union_t(NAT, UNIT)
        assert value_typecheck(NatV(3), t)
        assert value_typecheck(UNIT_VALUE, t)
        assert not value_typecheck(IntV(3), t)


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
        env2 = env.updated("a", acct)
        assert env2.get("a") is acct

    def test_frame_law(self):
        env = Environment().updated("a", registry.implicit_account(1))
        env2 = env.updated("b", registry.implicit_account(2))
        assert env2.get("a") is env.get("a")

    def test_persistence_law(self):
        env = Environment().updated("a", registry.implicit_account(1))
        snapshot = env.get("a")
        env.updated("a", registry.implicit_account(99))
        assert env.get("a") is snapshot
        assert env.get("a").balance == 1

    def test_total_balance(self):
        env = Environment()
        env = env.updated("vault", registry.implicit_account(15))
        env = env.updated("bad", registry.implicit_account(0))
        env = env.updated("alice", registry.implicit_account(100))
        assert env.total_balance() == 115
        assert Environment().total_balance() == 0

    def test_total_balance_overflow(self):
        env = Environment()
        env = env.updated("a", registry.implicit_account(MAX_MUTEZ))
        env = env.updated("b", registry.implicit_account(1))
        with pytest.raises(AmountError):
            env.total_balance()

    def test_absent_vs_present(self):
        env = Environment().updated("a", registry.implicit_account(0))
        assert env.get("missing") is None
        assert "missing" not in env
        assert "a" in env


@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 100)), max_size=8))
def test_updates_never_mutate_snapshots(script):
    import copy

    env = Environment()
    history = [(copy.deepcopy(env), env)]
    for addr, balance in script:
        env = env.updated(addr, registry.implicit_account(balance))
        history.append((copy.deepcopy(env), env))
    for frozen, live in history:
        assert frozen == live


class TestContract:
    def test_storage_must_typecheck(self):
        with pytest.raises(ValueError):
            Contract(
                param_type=pair_t(NAT, NAT),
                storage_type=NAT,
                storage=UNIT_VALUE,
                balance=0,
                code_key="receiver",
                config=UNIT_VALUE,
            )

    def test_balance_checked(self):
        with pytest.raises(AmountError):
            registry.implicit_account(-1)


class TestOperations:
    def test_restricted_rejects_both_sets(self):
        with pytest.raises(ValueError):
            Restricted((), allow=frozenset({"a"}), block=frozenset({"b"}))
        Restricted((), allow=frozenset({"a"}))
        Restricted((), block=frozenset({"b"}))
        Restricted((), allow=frozenset(), block=frozenset())

    def test_transfer_validates_fields(self):
        with pytest.raises(ValueError):
            Transfer("bad addr", 1, UNIT_VALUE)
        with pytest.raises(AmountError):
            Transfer("ok", -1, UNIT_VALUE)


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

    def test_brief_call_keeps_trailing_unit_argument(self):
        one = Transfer("x", 0, make_param("f", NatV(1)))
        with_unit = Transfer("x", 0, make_param("f", NatV(1), UNIT_VALUE))
        assert render_op_brief(one) == "x.f(1)"
        assert render_op_brief(with_unit) == "x.f(1, unit)"
        assert render_op_brief(Transfer("x", 0, make_param("default"))) == "x.default()"


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


def test_make_param_nesting():
    assert make_param("default") == PairV(StringV("default"), UNIT_VALUE)
    assert make_param("withdraw", NatV(5)) == PairV(StringV("withdraw"), NatV(5))
    assert make_param("rob", NatV(3), NatV(5)) == PairV(
        StringV("rob"), PairV(NatV(3), NatV(5))
    )
    assert nest_values([NatV(1), NatV(2), NatV(3)]) == PairV(
        NatV(1), PairV(NatV(2), NatV(3))
    )
