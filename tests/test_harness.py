import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from chainsim.core import (
    AddressV,
    AtomicBundle,
    BoolV,
    CallContext,
    ContextBundle,
    Contract,
    CreateContract,
    EndInteractions,
    Environment,
    IntV,
    ListV,
    MutezV,
    NatV,
    Operation,
    PairV,
    Restricted,
    StringV,
    Transfer,
    UNIT_VALUE,
    Value,
    make_param,
)
from chainsim import registry
from chainsim.executor import CONTRACT_FAILURE, ExecError, execute_operation
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim.harness import (
    GenConfig,
    check_transaction,
    default_universe,
    fuzz,
    gen_transaction,
    reproduction_scenario,
)
from chainsim.scenario import parse_scenario, build_environment, validate_scenario
from chainsim.scheduler import (
    Commit,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_transaction,
)
from chainsim.trace import (
    node_to_json,
    validate_atomic_bundles,
    validate_conservation,
    validate_replay,
)


@pytest.fixture(scope="module")
def universe():
    return default_universe(3)


class TestGenTransaction:
    def test_same_seed_same_transaction(self, universe):
        env, cfg = universe
        assert gen_transaction(11, cfg) == gen_transaction(11, cfg)

    def test_zero_ops_bound(self, universe):
        env, cfg = universe
        none = GenConfig(seed=cfg.seed, universe=cfg.universe, max_ops_per_tx=0)
        assert gen_transaction(5, none).ops == ()

    def test_amounts_respect_bound(self, universe):
        env, cfg = universe
        for seed in range(50):
            tx = gen_transaction(seed, cfg)
            for op in tx.ops:
                assert op.amount <= cfg.amount_bound

    def test_generated_transactions_pass_setup_validation(self, universe):
        env, cfg = universe
        sched = SchedulerConfig()
        for seed in range(1000):
            tx = gen_transaction(seed, cfg)
            text = reproduction_scenario(env, tx, sched)
            validate_scenario(parse_scenario(text))

    def test_two_argument_call_prints_as_two_arguments(self, universe):
        env, _ = universe
        rob = Transfer("bad", 0, make_param("rob", NatV(2), NatV(5)))
        text = reproduction_scenario(env, SignedTransaction("alice", (rob,)), SchedulerConfig())
        assert "  transfer 0 to @bad call rob(2, 5)\n" in text
        assert parse_scenario(text).transactions[0].ops == (rob,)

    def test_wrappers_print_and_parse_back(self, universe):
        env, _ = universe
        pay = Transfer("bob", 1, make_param("default"))
        tx = SignedTransaction(
            "alice",
            (
                AtomicBundle((pay, Transfer("vault", 0, make_param("deposit")))),
                ContextBundle((Restricted((pay,), allow=frozenset({"bob", "alice"})),)),
                Restricted((EndInteractions(),), block=frozenset()),
            ),
        )
        text = reproduction_scenario(env, tx, SchedulerConfig(features=FeatureSet.from_names(FEATURE_NAMES)))
        for line in (
            "  atomic {",
            "    transfer 1 to @bob",
            "    transfer 0 to @vault call deposit()",
            "  context {",
            "    allow [@alice @bob] {",
            "  block [] {",
            "    end_interactions",
        ):
            assert line + "\n" in text
        assert parse_scenario(text).transactions == (tx,)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            gen_transaction(0, GenConfig(seed=0, universe=()))

    @pytest.mark.parametrize("field", ["max_ops_per_tx", "amount_bound"])
    def test_a_negative_bound_is_refused_by_name(self, universe, field):
        env, cfg = universe
        with pytest.raises(ValueError, match=f"^{field} is negative: -1$"):
            gen_transaction(0, dataclasses.replace(cfg, **{field: -1}))

    def test_a_zero_amount_bound_draws_zero_amounts(self, universe):
        env, cfg = universe
        zero = dataclasses.replace(cfg, amount_bound=0)
        amounts = [op.amount for seed in range(50) for op in gen_transaction(seed, zero).ops]
        assert amounts and set(amounts) == {0}

    def test_the_stream_is_pinned(self):
        # Any change to how transactions are drawn must keep this stream, on
        # every CPython the suite runs on. The second range is the seeds of
        # perfbench's fuzz workload, 1_000_003 * run_seed + i, at run seed 1.
        env, cfg = default_universe(7)
        digest = hashlib.sha256()
        for seed in [*range(2000), *(1_000_003 + i for i in range(1000))]:
            digest.update(repr(gen_transaction(seed, cfg)).encode())
        assert digest.hexdigest() == (
            "11485e1ac7fb903bce798700eb1bb16f53b6017598420e0d9301d264ce0e3d11"
        )


def _demonic(salt: str, sender: str = "caller", amount: int = 1):
    """What the demonic body does on one call: its (ops, storage), or the
    message of its refusal."""
    ctx = CallContext(
        self_addr="imp",
        sender=sender,
        source=sender,
        amount=amount,
        self_balance=10,
        level=0,
        config=StringV(salt),
        features=FeatureSet(),
    )
    try:
        return registry.resolve("demonic").body(ctx, make_param("default"), UNIT_VALUE)
    except registry.ContractFail as err:
        return err.message


_SENDERS = [f"s{i}" for i in range(40)]


def _behaviour(result) -> str:
    # One transfer of 0 back to the sender is a call back, whichever branch
    # emitted it; an emission is told apart by an amount or a second transfer.
    if isinstance(result, str):
        return "refuse"
    ops, storage = result
    assert storage == UNIT_VALUE
    if isinstance(ops[0], CreateContract):
        assert len(ops) == 1 and ops[0].code_key == "receiver" and ops[0].amount == 0
        return "create"
    if ops == [Transfer(ops[0].dest, 0, make_param("default"))]:
        return "call back"
    return "emit"


class TestDemonic:
    def test_same_salt_and_inputs_same_result(self):
        for sender in _SENDERS[:10]:
            for amount in (0, 1, 7):
                assert _demonic("7", sender, amount) == _demonic("7", sender, amount)

    def test_two_salts_differ_on_some_input(self):
        assert any(_demonic("7", s) != _demonic("8", s) for s in _SENDERS)

    def test_every_behaviour_is_reached(self):
        seen = {_behaviour(_demonic("7", s)) for s in _SENDERS}
        assert seen == {"emit", "call back", "create", "refuse"}

    def test_emissions_go_back_to_the_sender(self):
        for sender in _SENDERS:
            result = _demonic("7", sender)
            if _behaviour(result) in ("emit", "call back"):
                ops, _ = result
                assert 1 <= len(ops) <= 2
                assert all(op.dest == sender and op.amount <= 2 for op in ops)

    def test_salt_7_makes_the_pinned_choices(self):
        # The `fuzz` digest in perfbench/expected.json rests on these.
        back = make_param("default")
        assert _demonic("7", "alice", 0) == ([Transfer("alice", 0, back)], UNIT_VALUE)
        assert _demonic("7", "alice", 3) == ([Transfer("alice", 1, back)] * 2, UNIT_VALUE)
        assert _demonic("7", "bob", 3) == "demonic refusal 0"
        for sender, amount, addr in (("bad", 0, "spawn413765447"), ("fwd", 3, "spawn369557057")):
            create = CreateContract(addr, 0, UNIT_VALUE, "receiver", UNIT_VALUE)
            assert _demonic("7", sender, amount) == ([create], UNIT_VALUE)

    def test_the_universe_salts_it_with_the_seed(self):
        for seed in (-1, 0, 7):
            env, cfg = default_universe(seed)
            imp = env.get("imp")
            assert (imp.code_key, imp.config) == ("demonic", StringV(str(seed)))
            assert ("imp", "demonic") in cfg.universe


def _skip_debit(ectx, op, env, features, pending=()):
    """Fault injection: re-credits the sender after a transfer, silently
    minting the moved amount."""
    out = execute_operation(ectx, op, env, features, pending)
    if isinstance(op, Transfer) and op.amount > 0 and ectx.sender != op.dest:
        sender_c = out.env_after.get(ectx.sender)
        forged = out.env_after.updated({ectx.sender: sender_c.moved(sender_c.balance + op.amount)})
        return out._replace(env_after=forged)
    return out


def _misroute_credit(ectx, op, env, features, pending=()):
    """Fault injection: hands a transfer's credit to a third account, so
    funds are conserved but land where the trace does not say."""
    out = execute_operation(ectx, op, env, features, pending)
    if isinstance(op, Transfer) and op.amount > 0 and ectx.sender != op.dest:
        other = next(a for a in ("alice", "bob", "vault") if a not in (ectx.sender, op.dest))
        dest_c, other_c = out.env_after.get(op.dest), out.env_after.get(other)
        forged = out.env_after.updated(
            {
                op.dest: dest_c.moved(dest_c.balance - op.amount),
                other: other_c.moved(other_c.balance + op.amount),
            }
        )
        return out._replace(env_after=forged)
    return out


def _drop_storage_commit(ectx, op, env, features, pending=()):
    """Fault injection: records each storage commit but keeps the storage an
    existing account held before."""
    out = execute_operation(ectx, op, env, features, pending)
    after = out.env_after
    for addr, _ in out.commits:
        before = env.get(addr)
        if before is not None:
            after = after.updated({addr: after.get(addr).with_storage(before.storage)})
    return out._replace(env_after=after)


_PAY = Transfer("bob", 1, make_param("default"))
_ONE_OF_EACH_RECORD = (
    UNIT_VALUE,
    NatV(5),
    IntV(-5),
    BoolV(True),
    StringV("s"),
    MutezV(5),
    AddressV("fwd"),
    PairV(NatV(5), UNIT_VALUE),
    ListV((NatV(5),)),
    _PAY,
    CreateContract("new", 1, NatV(5), "forwarder", UNIT_VALUE),
    AtomicBundle((_PAY,)),
    ContextBundle((_PAY,)),
    Restricted((_PAY,), allow=frozenset({"bob"})),
    EndInteractions(),
    registry.instantiate("forwarder", UNIT_VALUE, NatV(5), 0),
)


class TestRevertTotality:
    """A reverted transaction must leave its input environment as it was."""

    def _check(self, fault):
        # One dict, so `env.accounts` in the hook is the very dict the
        # transaction started from, not a merged copy.
        env = Environment(
            {
                "alice": registry.implicit_account(10),
                "bob": registry.implicit_account(0),
                "fwd": registry.instantiate("forwarder", UNIT_VALUE, NatV(5), 0),
            }
        )

        def hook(ectx, op, env, features, pending=()):
            fault(env)  # a faulty executor that edits its input in place
            raise ExecError(CONTRACT_FAILURE, "injected")

        tx = SignedTransaction("alice", (Transfer("bob", 1, make_param("default")),))
        return check_transaction(env, tx, SchedulerConfig(), ("revert_totality",), hook)

    def test_in_place_write_before_a_revert_is_reported(self):
        def write(env):
            env.accounts["bob"] = registry.implicit_account(99)

        assert self._check(write) == ["revert_totality"]

    @pytest.mark.parametrize("record", _ONE_OF_EACH_RECORD, ids=lambda r: type(r).__name__)
    def test_no_value_operation_or_contract_changes_in_place(self, record):
        # The revert-totality snapshot compares account objects, not their
        # contents; that is enough only because no record changes in place.
        before = repr(record)
        for name in record._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(record, name, NatV(6))
            with pytest.raises(AttributeError):
                object.__setattr__(record, name, NatV(6))
        assert repr(record) == before

    def test_every_record_class_is_checked(self):
        classes = {type(r) for r in _ONE_OF_EACH_RECORD}
        assert classes == {*Value.__subclasses__(), *Operation.__subclasses__(), Contract}

    def test_revert_without_a_write_is_clean(self):
        assert self._check(lambda env: None) == []


def _open_frames(ectx, op, env, features, pending=()):
    """Fault injection: runs every callee's emissions in a fresh frame, as
    if each callee were contextual, so they jump ahead of their emitter's
    siblings."""
    return execute_operation(ectx, op, env, features, pending)._replace(opens_frame=True)


def _contiguity_env():
    return Environment(
        {
            "alice": registry.implicit_account(10),
            "bob": registry.implicit_account(0),
            "fwd": registry.instantiate("forwarder", UNIT_VALUE, NatV(5), 5),
        }
    )


# A wrapper around a call that emits.
_GUARDED_INVOKE = Restricted(
    (Transfer("fwd", 0, make_param("invoke", AddressV("bob"), NatV(1))),),
    block=frozenset({"alice"}),
)


class TestSiblingContiguity:
    def test_faulty_hook_is_reported(self):
        tx = SignedTransaction("alice", (_GUARDED_INVOKE, _PAY))
        cfg = SchedulerConfig(features=FeatureSet(restrictions=True))
        invariants = ("sibling_contiguity",)
        env = _contiguity_env()
        assert check_transaction(env, tx, cfg, invariants) == []
        assert check_transaction(env, tx, cfg, invariants, _open_frames) == [
            "sibling_contiguity"
        ]

    def test_violation_lists_a_wrapper_members_expansion(self):
        # Under DFS, fwd's emission (node 3) runs between the bundle's two
        # members: the wrapper (node 1, expanding to node 2) and the payment.
        cfg = SchedulerConfig(
            strategy=Strategy.DFS, features=FeatureSet(bundles=True, restrictions=True)
        )
        tx = SignedTransaction("alice", (AtomicBundle((_GUARDED_INVOKE, _PAY)),))
        outcome, _, tree = run_transaction(_contiguity_env(), tx, cfg, 0)
        assert isinstance(outcome, Commit)
        assert [(n.id, n.parent, type(n.op)) for n in tree.nodes] == [
            (0, None, AtomicBundle), (1, 0, Restricted), (2, 1, Transfer),
            (3, 2, Transfer), (4, 0, Transfer),
        ]
        report = validate_atomic_bundles(tree)
        assert report.violations == ("bundle node 0: members at seqs [1, 2, 4] interleave",)


class TestFuzz:
    def test_single_iteration(self, universe):
        env, cfg = universe
        report = fuzz(env, cfg, 1)
        assert report.iterations == 1

    def test_clean_run_has_no_violations(self, universe):
        env, cfg = universe
        report = fuzz(env, cfg, 200)
        assert report.ok, report.violations[0]

    def test_fault_injection_is_detected(self, universe):
        env, cfg = universe
        report = fuzz(env, cfg, 60, execute=_skip_debit)
        assert not report.ok
        kinds = {v.invariant for v in report.violations}
        assert "transfer_correctness" in kinds

    def test_failing_seed_reproduces_alone(self, universe):
        env, cfg = universe
        report = fuzz(env, cfg, 60, execute=_skip_debit)
        seed = min(v.seed for v in report.violations)
        solo = fuzz(
            env,
            GenConfig(seed=seed, universe=cfg.universe),
            1,
            execute=_skip_debit,
        )
        assert not solo.ok
        assert solo.violations[0].seed == seed

    def test_reproduction_scenario_fails_same_invariant(self, universe):
        env, cfg = universe
        report = fuzz(env, cfg, 60, execute=_skip_debit)
        violation = report.violations[0]
        scn = parse_scenario(violation.scenario)
        validate_scenario(scn)
        rebuilt = build_environment(scn)
        failures = check_transaction(
            rebuilt, scn.transactions[0], SchedulerConfig(), (violation.invariant,), _skip_debit
        )
        assert violation.invariant in failures

    def test_determinism(self, universe):
        env, cfg = universe
        assert fuzz(env, cfg, 100) == fuzz(env, cfg, 100)

    def test_report_json_schema(self, universe):
        env, cfg = universe
        report = fuzz(env, cfg, 5, execute=_skip_debit)
        payload = report.to_json_dict()
        assert set(payload) == {"iterations", "violations"}
        for v in payload["violations"]:
            assert set(v) == {"seed", "invariant", "scenario"}
        json.dumps(payload)

    def test_rejects_bad_arguments(self, universe):
        env, cfg = universe
        with pytest.raises(ValueError):
            fuzz(env, cfg, 0)
        with pytest.raises(ValueError):
            fuzz(env, cfg, 1, invariants=("who_knows",))

    @pytest.mark.parametrize("invariants", [(), [], "conservation"], ids=repr)
    def test_refuses_to_check_nothing(self, universe, invariants):
        # A bare string is not a selection of names: it would be read one
        # character at a time.
        env, cfg = universe
        with pytest.raises(ValueError, match="^fuzz needs a tuple of invariant names to check"):
            fuzz(env, cfg, 3, invariants=invariants)


# Each fault's 300-iteration report on `default_universe(7)`: the SHA-256 of
# its JSON text and the violations per invariant. A changed validator must
# still fire on the same seeds, and shrink each to the same reproduction.
_FAULT_REPORTS = {
    _skip_debit: (
        "1ff94acfe33e0a66bee70ca6a9d62b91c00df6a095a1f46efc5b0897321f1381",
        {"conservation": 115, "transfer_correctness": 115},
    ),
    _misroute_credit: (
        "029b93286883f9034ffb4b76cf14544d487694f2f90989d579f99ce27e3ecca6",
        {"transfer_correctness": 102},
    ),
    _drop_storage_commit: (
        "2c95de9f948a9a04a67bd848977559baab71d4044d750d500b47c804feb23d99",
        {"transfer_correctness": 35},
    ),
}

# The same faults' validator reports, one per committed iteration of those
# 300 (verdict, kind and every violation line, in order), hashed in turn.
_FAULT_VALIDATIONS = {
    _skip_debit: "a28c65358ffdd716926f033e18294239c2ae2c104c45a3a76d5b9e6589df94dd",
    _misroute_credit: "c47fbc0e6c53aa43d45b92540efb6d923149cb87a06b8edc642e872bd7ec4a1e",
    _drop_storage_commit: "2362e8141db92879b3f271c8273081b57e21ac054a06cc5e4ff52afdfb75161f",
}


@pytest.mark.parametrize("fault", list(_FAULT_REPORTS), ids=lambda f: f.__name__)
class TestFaultReportsArePinned:
    def test_fuzz_report(self, fault):
        env, cfg = default_universe(7)
        report = fuzz(env, cfg, 300, execute=fault)
        text = json.dumps(report.to_json_dict(), sort_keys=True)
        digest, counts = _FAULT_REPORTS[fault]
        assert Counter(v.invariant for v in report.violations) == counts
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_validator_reports(self, fault):
        env, cfg = default_universe(7)
        digest = hashlib.sha256()
        for seed in range(cfg.seed, cfg.seed + 300):
            tx = gen_transaction(seed, cfg)
            outcome, _, tree = run_transaction(env, tx, SchedulerConfig(), 0, fault)
            if isinstance(outcome, Commit):
                reports = (
                    validate_conservation(env, outcome.env),
                    validate_replay(tree, env, outcome.env),
                )
                digest.update(repr(reports).encode())
        assert digest.hexdigest() == _FAULT_VALIDATIONS[fault]


# Each commit invariant of `check_transaction` and the public validator whose
# `ok` is its verdict.
_COMMIT_VALIDATORS = {
    "conservation": lambda tree, before, after: validate_conservation(before, after),
    "transfer_correctness": lambda tree, before, after: validate_replay(tree, before, after).ok,
}


def _validator_failures(env, tx, execute=execute_operation):
    """The commit invariants the public validators find `tx` breaking, in
    `check_transaction`'s order, once `check_transaction` has given the same
    verdicts, one invariant at a time and both at once; None for a
    revert."""
    cfg = SchedulerConfig()
    outcome, _, tree = run_transaction(env, tx, cfg, 0, execute)
    if not isinstance(outcome, Commit):
        return None
    failed = [
        inv for inv, valid in _COMMIT_VALIDATORS.items() if not valid(tree, env, outcome.env)
    ]
    for inv in _COMMIT_VALIDATORS:
        expected = [inv] if inv in failed else []
        assert check_transaction(env, tx, cfg, (inv,), execute) == expected, (inv, tx)
    assert check_transaction(env, tx, cfg, tuple(_COMMIT_VALIDATORS), execute) == failed
    return failed


def _lose_creates(ectx, op, env, features, pending=()):
    """Fault injection: records a create but keeps the chain as it was."""
    out = execute_operation(ectx, op, env, features, pending)
    return out._replace(env_after=env) if isinstance(op, CreateContract) else out


def _mint_on_self_transfer(ectx, op, env, features, pending=()):
    """Fault injection: a transfer to its own sender credits it twice."""
    out = execute_operation(ectx, op, env, features, pending)
    if isinstance(op, Transfer) and ectx.sender == op.dest:
        own = out.env_after.get(op.dest)
        return out._replace(env_after=out.env_after.updated({op.dest: own.moved(own.balance + op.amount)}))
    return out


def _drop_dest(ectx, op, env, features, pending=()):
    """Fault injection: the callee is missing from the chain afterwards."""
    out = execute_operation(ectx, op, env, features, pending)
    kept = {addr: c for addr, c in out.env_after.accounts.items() if addr != op.dest}
    return out._replace(env_after=Environment(kept))


def _add_ghost(balance):
    def add_ghost(ectx, op, env, features, pending=()):
        """Fault injection: an account no node names appears."""
        out = execute_operation(ectx, op, env, features, pending)
        return out._replace(
            env_after=out.env_after.updated({"ghost": registry.implicit_account(balance)})
        )

    return add_ghost


def _misreport_storage(ectx, op, env, features, pending=()):
    """Fault injection: the trace records a storage the chain never held."""
    out = execute_operation(ectx, op, env, features, pending)
    return out._replace(commits=tuple((addr, NatV(7)) for addr, _ in out.commits))


_ALL_COMMIT_INVARIANTS = list(_COMMIT_VALIDATORS)
_TO_BOB = Transfer("bob", 3, make_param("default"))

# (transaction's operation, executor, the invariants it breaks) from `alice`
# in `_EDGE_ENV`.
_EDGE_ENV = Environment(
    {
        "alice": registry.implicit_account(10),
        "bob": registry.implicit_account(0),
        "zero": registry.implicit_account(0),
    }
)
_EDGE_COMMITS = {
    "zero_endowment_create": (
        CreateContract("fresh", 0, UNIT_VALUE, "receiver", UNIT_VALUE), execute_operation, [],
    ),
    "zero_endowment_create_lost": (
        CreateContract("fresh", 0, UNIT_VALUE, "receiver", UNIT_VALUE),
        _lose_creates,
        ["transfer_correctness"],
    ),
    "endowed_create_lost": (
        CreateContract("fresh", 2, UNIT_VALUE, "receiver", UNIT_VALUE),
        _lose_creates,
        ["transfer_correctness"],
    ),
    "self_transfer": (Transfer("alice", 4, make_param("default")), execute_operation, []),
    "self_transfer_minting": (
        Transfer("alice", 4, make_param("default")), _mint_on_self_transfer, _ALL_COMMIT_INVARIANTS,
    ),
    "empty_callee_missing_after": (
        Transfer("zero", 0, make_param("default")), _drop_dest, ["transfer_correctness"],
    ),
    "paid_callee_missing_after": (_TO_BOB, _drop_dest, _ALL_COMMIT_INVARIANTS),
    "unnamed_empty_account": (_TO_BOB, _add_ghost(0), ["transfer_correctness"]),
    "unnamed_funded_account": (_TO_BOB, _add_ghost(2), _ALL_COMMIT_INVARIANTS),
    "misreported_storage": (_TO_BOB, _misreport_storage, ["transfer_correctness"]),
}


class TestCommitVerdictsMatchTheValidators:
    """`check_transaction` decides the two commit invariants from one
    shared pass; each verdict must be its public validator's."""

    def test_generated_commits(self):
        env, cfg = default_universe(7)
        commits, seed = 0, cfg.seed
        while commits < 2000:
            failed = _validator_failures(env, gen_transaction(seed, cfg))
            if failed is not None:
                assert failed == [], seed
                commits += 1
            seed += 1

    @pytest.mark.parametrize("fault", list(_FAULT_REPORTS), ids=lambda f: f.__name__)
    def test_fault_hooks_fail_as_pinned(self, fault):
        env, cfg = default_universe(7)
        counts = Counter()
        for seed in range(cfg.seed, cfg.seed + 300):
            counts.update(_validator_failures(env, gen_transaction(seed, cfg), fault) or ())
        assert counts == _FAULT_REPORTS[fault][1]

    @pytest.mark.parametrize("case", list(_EDGE_COMMITS))
    def test_edge_commits(self, case):
        op, execute, expected = _EDGE_COMMITS[case]
        assert _validator_failures(_EDGE_ENV, SignedTransaction("alice", (op,)), execute) == expected


def _double_spends(tree, before, after) -> list[str]:
    """The no-double-spend rule: the addresses whose balance change differs
    from the sum of the trace's deltas for them."""
    claimed = Counter()
    for node in tree.nodes:
        claimed.update(node_to_json(node)["deltas"])

    def balance(env, addr):
        contract = env.get(addr)
        return 0 if contract is None else contract.balance

    addrs = claimed.keys() | before.accounts.keys() | after.accounts.keys()
    return sorted(a for a in addrs if balance(after, a) - balance(before, a) != claimed[a])


def _pinned_commits():
    """(tree, before, after) of each commit of the pinned faults' 300
    iterations and of the edge cases."""
    env, cfg = default_universe(7)
    runs = [
        (env, gen_transaction(seed, cfg), fault)
        for fault in _FAULT_REPORTS
        for seed in range(cfg.seed, cfg.seed + 300)
    ]
    runs += [
        (_EDGE_ENV, SignedTransaction("alice", (op,)), execute)
        for op, execute, _ in _EDGE_COMMITS.values()
    ]
    for before, tx, execute in runs:
        outcome, _, tree = run_transaction(before, tx, SchedulerConfig(), 0, execute)
        if isinstance(outcome, Commit):
            yield tree, before, outcome.env


def test_replay_fails_at_every_address_a_double_spend_breaks():
    # Replay's balance test is the no-double-spend rule, so replay needs no
    # such invariant beside it: each address the rule flags gets a replay
    # violation of its own.
    flagged = 0
    for tree, before, after in _pinned_commits():
        lines = validate_replay(tree, before, after).violations
        for addr in _double_spends(tree, before, after):
            flagged += 1
            assert any(line.startswith(f"@{addr}: ") for line in lines), (addr, lines)
    assert flagged
