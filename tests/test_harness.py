import json

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
from chainsim.trace import validate_atomic_bundles


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
        assert [(n.id, n.parent, n.kind) for n in tree.nodes] == [
            (0, None, "atomic"), (1, 0, "restricted"), (2, 1, "transfer"),
            (3, 2, "transfer"), (4, 0, "transfer"),
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
        assert "no_double_spend" in kinds

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
