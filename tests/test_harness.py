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
    DemonicProfile,
    GenConfig,
    check_transaction,
    default_universe,
    fuzz,
    gen_demonic_contract,
    gen_transaction,
    reproduction_scenario,
)
from chainsim.scenario import parse_scenario, build_environment, validate_scenario
from chainsim.scheduler import SchedulerConfig, SignedTransaction


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


def _probe(defn, sender="caller", amount=1):
    ctx = CallContext(
        self_addr="probe",
        sender=sender,
        source=sender,
        amount=amount,
        self_balance=10,
        level=0,
        config=UNIT_VALUE,
        features=FeatureSet(),
    )
    return defn.body(ctx, make_param("default"), UNIT_VALUE)


class TestDemonic:
    def test_reentrancy_profile_calls_back(self):
        defn = gen_demonic_contract(1, DemonicProfile(reentrant_callback=1))
        ops, _ = _probe(defn)
        assert ops == [Transfer("caller", 0, make_param("default"))]

    def test_zero_weights_is_receiver_equivalent(self):
        defn = gen_demonic_contract(2, DemonicProfile())
        ops, storage = _probe(defn)
        assert ops == [] and storage == UNIT_VALUE

    def test_same_seed_same_def(self):
        a = gen_demonic_contract(9, DemonicProfile(emit_transfers=2, fail_by_seed=1))
        b = gen_demonic_contract(9, DemonicProfile(emit_transfers=2, fail_by_seed=1))
        assert a.code_key == b.code_key
        for sender in ("x", "y", "z"):
            try:
                ra = a.body and _probe(a, sender=sender)
            except Exception as err:  # deterministic failures count as outputs
                ra = repr(err)
            try:
                rb = b.body and _probe(b, sender=sender)
            except Exception as err:
                rb = repr(err)
            assert ra == rb

    def test_body_is_deterministic(self):
        defn = gen_demonic_contract(4, DemonicProfile(emit_transfers=1, fail_by_seed=1))
        results = []
        for _ in range(2):
            try:
                results.append(_probe(defn, sender="s", amount=2))
            except Exception as err:
                results.append(repr(err))
        assert results[0] == results[1]


def _skip_debit(ectx, op, env, features, pending=()):
    """Fault injection: re-credits the sender after a transfer, silently
    minting the moved amount."""
    out = execute_operation(ectx, op, env, features, pending)
    if isinstance(op, Transfer) and op.amount > 0 and ectx.sender != op.dest:
        sender_c = out.env_after.get(ectx.sender)
        forged = out.env_after.updated(
            ectx.sender, sender_c._replace(balance=sender_c.balance + op.amount)
        )
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
