import glob
from dataclasses import replace

import pytest

from chainsim.core import (
    WRAPPER_OPS,
    AddressV,
    AtomicBundle,
    ContextBundle,
    Environment,
    ExecutionContext,
    ListV,
    MutezV,
    NatV,
    PairV,
    PendingOp,
    Restricted,
    Transfer,
    UNIT_VALUE,
    make_param,
)
from chainsim.executor import (
    CONTRACT_FAILURE,
    FEATURE_DISABLED,
    FUEL_EXHAUSTED,
    RESTRICTION_VIOLATION,
    UNKNOWN_ADDRESS,
    execute_operation,
    view_storage,
)
from chainsim.features import FeatureSet
from chainsim import harness, registry
from chainsim.scenario import build_environment, parse_scenario, scenario_config
from chainsim.trace import (
    STATUS_EXECUTED,
    validate_conservation,
    validate_no_double_spend,
    validate_replay,
)
from chainsim.scheduler import (
    Commit,
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    initial_state,
    run_block,
    run_transaction,
    step,
)
from conftest import SCENARIO_DIR

BFS = SchedulerConfig(strategy=Strategy.BFS, record_queue_states=True)
DFS = SchedulerConfig(strategy=Strategy.DFS, record_queue_states=True)


def _first_step(strategy, contextual_payer=False):
    """Step once from the initial state of `user: a.pay([r1, r2], 1); b`,
    returning the successor plus the untouched second operation and the two
    operations the payer emits."""
    env = _context_env()
    if contextual_payer:
        env = env.updated("a", replace(env.get("a"), contextual=True))
    cfg = SchedulerConfig(strategy=strategy, features=FeatureSet(contexts=True))
    state = initial_state(env, _context_tx(wrap=False), cfg, 0)
    to_b = state.stack[0][1]
    emitted_ctx = ExecutionContext(sender="a", source="user", level=0)
    r1, r2 = (
        PendingOp(Transfer(r, 1, make_param("default")), emitted_ctx, 0) for r in ("r1", "r2")
    )
    return step(state), to_b, r1, r2


class TestStepInsertsEmitted:
    def test_bfs_appends(self):
        state, to_b, r1, r2 = _first_step(Strategy.BFS)
        assert state.stack == ((to_b, r1, r2),)

    def test_dfs_prepends_preserving_order(self):
        state, to_b, r1, r2 = _first_step(Strategy.DFS)
        assert state.stack == ((r1, r2, to_b),)

    def test_new_frame_pushes(self):
        state, to_b, r1, r2 = _first_step(Strategy.BFS, contextual_payer=True)
        assert state.stack == ((r1, r2), (to_b,))


def _rob_tx(n=3, m=5):
    return SignedTransaction(
        "owner", (Transfer("bad", 0, make_param("rob", NatV(n), NatV(m))),)
    )


PAPER_QUEUE_STATES = (
    "[[(bad, vault.withdraw(5)), (bad, vault.withdraw(5)), (bad, vault.withdraw(5))]]",
    "[[(bad, vault.withdraw(5)), (bad, vault.withdraw(5)), (vault, bad.default())]]",
    "[[(bad, vault.withdraw(5)), (vault, bad.default()), (vault, bad.default())]]",
    "[[(vault, bad.default()), (vault, bad.default()), (vault, bad.default())]]",
    "[[(vault, bad.default()), (vault, bad.default())]]",
    "[[(vault, bad.default())]]",
    "[]",
)


class TestVaultAttack:
    def test_bfs_extracts_everything(self, vault_env):
        outcome, ts, tree = run_transaction(vault_env, _rob_tx(), BFS, 0)
        assert isinstance(outcome, Commit)
        assert outcome.env.get("vault").balance == 0
        assert outcome.env.get("bad").balance == 15
        assert ts == 1
        # queue evolution: the submitted call plus the seven states of the
        # extraction trace (3 withdraws, mixed, 3 receives, 2, 1, empty)
        assert tree.queue_states[0] == "[[(owner, bad.rob(3, 5))]]"
        assert tree.queue_states[1:] == PAPER_QUEUE_STATES
        # funds are conserved across the attack
        assert outcome.env.total_balance() == vault_env.total_balance() == 115

    def test_dfs_reverts_after_first_payout(self, vault_env):
        outcome, ts, tree = run_transaction(vault_env, _rob_tx(), DFS, 0)
        assert isinstance(outcome, Revert)
        assert outcome.kind == CONTRACT_FAILURE
        assert "breaking invariant" in outcome.detail
        assert ts == 1
        # the first payout ran before the second withdraw: states show it
        assert tree.queue_states == (
            "[[(owner, bad.rob(3, 5))]]",
            "[[(bad, vault.withdraw(5)), (bad, vault.withdraw(5)), (bad, vault.withdraw(5))]]",
            "[[(vault, bad.default()), (bad, vault.withdraw(5)), (bad, vault.withdraw(5))]]",
            "[[(bad, vault.withdraw(5)), (bad, vault.withdraw(5))]]",
        )
        # revert totality: nothing in the original environment moved
        assert vault_env.get("vault").balance == 15
        assert vault_env.get("bad").balance == 0


class TestRunTransaction:
    def test_empty_transaction_commits(self, simple_env):
        outcome, ts, tree = run_transaction(
            simple_env, SignedTransaction("alice", ()), BFS, 41
        )
        assert isinstance(outcome, Commit)
        assert outcome.env == simple_env
        assert ts == 42
        assert tree.nodes == ()
        assert tree.queue_states == ("[]",)

    def test_unknown_author_reverts(self, simple_env):
        outcome, ts, _ = run_transaction(
            simple_env, SignedTransaction("ghost", ()), BFS, 0
        )
        assert isinstance(outcome, Revert)
        assert outcome.kind == UNKNOWN_ADDRESS
        assert ts == 1

    def test_fuel_exhaustion_reverts(self, vault_env):
        cfg = SchedulerConfig(strategy=Strategy.BFS, fuel=3)
        outcome, ts, _ = run_transaction(vault_env, _rob_tx(), cfg, 0)
        assert isinstance(outcome, Revert)
        assert outcome.kind == FUEL_EXHAUSTED
        assert ts == 1

    def test_fuel_counts_only_executable_ops(self, simple_env):
        # wrapper expansion is free: bundle + 2 transfers fits in fuel 2
        ops = (
            AtomicBundle(
                (
                    Transfer("bob", 1, make_param("default")),
                    Transfer("bob", 2, make_param("default")),
                )
            ),
        )
        cfg = SchedulerConfig(
            strategy=Strategy.BFS, features=FeatureSet(bundles=True), fuel=2
        )
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", ops), cfg, 0
        )
        assert isinstance(outcome, Commit)
        assert outcome.env.get("bob").balance == 53

    def test_determinism(self, vault_env):
        runs = [run_transaction(vault_env, _rob_tx(), BFS, 7) for _ in range(2)]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_timestamp_advances_on_both_outcomes(self, vault_env):
        _, ts_commit, _ = run_transaction(vault_env, _rob_tx(), BFS, 10)
        _, ts_revert, _ = run_transaction(vault_env, _rob_tx(), DFS, 10)
        assert ts_commit == ts_revert == 11


class TestRunBlock:
    def test_revert_skips_only_failing_tx(self, simple_env):
        good = SignedTransaction(
            "alice", (Transfer("bob", 5, make_param("default")),)
        )
        failing = SignedTransaction(
            "alice", (Transfer("bob", 10_000, make_param("default")),)
        )
        good2 = SignedTransaction(
            "alice", (Transfer("bob", 1, make_param("default")),)
        )
        env, ts, trees = run_block(simple_env, [good, failing, good2], BFS, 0)
        assert [t.outcome for t in trees] == ["commit", "revert", "commit"]
        assert env.get("bob").balance == 56
        assert ts == 3

    def test_empty_block(self, simple_env):
        env, ts, trees = run_block(simple_env, [], BFS, 5)
        assert env == simple_env and ts == 5 and trees == []

    def test_block_composes_like_single_runs(self, vault_env):
        deposit = SignedTransaction(
            "owner", (Transfer("vault", 7, make_param("deposit")),)
        )
        withdraw = SignedTransaction(
            "bad", (Transfer("vault", 0, make_param("withdraw", NatV(5))),)
        )
        env_block, ts_block, _ = run_block(vault_env, [deposit, withdraw], BFS, 0)
        out1, ts1, _ = run_transaction(vault_env, deposit, BFS, 0)
        out2, ts2, _ = run_transaction(out1.env, withdraw, BFS, ts1)
        assert env_block == out2.env
        assert ts_block == ts2 == 2


def _context_env():
    env = Environment()
    env = env.updated("user", registry.implicit_account(10))
    env = env.updated(
        "a", registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 10)
    )
    for addr in ("r1", "r2", "b"):
        env = env.updated(addr, registry.implicit_account(0))
    return env


def _context_tx(wrap=True):
    pay = Transfer(
        "a", 0, make_param("pay", ListV((AddressV("r1"), AddressV("r2"))), NatV(1))
    )
    to_b = Transfer("b", 0, make_param("default"))
    first = ContextBundle((pay,)) if wrap else pay
    return SignedTransaction("user", (first, to_b))


CONTEXT_FRAMES = (
    "[[(user, a.pay([@r1, @r2], 1))], [(user, b.default())]]",
    "[[(a, r1.default()), (a, r2.default())], [(user, b.default())]]",
    "[[(a, r2.default())], [(user, b.default())]]",
    "[[(user, b.default())]]",
    "[]",
)


class TestContexts:
    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_caller_context_isolates_frame(self, strategy):
        cfg = SchedulerConfig(
            strategy=strategy,
            features=FeatureSet(contexts=True),
            record_queue_states=True,
        )
        outcome, _, tree = run_transaction(_context_env(), _context_tx(), cfg, 0)
        assert isinstance(outcome, Commit)
        assert tree.queue_states == CONTEXT_FRAMES
        assert outcome.env.get("r1").balance == 1
        assert outcome.env.get("r2").balance == 1

    def test_callee_contextual_flag_opens_frame(self):
        env = _context_env()
        payer = env.get("a")
        env = env.updated("a", payer.__class__(**{**payer.__dict__, "contextual": True}))
        cfg = SchedulerConfig(
            strategy=Strategy.BFS,
            features=FeatureSet(contexts=True),
            record_queue_states=True,
        )
        outcome, _, tree = run_transaction(env, _context_tx(wrap=False), cfg, 0)
        assert isinstance(outcome, Commit)
        assert tree.queue_states == (
            "[[(user, a.pay([@r1, @r2], 1)), (user, b.default())]]",
            "[[(a, r1.default()), (a, r2.default())], [(user, b.default())]]",
            "[[(a, r2.default())], [(user, b.default())]]",
            "[[(user, b.default())]]",
            "[]",
        )

    def test_callee_flag_wins_when_combined(self):
        env = _context_env()
        payer = env.get("a")
        env = env.updated("a", payer.__class__(**{**payer.__dict__, "contextual": True}))
        cfg = SchedulerConfig(
            strategy=Strategy.BFS,
            features=FeatureSet(contexts=True),
            record_queue_states=True,
        )
        outcome, _, tree = run_transaction(env, _context_tx(wrap=True), cfg, 0)
        assert isinstance(outcome, Commit)
        # one effective frame for the emissions, not two
        assert tree.queue_states == CONTEXT_FRAMES

    def test_contextual_callee_requires_feature(self):
        env = _context_env()
        payer = env.get("a")
        env = env.updated("a", payer.__class__(**{**payer.__dict__, "contextual": True}))
        cfg = SchedulerConfig(strategy=Strategy.BFS)
        outcome, _, _ = run_transaction(env, _context_tx(wrap=False), cfg, 0)
        assert isinstance(outcome, Revert)
        assert outcome.kind == FEATURE_DISABLED

    def test_context_wrapper_requires_feature(self):
        cfg = SchedulerConfig(strategy=Strategy.BFS)
        outcome, _, _ = run_transaction(_context_env(), _context_tx(), cfg, 0)
        assert isinstance(outcome, Revert)
        assert outcome.kind == FEATURE_DISABLED


class TestRestrictionWrappers:
    def test_blocked_invocation_reverts_whole_tx(self, simple_env):
        ops = (
            Restricted(
                (
                    Transfer("bob", 5, make_param("default")),
                    Transfer("fwd", 5, make_param("default")),
                ),
                block=frozenset({"fwd"}),
            ),
        )
        cfg = SchedulerConfig(features=FeatureSet(restrictions=True))
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", ops), cfg, 0
        )
        assert isinstance(outcome, Revert)
        assert outcome.kind == RESTRICTION_VIOLATION
        assert simple_env.get("bob").balance == 50

    def test_restrictions_inherited_by_descendants(self, simple_env):
        # fwd would forward to bob, but bob is blocked for the whole subtree
        ops = (
            Restricted(
                (
                    Transfer(
                        "fwd",
                        0,
                        make_param("invoke", AddressV("bob"), NatV(1)),
                    ),
                ),
                block=frozenset({"bob"}),
            ),
        )
        cfg = SchedulerConfig(features=FeatureSet(restrictions=True))
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", ops), cfg, 0
        )
        assert isinstance(outcome, Revert)
        assert outcome.kind == RESTRICTION_VIOLATION

    def test_feature_off_is_not_silent(self, simple_env):
        ops = (Restricted((Transfer("bob", 1, make_param("default")),), block=frozenset()),)
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", ops), SchedulerConfig(), 0
        )
        assert isinstance(outcome, Revert)
        assert outcome.kind == RESTRICTION_VIOLATION
        assert "disabled" in outcome.detail

    def test_bundle_feature_off(self, simple_env):
        ops = (AtomicBundle((Transfer("bob", 1, make_param("default")),)),)
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", ops), SchedulerConfig(), 0
        )
        assert isinstance(outcome, Revert)
        assert outcome.kind == FEATURE_DISABLED


class TestWrapperEdges:
    def test_empty_bundles_commit(self, simple_env):
        ops = (AtomicBundle(()), ContextBundle(()))
        cfg = SchedulerConfig(features=FeatureSet(bundles=True, contexts=True))
        outcome, _, tree = run_transaction(
            simple_env, SignedTransaction("alice", ops), cfg, 0
        )
        assert isinstance(outcome, Commit)
        assert outcome.env == simple_env
        assert [n.status for n in tree.nodes] == ["expanded", "expanded"]

    def test_empty_allow_set_blocks_everything(self, simple_env):
        ops = (
            Restricted((Transfer("bob", 1, make_param("default")),), allow=frozenset()),
        )
        cfg = SchedulerConfig(features=FeatureSet(restrictions=True))
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", ops), cfg, 0
        )
        assert isinstance(outcome, Revert)
        assert outcome.kind == RESTRICTION_VIOLATION


class TestTraceShape:
    def test_bfs_emission_groups_are_contiguous_siblings(self, vault_env):
        _, _, tree = run_transaction(vault_env, _rob_tx(), BFS, 0)
        by_parent = {}
        for node in tree.nodes:
            by_parent.setdefault(node.parent, []).append(node.seq)
        for seqs in by_parent.values():
            ordered = sorted(seqs)
            assert ordered[-1] - ordered[0] + 1 == len(ordered)

    def test_dfs_descendants_run_before_later_siblings(self, vault_env):
        # lower the threshold so every DFS withdrawal succeeds
        vault = registry.instantiate(
            "bank", PairV(NatV(0), AddressV("bad")), UNIT_VALUE, 20
        )
        env = vault_env.updated("vault", vault)
        outcome, _, tree = run_transaction(env, _rob_tx(n=2, m=5), DFS, 0)
        assert isinstance(outcome, Commit)
        children = {}
        for node in tree.nodes:
            children.setdefault(node.parent, []).append(node)
        # descendants of an op execute before any later sibling of that op
        def descendants(node_id):
            out = []
            for child in children.get(node_id, []):
                out.append(child.seq)
                out.extend(descendants(child.id))
            return out

        for siblings in children.values():
            ordered = sorted(siblings, key=lambda n: n.seq)
            for earlier, later in zip(ordered, ordered[1:]):
                for d in descendants(earlier.id):
                    assert d < later.seq

    def test_parent_precedes_child(self, vault_env):
        _, _, tree = run_transaction(vault_env, _rob_tx(), BFS, 0)
        ids = {n.id: n for n in tree.nodes}
        for node in tree.nodes:
            assert node.id == node.seq
            if node.parent is not None:
                assert ids[node.parent].seq < node.seq


def test_view_between_steps_sees_committed_storage():
    # drive a fixed vault withdrawal one step at a time and watch the
    # compromised counter move through the intermediate environments
    env = Environment()
    env = env.updated("owner", registry.implicit_account(10))
    env = env.updated(
        "vault",
        registry.instantiate(
            "fixed_bank", PairV(NatV(9), AddressV("owner")), MutezV(0), 15
        ),
    )
    tx = SignedTransaction(
        "owner", (Transfer("vault", 0, make_param("withdraw", NatV(5))),)
    )
    views_on = FeatureSet(views=True)
    state = initial_state(env, tx, SchedulerConfig(features=views_on), 0)
    state = step(state)  # withdraw executes, storage commit lands first
    assert view_storage(state.env, "vault", views_on) == MutezV(5)
    state = step(state)  # payout to owner
    assert state.env.get("owner").balance == 15
    state = step(state)  # private settle zeroes the counter
    assert view_storage(state.env, "vault", views_on) == MutezV(0)
    assert state.finished


# ---------------------------------------------------------------------------
# The core loop behind run_transaction against the step() adapter
# ---------------------------------------------------------------------------


def _run_by_steps(env, tx, cfg, ts=0, execute=execute_operation):
    """Drive `tx` with step() alone. Returns the final state and, for each
    executable step, the frozen queue behind the operation about to run."""
    state = initial_state(env, tx, cfg, ts, execute)
    behind = []
    while not state.finished:
        queue = [p for frame in state.stack for p in frame]
        if not isinstance(queue[0].op, WRAPPER_OPS):
            behind.append(tuple(queue[1:]))
        state = step(state)
    return state, behind


def _state_outcome(state):
    if state.failure is None:
        return Commit(state.env)
    return Revert(*state.failure)


def _recording_execute(records):
    def execute(ectx, op, env, features, pending):
        records.append(tuple(pending))
        return execute_operation(ectx, op, env, features, pending)

    return execute


def _mixed_env():
    payer = registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 10)
    env = _context_env().updated("c", replace(payer, contextual=True))
    return env.updated("fwd", registry.instantiate("forwarder", UNIT_VALUE, NatV(5), 5))


def _mixed_tx():
    def pay(payer, *dests):
        return Transfer(
            payer, 0, make_param("pay", ListV(tuple(AddressV(d) for d in dests)), NatV(1))
        )

    return SignedTransaction(
        "user",
        (
            ContextBundle((pay("a", "r1", "r2"), Transfer("b", 1, make_param("default")))),
            AtomicBundle(
                (
                    Transfer("b", 1, make_param("default")),
                    Restricted(
                        (Transfer("fwd", 0, make_param("invoke", AddressV("r1"), NatV(1))),),
                        allow=frozenset({"fwd", "r1"}),
                    ),
                )
            ),
            Restricted((pay("c", "r1", "b"),), block=frozenset({"r2"})),
            Transfer("b", 2, make_param("default")),
        ),
    )


class TestPendingView:
    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_hook_sees_the_queue_behind_the_running_op(self, strategy):
        cfg = SchedulerConfig(strategy=strategy, features=FeatureSet.all_on())
        records = []
        outcome, _, tree = run_transaction(
            _mixed_env(), _mixed_tx(), cfg, 0, _recording_execute(records)
        )
        assert isinstance(outcome, Commit)
        state, behind = _run_by_steps(_mixed_env(), _mixed_tx(), cfg)
        assert state.failure is None
        assert records == behind
        assert len(records) == sum(n.status == STATUS_EXECUTED for n in tree.nodes)
        # the first call, a.pay inside the context frame, sees its frame-mate
        # before the outer frame's three remaining operations
        ops = _mixed_tx().ops
        assert [p.op for p in records[0]] == [ops[0].ops[1], *ops[1:]]
        # the step() adapter hands the hook the same view
        step_records = []
        _run_by_steps(_mixed_env(), _mixed_tx(), cfg, execute=_recording_execute(step_records))
        assert step_records == records


class TestEntryPointEquivalence:
    @staticmethod
    def _assert_same(env, tx, cfg, ts):
        outcome, _, tree = run_transaction(env, tx, cfg, ts)
        state, _ = _run_by_steps(env, tx, cfg, ts)
        # a commit carries the final environment; a revert keeps `env`
        assert _state_outcome(state) == outcome
        assert state.nodes == tree.nodes
        return outcome

    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    @pytest.mark.parametrize("path", sorted(glob.glob(str(SCENARIO_DIR / "*.msc"))))
    def test_scenario_transactions(self, path, strategy):
        with open(path, encoding="utf-8") as fh:
            s = parse_scenario(fh.read())
        cfg = scenario_config(s, strategy)
        env = build_environment(s)
        for ts, tx in enumerate(s.transactions):
            outcome = self._assert_same(env, tx, cfg, ts)
            if isinstance(outcome, Commit):
                env = outcome.env

    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_generated_transactions(self, strategy):
        env0, gen_cfg = harness.default_universe(7)
        cfg = SchedulerConfig(strategy=strategy)
        outcomes = set()
        for i in range(200):
            tx = harness.gen_transaction(gen_cfg.seed + i, gen_cfg)
            outcomes.add(type(self._assert_same(env0, tx, cfg, 0)))
        assert outcomes == {Commit, Revert}

    def test_unknown_author_fails_the_initial_state(self, simple_env):
        tx = SignedTransaction("ghost", (Transfer("bob", 1, make_param("default")),))
        state = initial_state(simple_env, tx, SchedulerConfig(), 0)
        assert state.finished and state.failure[0] == UNKNOWN_ADDRESS
        with pytest.raises(ValueError):
            step(state)
        self._assert_same(simple_env, tx, SchedulerConfig(), 0)


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
def test_fanout_at_benchmark_size(strategy):
    entries = 4000
    receivers = [f"r{i}" for i in range(16)]
    env = Environment()
    env = env.updated("user", registry.implicit_account(1000))
    env = env.updated(
        "payer", registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 2 * entries)
    )
    for r in receivers:
        env = env.updated(r, registry.implicit_account(0))
    dests = ListV(tuple(AddressV(receivers[k % len(receivers)]) for k in range(entries)))
    tx = SignedTransaction("user", (Transfer("payer", 0, make_param("pay", dests, NatV(2))),))
    outcome, _, tree = run_transaction(env, tx, SchedulerConfig(strategy=strategy), 0)
    assert isinstance(outcome, Commit)
    assert validate_conservation(env, outcome.env)
    assert validate_no_double_spend(tree, env, outcome.env).ok
    assert validate_replay(tree, env, outcome.env).ok
    assert len(tree.nodes) == entries + 1
    assert all(n.status == STATUS_EXECUTED for n in tree.nodes)
    assert outcome.env.get("payer").balance == 0
    assert outcome.env.get("r0").balance == 2 * entries // len(receivers)
