import copy
import glob
from dataclasses import replace

import pytest

from chainsim.core import (
    AddressV,
    AtomicBundle,
    ContextBundle,
    EndInteractions,
    Environment,
    ListV,
    MutezV,
    NatV,
    PairV,
    PendingOp,
    Restricted,
    Transfer,
    UNIT,
    UNIT_VALUE,
    make_param,
    render_op_brief,
    render_stack,
    view_storage,
)
from chainsim.executor import (
    CONTRACT_CRASH,
    CONTRACT_FAILURE,
    FEATURE_DISABLED,
    FUEL_EXHAUSTED,
    RESTRICTION_VIOLATION,
    TYPE_MISMATCH,
    UNKNOWN_ADDRESS,
    ExecError,
    execute_operation,
)
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim import harness, registry
from chainsim.scenario import build_environment, parse_scenario, scenario_config
from chainsim.trace import (
    STATUS_EXECUTED,
    STATUS_FAILED,
    tree_to_json,
    validate_conservation,
    validate_replay,
)
from chainsim.scheduler import (
    Commit,
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_block,
    run_transaction,
)
from conftest import SCENARIO_DIR, contextual

BFS = SchedulerConfig(strategy=Strategy.BFS, record_queue_states=True)
DFS = SchedulerConfig(strategy=Strategy.DFS, record_queue_states=True)


def _first_step(strategy, contextual_payer=False):
    """Run `user: a.pay([r1, r2], 1); b`, recording each executor call's
    operation, context and the queue behind it. Returns the tree, the records,
    the second submitted operation and the two operations the payer emits."""
    env = _context_env()
    if contextual_payer:
        env = env.updated({"a": contextual(env.get("a"))})
    cfg = SchedulerConfig(
        strategy=strategy, features=FeatureSet(contexts=True), record_queue_states=True
    )
    records = []

    def execute(ectx, op, env, features, pending):
        records.append((op, ectx, tuple(pending)))
        return execute_operation(ectx, op, env, features, pending)

    tx = _context_tx(wrap=False)
    outcome, _, tree = run_transaction(env, tx, cfg, 0, execute)
    assert isinstance(outcome, Commit)
    # what the queue entries do not hold comes from the transaction
    for _, ectx, _ in records:
        assert (ectx.source, ectx.level, ectx.end_interactions_owner) == ("user", 0, None)
    to_b = PendingOp(tx.ops[1], "user")
    r1, r2 = (
        PendingOp(Transfer(r, 1, make_param("default")), "a", parent=0) for r in ("r1", "r2")
    )
    return tree, records, to_b, r1, r2


def _queue_after_first_step(tree, records):
    """The whole queue after the first step, head first: the second call's
    operation, sender, restrictions and trace parent, then the queue behind
    it."""
    op, ectx, behind = records[1]
    return (PendingOp(op, ectx.sender, ectx.restrictions, tree.nodes[1].parent), *behind)


class TestStepInsertsEmitted:
    def test_bfs_appends(self):
        tree, records, to_b, r1, r2 = _first_step(Strategy.BFS)
        assert _queue_after_first_step(tree, records) == (to_b, r1, r2)
        assert tree.queue_states[1] == (
            "[[(user, b.default()), (a, r1.default()), (a, r2.default())]]"
        )

    def test_dfs_prepends_preserving_order(self):
        tree, records, to_b, r1, r2 = _first_step(Strategy.DFS)
        assert _queue_after_first_step(tree, records) == (r1, r2, to_b)
        assert tree.queue_states[1] == (
            "[[(a, r1.default()), (a, r2.default()), (user, b.default())]]"
        )

    def test_new_frame_pushes(self):
        tree, records, to_b, r1, r2 = _first_step(Strategy.BFS, contextual_payer=True)
        assert _queue_after_first_step(tree, records) == (r1, r2, to_b)
        assert tree.queue_states[1] == (
            "[[(a, r1.default()), (a, r2.default())], [(user, b.default())]]"
        )


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
        tx = SignedTransaction("ghost", (Transfer("bob", 1, make_param("default")),))
        outcome, ts, tree = run_transaction(simple_env, tx, BFS, 0)
        assert isinstance(outcome, Revert)
        assert outcome.kind == UNKNOWN_ADDRESS
        assert outcome.detail == "author @ghost is not on chain"
        assert ts == 1
        assert tree.nodes == ()

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

    def test_queue_states_on_failure(self, simple_env, vault_env):
        # a snapshot precedes every executable op that is attempted, including
        # the one that fails; a wrapper gets none, and a revert adds no "[]"
        to_bob = Transfer("bob", 1, make_param("default"))
        cases = [
            # fuel exhaustion: the state the fourth op failed in is recorded
            (vault_env, _rob_tx(), replace(BFS, fuel=3), FUEL_EXHAUSTED,
             ("[[(owner, bad.rob(3, 5))]]", *PAPER_QUEUE_STATES[:3])),
            # a disabled wrapper at the head: only the op before it
            (simple_env, SignedTransaction("alice", (to_bob, AtomicBundle((to_bob,)))),
             BFS, FEATURE_DISABLED,
             ("[[(alice, bob.default()), (alice, atomic{bob.default()})]]",)),
            # an executor error on the first op
            (simple_env,
             SignedTransaction("alice", (Transfer("bob", 10_000, make_param("default")),)),
             BFS, "insufficient_balance", ("[[(alice, bob.default())]]",)),
            # an unknown author: nothing runs
            (simple_env, SignedTransaction("ghost", (to_bob,)), BFS, UNKNOWN_ADDRESS, ()),
        ]
        for env, tx, cfg, kind, states in cases:
            outcome, _, tree = run_transaction(env, tx, cfg, 0)
            assert isinstance(outcome, Revert) and outcome.kind == kind
            assert tree.queue_states == states

    def test_deeply_nested_emitted_parameter_reverts(self, simple_env):
        # A body emits a transfer whose argument nests 5,000 pairs, deeper
        # than the interpreter's recursion limit. The callee's entrypoint
        # check rejects it, and queue snapshots and trace export render it
        # without recursing.
        key = "deep_param_for_test"
        if not registry.is_registered(key):
            def body(ctx, param, storage):
                v = UNIT_VALUE
                for _ in range(5000):
                    v = PairV(NatV(1), v)
                return [Transfer("r", 0, make_param("default", v))], storage

            registry.register(registry.ContractDef(key, {"default": UNIT}, UNIT, UNIT, body))
        env = simple_env.updated({"r": registry.implicit_account(0)}).updated(
            {"deep": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)}
        )
        tx = SignedTransaction("alice", (Transfer("deep", 0, make_param("default")),))
        cfg = SchedulerConfig(record_queue_states=True)
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Revert) and outcome.kind == TYPE_MISMATCH
        assert [n.status for n in tree.nodes] == [STATUS_EXECUTED, STATUS_FAILED]
        failed = tree_to_json(tree)["nodes"][1]
        assert failed["param"] == '(pair "default" ' + "(pair 1 " * 5000 + "unit" + ")" * 5001

    def test_deeply_nested_emitted_bundle_commits_with_snapshots(self, simple_env):
        # A body emits a transfer inside 3,000 nested bundles, deeper than the
        # interpreter's recursion limit. Queue snapshots render it, and the
        # trace exports it, without recursing.
        key = "deep_bundle_for_test"
        if not registry.is_registered(key):
            def body(ctx, param, storage):
                op = Transfer("r", 0, make_param("default"))
                for _ in range(3000):
                    op = AtomicBundle((op,))
                return [Transfer("r", 0, make_param("default")), op], storage

            registry.register(registry.ContractDef(key, {"default": UNIT}, UNIT, UNIT, body))
        env = simple_env.updated({"r": registry.implicit_account(0)}).updated(
            {"deep": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)}
        )
        tx = SignedTransaction("alice", (Transfer("deep", 0, make_param("default")),))
        cfg = SchedulerConfig(features=FeatureSet(bundles=True), record_queue_states=True)
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Commit)
        assert len(tree.nodes) == 3003
        assert tree.queue_states[1] == (
            "[[(deep, r.default()), (deep, " + "atomic{" * 3000 + "r.default()" + "}" * 3000 + ")]]"
        )
        assert len(tree_to_json(tree)["nodes"]) == 3003

    @pytest.mark.parametrize("record", [False, True])
    def test_emitted_restriction_of_non_addresses_reverts(self, simple_env, record):
        # A wrapper listing entries that are not address tokens is rejected
        # when the body builds it, so the run reverts before any queue
        # snapshot renders it, whether snapshots are recorded or not.
        key = "non_address_restriction_for_test"
        if not registry.is_registered(key):
            def body(ctx, param, storage):
                t = Transfer("r", 0, make_param("default"))
                return [t, Restricted((t,), allow=frozenset({"a b", 7}))], storage

            registry.register(registry.ContractDef(key, {"default": UNIT}, UNIT, UNIT, body))
        env = simple_env.updated({"r": registry.implicit_account(0)}).updated(
            {"odd": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)}
        )
        tx = SignedTransaction("alice", (Transfer("odd", 0, make_param("default")),))
        cfg = SchedulerConfig(
            features=FeatureSet(restrictions=True), record_queue_states=record
        )
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Revert) and outcome.kind == CONTRACT_CRASH
        assert [n.status for n in tree.nodes] == [STATUS_FAILED]

    @pytest.mark.parametrize("record", [False, True])
    def test_emitted_transfer_of_a_non_value_reverts(self, simple_env, record):
        # A transfer whose parameter is not a value is rejected when the body
        # builds it, before the callee's parameter check or a queue snapshot
        # could see it.
        key = "non_value_param_for_test"
        if not registry.is_registered(key):
            def body(ctx, param, storage):
                return [Transfer("r", 0, 5)], storage

            registry.register(registry.ContractDef(key, {"default": UNIT}, UNIT, UNIT, body))
        env = simple_env.updated({"r": registry.implicit_account(0)}).updated(
            {"odd": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)}
        )
        tx = SignedTransaction("alice", (Transfer("odd", 0, make_param("default")),))
        cfg = SchedulerConfig(record_queue_states=record)
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Revert) and outcome.kind == CONTRACT_CRASH
        assert outcome.detail == "@odd raised ValueError: transfer parameter is not a value: 5"
        assert [n.status for n in tree.nodes] == [STATUS_FAILED]

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
    env = env.updated({"user": registry.implicit_account(10)})
    env = env.updated(
        {"a": registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 10)}
    )
    for addr in ("r1", "r2", "b"):
        env = env.updated({addr: registry.implicit_account(0)})
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

    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_context_frame_replaces_the_frame_it_drained(self, strategy, depth):
        # A context that ends its frame leaves one frame, not an empty one
        # beneath it, as a contextual callee's emissions do.
        op = Transfer("b", 1, make_param("default"))
        for _ in range(depth):
            op = ContextBundle((op,))
        cfg = SchedulerConfig(
            strategy=strategy,
            features=FeatureSet(contexts=True),
            record_queue_states=True,
        )
        tx = SignedTransaction("user", (op,))
        outcome, _, tree = run_transaction(_context_env(), tx, cfg, 0)
        assert isinstance(outcome, Commit)
        assert tree.queue_states == ("[[(user, b.default())]]", "[]")

    def test_callee_contextual_flag_opens_frame(self):
        env = _context_env()
        payer = env.get("a")
        env = env.updated({"a": contextual(payer)})
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
        env = env.updated({"a": contextual(payer)})
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
        # The executor, not the loop, refuses the call: a hook wrapping it
        # sees the error, and the call's node is the failed one.
        env = _context_env()
        payer = env.get("a")
        env = env.updated({"a": contextual(payer)})
        cfg = SchedulerConfig(strategy=Strategy.BFS)
        raised = []

        def execute(ectx, op, env, features, pending):
            try:
                return execute_operation(ectx, op, env, features, pending)
            except ExecError as err:
                raised.append((op, err.kind, err.detail))
                raise

        tx = _context_tx(wrap=False)
        outcome, _, tree = run_transaction(env, tx, cfg, 0, execute)
        assert isinstance(outcome, Revert)
        assert outcome.kind == FEATURE_DISABLED
        assert raised == [
            (tx.ops[0], FEATURE_DISABLED, "contexts feature disabled (contextual callee)")
        ]
        assert [(n.op, n.status) for n in tree.nodes] == [(tx.ops[0], STATUS_FAILED)]

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
            by_parent.setdefault(node.parent, []).append(node.id)
        for ids in by_parent.values():
            ordered = sorted(ids)
            assert ordered[-1] - ordered[0] + 1 == len(ordered)

    def test_dfs_descendants_run_before_later_siblings(self, vault_env):
        # lower the threshold so every DFS withdrawal succeeds
        vault = registry.instantiate(
            "bank", PairV(NatV(0), AddressV("bad")), UNIT_VALUE, 20
        )
        env = vault_env.updated({"vault": vault})
        outcome, _, tree = run_transaction(env, _rob_tx(n=2, m=5), DFS, 0)
        assert isinstance(outcome, Commit)
        children = {}
        for node in tree.nodes:
            children.setdefault(node.parent, []).append(node)
        # descendants of an op execute before any later sibling of that op
        def descendants(node_id):
            out = []
            for child in children.get(node_id, []):
                out.append(child.id)
                out.extend(descendants(child.id))
            return out

        for siblings in children.values():
            ordered = sorted(siblings, key=lambda n: n.id)
            for earlier, later in zip(ordered, ordered[1:]):
                for d in descendants(earlier.id):
                    assert d < later.id

    def test_parent_precedes_child(self, vault_env):
        _, _, tree = run_transaction(vault_env, _rob_tx(), BFS, 0)
        # ids are execution order: 0..n-1 in list order
        assert [n.id for n in tree.nodes] == list(range(len(tree.nodes)))
        for node in tree.nodes:
            if node.parent is not None:
                assert node.parent < node.id


def test_view_between_steps_sees_committed_storage():
    # a fixed vault withdrawal: each executor call is handed the environment
    # the previous steps committed, so the compromised counter moves through it
    env = Environment()
    env = env.updated({"owner": registry.implicit_account(10)})
    env = env.updated(
        {
            "vault": registry.instantiate(
                "fixed_bank", PairV(NatV(9), AddressV("owner")), MutezV(0), 15
            )
        }
    )
    tx = SignedTransaction(
        "owner", (Transfer("vault", 0, make_param("withdraw", NatV(5))),)
    )
    views_on = FeatureSet(views=True)
    seen = []

    def execute(ectx, op, env, features, pending):
        seen.append((op.dest, view_storage(env, "vault", views_on), env.get("owner").balance))
        return execute_operation(ectx, op, env, features, pending)

    outcome, _, _ = run_transaction(env, tx, SchedulerConfig(features=views_on), 0, execute)
    assert isinstance(outcome, Commit)
    assert seen == [
        ("vault", MutezV(0), 10),  # withdraw
        ("owner", MutezV(5), 10),  # payout: the storage commit landed first
        ("vault", MutezV(5), 15),  # private settle, after the payout
    ]
    assert view_storage(outcome.env, "vault", views_on) == MutezV(0)


def _mixed_env():
    payer = registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 10)
    env = _context_env().updated({"c": contextual(payer)})
    return env.updated({"fwd": registry.instantiate("forwarder", UNIT_VALUE, NatV(5), 5)})


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


def _flat(queue_state):
    """A rendered queue state with its frame boundaries removed."""
    return queue_state.replace("], [", ", ")


class TestPendingView:
    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_hook_sees_the_queue_behind_the_running_op(self, strategy):
        cfg = SchedulerConfig(
            strategy=strategy,
            features=FeatureSet.from_names(FEATURE_NAMES),
            record_queue_states=True,
        )
        records = []

        def execute(ectx, op, env, features, pending):
            records.append((PendingOp(op, ectx.sender, ectx.restrictions), tuple(pending)))
            return execute_operation(ectx, op, env, features, pending)

        outcome, _, tree = run_transaction(_mixed_env(), _mixed_tx(), cfg, 0, execute)
        assert isinstance(outcome, Commit)
        assert len(records) == sum(n.status == STATUS_EXECUTED for n in tree.nodes)
        # each call's view is the step's recorded queue minus the running op
        assert len(tree.queue_states) == len(records) + 1
        for (head, behind), state in zip(records, tree.queue_states):
            assert render_stack([(head, *behind)]) == _flat(state)
        # the first call, a.pay inside the context frame, sees its frame-mate
        # before the outer frame's three remaining operations
        ops = _mixed_tx().ops
        assert [p.op for p in records[0][1]] == [ops[0].ops[1], *ops[1:]]


def _t(dest, entrypoint="default"):
    """A transfer of 0 calling `entrypoint` without arguments."""
    return Transfer(dest, 0, make_param(entrypoint))


# Emissions of the "script" test code, by (address, entrypoint): each call
# emits the listed operations and keeps its storage.
_SCRIPT = {
    ("x", "default"): (_t("r1"), _t("z"), _t("r2")),
    ("z", "default"): (_t("r3"),),
    ("y", "default"): (_t("r4"), AtomicBundle((_t("r5"), _t("r6"))), _t("r7")),
    ("c", "default"): (_t("r8"), _t("r9")),
    ("w", "default"): (_t("w", "go"), EndInteractions(), _t("w", "go")),
}


def _script_env():
    key = "script_for_test"
    if not registry.is_registered(key):
        registry.register(
            registry.ContractDef(
                key,
                {"default": UNIT, "go": UNIT},
                UNIT,
                UNIT,
                lambda ctx, param, storage: (
                    _SCRIPT.get((ctx.self_addr, param.left.s), ()), storage
                ),
            )
        )
    env = Environment().updated({"user": registry.implicit_account(0)})
    for addr in ("r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "r9"):
        env = env.updated({addr: registry.implicit_account(0)})
    for addr in ("x", "y", "z", "w"):
        env = env.updated({addr: registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)})
    return env.updated({"c": contextual(registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0))})


def _brief(op):
    return render_op_brief(op).replace(".default()", "")


def _run_script(tx, strategy):
    """Run `tx` over the script contracts, recording at every executor call
    the running operation as `sender:op`, the end-of-interactions owner it
    runs under, and the pending view as `sender:op^parent` entries. Returns
    the records and the queue states with `.default()` dropped."""
    cfg = SchedulerConfig(
        strategy=strategy,
        features=FeatureSet(bundles=True, contexts=True, end_interactions=True),
        record_queue_states=True,
    )
    records = []

    def execute(ectx, op, env, features, pending):
        behind = [
            f"{p.sender}:{_brief(p.op)}" + ("" if p.parent is None else f"^{p.parent}")
            for p in pending
        ]
        records.append((f"{ectx.sender}:{_brief(op)}", ectx.end_interactions_owner, behind))
        return execute_operation(ectx, op, env, features, pending)

    outcome, _, tree = run_transaction(_script_env(), tx, cfg, 0, execute)
    assert isinstance(outcome, Commit)
    return records, [state.replace(".default()", "") for state in tree.queue_states]


class TestQueueOrderAcrossRuns:
    """The queue holds whole emissions. These expectations follow the
    placement rules step by step: BFS appends an emission to the head frame,
    DFS and a wrapper put it in front of the rest of the run being consumed,
    and a context or contextual callee opens a frame, which replaces the
    frames drained by then."""

    TX = SignedTransaction("user", (_t("x"), _t("y"), ContextBundle((_t("c"),))))

    def test_dfs(self):
        records, states = _run_script(self.TX, Strategy.DFS)
        assert [(running, behind) for running, _, behind in records] == [
            ("user:x", ["user:y", "user:context{c}"]),
            # x's emission went in front of the rest of the submitted run
            ("x:r1", ["x:z^0", "x:r2^0", "user:y", "user:context{c}"]),
            ("x:z", ["x:r2^0", "user:y", "user:context{c}"]),
            # z's went in front of the rest of x's
            ("z:r3", ["x:r2^0", "user:y", "user:context{c}"]),
            ("x:r2", ["user:y", "user:context{c}"]),
            ("user:y", ["user:context{c}"]),
            ("y:r4", ["y:atomic{r5, r6}^5", "y:r7^5", "user:context{c}"]),
            # node 7 expanded the bundle in front of the rest of y's run
            ("y:r5", ["y:r6^7", "y:r7^5", "user:context{c}"]),
            ("y:r6", ["y:r7^5", "user:context{c}"]),
            ("y:r7", ["user:context{c}"]),
            # node 11 expanded the context; its frame replaced the drained one
            ("user:c", []),
            ("c:r8", ["c:r9^12"]),
            ("c:r9", []),
        ]
        assert states == [
            "[[(user, x), (user, y), (user, context{c})]]",
            "[[(x, r1), (x, z), (x, r2), (user, y), (user, context{c})]]",
            "[[(x, z), (x, r2), (user, y), (user, context{c})]]",
            "[[(z, r3), (x, r2), (user, y), (user, context{c})]]",
            "[[(x, r2), (user, y), (user, context{c})]]",
            "[[(user, y), (user, context{c})]]",
            "[[(y, r4), (y, atomic{r5, r6}), (y, r7), (user, context{c})]]",
            "[[(y, r5), (y, r6), (y, r7), (user, context{c})]]",
            "[[(y, r6), (y, r7), (user, context{c})]]",
            "[[(y, r7), (user, context{c})]]",
            "[[(user, c)]]",
            "[[(c, r8), (c, r9)]]",
            "[[(c, r9)]]",
            "[]",
        ]

    def test_bfs(self):
        records, states = _run_script(self.TX, Strategy.BFS)
        rest = ["x:r1^0", "x:z^0", "x:r2^0", "y:r4^1", "y:atomic{r5, r6}^1", "y:r7^1"]
        assert [(running, behind) for running, _, behind in records] == [
            ("user:x", ["user:y", "user:context{c}"]),
            # x's emission went behind the rest of the submitted run
            ("user:y", ["user:context{c}", "x:r1^0", "x:z^0", "x:r2^0"]),
            # node 2 expanded the context over the undrained head frame
            ("user:c", rest),
            ("c:r8", ["c:r9^3", *rest]),
            ("c:r9", rest),
            ("x:r1", rest[1:]),
            ("x:z", rest[2:]),
            # z's emission went behind y's
            ("x:r2", [*rest[3:], "z:r3^7"]),
            ("y:r4", [*rest[4:], "z:r3^7"]),
            # node 10 expanded the bundle in front of the rest of y's run
            ("y:r5", ["y:r6^10", "y:r7^1", "z:r3^7"]),
            ("y:r6", ["y:r7^1", "z:r3^7"]),
            ("y:r7", ["z:r3^7"]),
            ("z:r3", []),
        ]
        outer = "(x, r1), (x, z), (x, r2), (y, r4), (y, atomic{r5, r6}), (y, r7)"
        assert states == [
            "[[(user, x), (user, y), (user, context{c})]]",
            "[[(user, y), (user, context{c}), (x, r1), (x, z), (x, r2)]]",
            f"[[(user, c)], [{outer}]]",
            # c's frame replaced the drained context frame: two frames, not three
            f"[[(c, r8), (c, r9)], [{outer}]]",
            f"[[(c, r9)], [{outer}]]",
            f"[[{outer}]]",
            "[[(x, z), (x, r2), (y, r4), (y, atomic{r5, r6}), (y, r7)]]",
            "[[(x, r2), (y, r4), (y, atomic{r5, r6}), (y, r7), (z, r3)]]",
            "[[(y, r4), (y, atomic{r5, r6}), (y, r7), (z, r3)]]",
            "[[(y, r5), (y, r6), (y, r7), (z, r3)]]",
            "[[(y, r6), (y, r7), (z, r3)]]",
            "[[(y, r7), (z, r3)]]",
            "[[(z, r3)]]",
            "[]",
        ]

    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_end_interactions_inside_a_run(self, strategy):
        # The operations after end_interactions in the same run execute
        # under the mode it began.
        tx = SignedTransaction("user", (_t("w"),))
        records, states = _run_script(tx, strategy)
        assert records == [
            ("user:w", None, []),
            ("w:w.go()", None, ["w:end_interactions^0", "w:w.go()^0"]),
            ("w:end_interactions", None, ["w:w.go()^0"]),
            ("w:w.go()", "w", []),
        ]
        assert states == [
            "[[(user, w)]]",
            "[[(w, w.go()), (w, end_interactions), (w, w.go())]]",
            "[[(w, end_interactions), (w, w.go())]]",
            "[[(w, w.go())]]",
            "[]",
        ]


def _check_driver_run(env, tx, cfg, ts):
    """Run `tx` with queue snapshots and a recording `execute` hook, and check
    what holds of every run whatever its outcome. Returns the outcome."""
    cfg = replace(cfg, record_queue_states=True)
    before = copy.deepcopy(env)
    records = []
    returned = []

    def execute(ectx, op, env, features, pending):
        records.append((PendingOp(op, ectx.sender, ectx.restrictions), tuple(pending)))
        out = execute_operation(ectx, op, env, features, pending)
        returned.append((ectx.sender, op, out.commits))
        return out

    outcome, ts_after, tree = run_transaction(env, tx, cfg, ts, execute)
    assert ts_after == ts + 1
    # the hook observes and changes nothing: a run without it is the same run
    assert run_transaction(env, tx, cfg, ts) == (outcome, ts_after, tree)
    assert [n.id for n in tree.nodes] == list(range(len(tree.nodes)))
    assert all(n.parent is None or n.parent < n.id for n in tree.nodes)
    # the executor decides: the calls that returned are the executed nodes
    assert returned == [
        (n.sender, n.op, n.commits) for n in tree.nodes if n.status == STATUS_EXECUTED
    ]
    executed = sum(n.status == STATUS_EXECUTED for n in tree.nodes)
    failed = [n for n in tree.nodes if n.status == STATUS_FAILED]
    if isinstance(outcome, Commit):
        # one snapshot per executed op, then the empty queue
        assert not failed
        assert len(records) == executed
        assert len(tree.queue_states) == executed + 1
        assert tree.queue_states[-1] == "[]"
        assert validate_conservation(env, outcome.env)
        assert validate_replay(tree, env, outcome.env).ok
    else:
        # a revert leaves its input alone, and only its last node failed
        assert env == before
        assert failed == list(tree.nodes[-1:])
        assert executed <= len(records) <= len(tree.queue_states) <= executed + 1
    # each call's view is the step's recorded queue minus the running op
    for (head, behind), state in zip(records, tree.queue_states):
        assert render_stack([(head, *behind)]) == _flat(state)
    return outcome


class TestDriverOnEveryTransaction:
    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    @pytest.mark.parametrize("path", sorted(glob.glob(str(SCENARIO_DIR / "*.msc"))))
    def test_scenario_transactions(self, path, strategy):
        with open(path, encoding="utf-8") as fh:
            s = parse_scenario(fh.read())
        cfg = scenario_config(s, strategy=strategy)
        env = build_environment(s)
        for ts, tx in enumerate(s.transactions):
            outcome = _check_driver_run(env, tx, cfg, ts)
            if isinstance(outcome, Commit):
                env = outcome.env

    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_generated_transactions(self, strategy):
        env0, gen_cfg = harness.default_universe(7)
        cfg = SchedulerConfig(strategy=strategy)
        outcomes = set()
        for i in range(200):
            tx = harness.gen_transaction(gen_cfg.seed + i, gen_cfg)
            outcomes.add(type(_check_driver_run(env0, tx, cfg, 0)))
        assert outcomes == {Commit, Revert}


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
def test_fanout_at_benchmark_size(strategy):
    entries = 4000
    receivers = [f"r{i}" for i in range(16)]
    env = Environment()
    env = env.updated({"user": registry.implicit_account(1000)})
    env = env.updated(
        {"payer": registry.instantiate("payer", UNIT_VALUE, UNIT_VALUE, 2 * entries)}
    )
    for r in receivers:
        env = env.updated({r: registry.implicit_account(0)})
    dests = ListV(tuple(AddressV(receivers[k % len(receivers)]) for k in range(entries)))
    tx = SignedTransaction("user", (Transfer("payer", 0, make_param("pay", dests, NatV(2))),))
    outcome, _, tree = run_transaction(env, tx, SchedulerConfig(strategy=strategy), 0)
    assert isinstance(outcome, Commit)
    assert validate_conservation(env, outcome.env)
    assert validate_replay(tree, env, outcome.env).ok
    assert len(tree.nodes) == entries + 1
    assert all(n.status == STATUS_EXECUTED for n in tree.nodes)
    assert outcome.env.get("payer").balance == 0
    assert outcome.env.get("r0").balance == 2 * entries // len(receivers)
