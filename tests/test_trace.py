import json

import pytest

from chainsim.core import (
    AddressV,
    AtomicBundle,
    ContextBundle,
    CreateContract,
    DEFAULT_PARAM,
    EndInteractions,
    Environment,
    NatV,
    Restricted,
    Transfer,
    UNIT,
    UNIT_VALUE,
    make_param,
    render_value,
)
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim import registry
from chainsim.executor import execute_operation
from chainsim.harness import check_transaction, default_universe, gen_transaction
from chainsim.scenario import build_environment, parse_scenario, scenario_config
from chainsim.scheduler import (
    Commit,
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_block,
    run_transaction,
)
from chainsim.trace import (
    TraceNode,
    TransactionTree,
    node_to_json,
    tree_to_json,
    validate_atomic_bundles,
    validate_conservation,
    validate_replay,
)
from conftest import SCENARIO_DIR

BFS = SchedulerConfig(strategy=Strategy.BFS)
DFS = SchedulerConfig(strategy=Strategy.DFS)


def _rob_tx():
    return SignedTransaction(
        "owner", (Transfer("bad", 0, make_param("rob", NatV(3), NatV(5))),)
    )


@pytest.fixture
def attack_run(vault_env):
    outcome, _, tree = run_transaction(vault_env, _rob_tx(), BFS, 0)
    assert isinstance(outcome, Commit)
    return vault_env, outcome.env, tree


class TestConservation:
    def test_commit_conserves(self, attack_run):
        before, after, _ = attack_run
        assert validate_conservation(before, after)

    def test_revert_trivially_conserves(self, vault_env):
        assert validate_conservation(vault_env, vault_env)

    def test_fault_injected_mint_fails(self, vault_env):
        minted = vault_env.updated({"bad": registry.implicit_account(1)})
        assert not validate_conservation(vault_env, minted)


def _bundle_tx(ops):
    return SignedTransaction("user", (AtomicBundle(tuple(ops)),))


def _bundle_env():
    from chainsim.core import AddressV, Environment

    env = Environment()
    env = env.updated({"user": registry.implicit_account(50)})
    env = env.updated({"r": registry.implicit_account(0)})
    env = env.updated({"r2": registry.implicit_account(0)})
    env = env.updated(
        {"fwd": registry.instantiate("forwarder", UNIT_VALUE, NatV(20), 20)}
    )
    return env


class TestAtomicBundles:
    def test_single_op_bundle_passes(self):
        env = _bundle_env()
        cfg = SchedulerConfig(features=FeatureSet(bundles=True))
        tx = _bundle_tx([Transfer("r", 1, make_param("default"))])
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Commit)
        assert validate_atomic_bundles(tree).ok

    def test_bfs_keeps_bundle_contiguous(self):
        from chainsim.core import AddressV

        env = _bundle_env()
        cfg = SchedulerConfig(strategy=Strategy.BFS, features=FeatureSet(bundles=True))
        tx = SignedTransaction(
            "user",
            (
                _bundle_tx(
                    [
                        Transfer("fwd", 0, make_param("invoke", AddressV("r"), NatV(1))),
                        Transfer("r2", 1, make_param("default")),
                    ]
                ).ops[0],
                Transfer("r2", 2, make_param("default")),
            ),
        )
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Commit)
        assert validate_atomic_bundles(tree).ok

    def test_dfs_descendant_interleaving_fails(self):
        from chainsim.core import AddressV

        env = _bundle_env()
        cfg = SchedulerConfig(strategy=Strategy.DFS, features=FeatureSet(bundles=True))
        # the forwarder's sub-call lands between the two bundled operations
        tx = _bundle_tx(
            [
                Transfer("fwd", 0, make_param("invoke", AddressV("r"), NatV(1))),
                Transfer("r2", 1, make_param("default")),
            ]
        )
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Commit)
        report = validate_atomic_bundles(tree)
        assert not report.ok
        assert "interleave" in report.violations[0]

    @pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
    def test_nested_bundles_expand_contiguously(self, strategy):
        env = _bundle_env()
        cfg = SchedulerConfig(
            strategy=strategy, features=FeatureSet(bundles=True, restrictions=True)
        )
        from chainsim.core import Restricted

        inner = AtomicBundle((Transfer("r", 1, make_param("default")),))
        guarded = Restricted((Transfer("r2", 1, make_param("default")),), block=frozenset())
        tx = _bundle_tx([inner, guarded, Transfer("r", 2, make_param("default"))])
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Commit)
        report = validate_atomic_bundles(tree)
        assert report.ok, report.violations

    def test_emission_groups_mode(self, vault_env):
        _, _, bfs_tree = run_transaction(vault_env, _rob_tx(), BFS, 0)
        assert validate_atomic_bundles(bfs_tree, emission_groups=True).ok
        # under DFS the payout splits the withdraw siblings
        from chainsim.core import AddressV, PairV

        vault = registry.instantiate(
            "bank", PairV(NatV(0), AddressV("bad")), UNIT_VALUE, 20
        )
        env = vault_env.updated({"vault": vault})
        outcome, _, dfs_tree = run_transaction(
            env,
            SignedTransaction(
                "owner", (Transfer("bad", 0, make_param("rob", NatV(2), NatV(5))),)
            ),
            DFS,
            0,
        )
        assert isinstance(outcome, Commit)
        assert not validate_atomic_bundles(dfs_tree, emission_groups=True).ok

    @pytest.mark.parametrize("emission_groups", [False, True])
    def test_deep_nesting_is_validated_without_recursion(self, emission_groups):
        # A body emits one transfer inside 3,000 nested bundles: deeper than
        # the interpreter's recursion limit, and quadratic for a validator
        # that recomputes each bundle's span.
        key = "deep_bundles_for_test"
        if not registry.is_registered(key):
            def body(ctx, param, storage):
                op = Transfer("r", 0, make_param("default"))
                for _ in range(3000):
                    op = AtomicBundle((op,))
                return [op], storage

            registry.register(
                registry.ContractDef(key, {"default": UNIT}, UNIT, UNIT, body)
            )
        env = _bundle_env().updated(
            {"deep": registry.instantiate(key, UNIT_VALUE, UNIT_VALUE, 0)}
        )
        cfg = SchedulerConfig(features=FeatureSet(bundles=True))
        tx = SignedTransaction("user", (Transfer("deep", 0, make_param("default")),))
        outcome, _, tree = run_transaction(env, tx, cfg, 0)
        assert isinstance(outcome, Commit)
        assert len(tree.nodes) == 3002
        report = validate_atomic_bundles(tree, emission_groups=emission_groups)
        assert report.ok, report.violations


class TestReplay:
    def test_replay_reproduces_attack(self, attack_run):
        before, after, tree = attack_run
        report = validate_replay(tree, before, after)
        assert report.ok, report.violations
        # exactly three payout debits move the 15 units
        debit_nodes = [
            n for n in tree.nodes
            if any(d < 0 for d in node_to_json(n)["deltas"].values()) and n.sender == "vault"
        ]
        assert len(debit_nodes) == 3

    def test_empty_trace_passes(self, simple_env):
        tree = TransactionTree(nodes=(), outcome="commit", reason=None, ts=0)
        assert validate_replay(tree, simple_env, simple_env).ok

    def test_duplicated_node_fails(self, attack_run):
        # The last node, the vault's third payout to @bad, counted twice.
        before, after, tree = attack_run
        forged = TransactionTree(tree.nodes + (tree.nodes[-1],), "commit", None, tree.ts)
        assert validate_replay(forged, before, after).violations == (
            "@bad: replayed balance 20 != 15",
            "@vault: replayed balance -5 != 0",
        )

    def test_a_reverted_tree_is_refused(self, vault_env):
        tx = SignedTransaction("owner", (Transfer("owner", 101, make_param("default")),))
        outcome, _, tree = run_transaction(vault_env, tx, BFS, 0)
        assert isinstance(outcome, Revert)
        with pytest.raises(ValueError, match="^replay applies to committed transactions$"):
            validate_replay(tree, vault_env, vault_env)

    def test_one_transfer_commit_is_validated_without_reading_every_account(
        self, monkeypatch
    ):
        env = Environment({f"u{i}": registry.implicit_account(5) for i in range(10_000)})
        tx = SignedTransaction("u1", (Transfer("u2", 3, make_param("default")),))
        outcome, _, tree = run_transaction(env, tx, BFS, 0)

        def unread(self):
            raise AssertionError("a validator read every account")

        monkeypatch.setattr(Environment, "accounts", property(unread))
        assert validate_conservation(env, outcome.env)
        assert validate_replay(tree, env, outcome.env).ok

    @pytest.mark.parametrize("accounts", [3, 10_000])
    def test_an_account_no_node_names_fails_replay(self, accounts):
        env = Environment({f"u{i}": registry.implicit_account(5) for i in range(accounts)})

        def add_account(ectx, op, env, features, pending=()):
            out = execute_operation(ectx, op, env, features, pending)
            ghost = out.env_after.updated({"ghost": registry.implicit_account(0)})
            return out._replace(env_after=ghost)

        tx = SignedTransaction("u1", (Transfer("u2", 3, make_param("default")),))
        invariants = ("conservation", "transfer_correctness")
        assert check_transaction(env, tx, BFS, invariants, add_account) == [
            "transfer_correctness"
        ]

    def test_a_create_the_chain_lacks_fails_replay(self):
        # A faulty executor records a create but keeps the chain as it was.
        env = Environment({"u1": registry.implicit_account(5)})

        def lose_creates(ectx, op, env, features, pending=()):
            out = execute_operation(ectx, op, env, features, pending)
            return out._replace(env_after=env) if isinstance(op, CreateContract) else out

        create = CreateContract("fresh", 2, UNIT_VALUE, "receiver", UNIT_VALUE)
        outcome, _, tree = run_transaction(env, SignedTransaction("u1", (create,)), BFS, 0, lose_creates)
        assert isinstance(outcome, Commit)
        assert validate_replay(tree, env, outcome.env).violations == (
            "@fresh: replay creates an address the chain lacks",
            "@u1: replayed balance 3 != 5",
        )

    def test_a_storage_the_trace_misreports_fails_replay(self):
        # A faulty executor records a storage commit the chain never made.
        env = Environment({f"u{i}": registry.implicit_account(5) for i in range(2)})

        def misreport(ectx, op, env, features, pending=()):
            out = execute_operation(ectx, op, env, features, pending)
            return out._replace(commits=tuple((addr, NatV(7)) for addr, _ in out.commits))

        tx = SignedTransaction("u0", (Transfer("u1", 3, make_param("default")),))
        outcome, _, tree = run_transaction(env, tx, BFS, 0, misreport)
        assert isinstance(outcome, Commit)
        assert validate_replay(tree, env, outcome.env).violations == (
            "@u1: replayed storage differs",
        )

    @pytest.mark.parametrize(
        "low, high", [("alice", "bob"), ("a1", "a2"), ("m", "mm"), ("carol", "zed"), ("q0", "q9")]
    )
    def test_violations_on_two_addresses_are_listed_by_address(self, low, high):
        # The trace says `high` paid `low` 5 and gave it a new storage; the
        # chain moved 3 and kept the storage. Several pairs, since a set of
        # two addresses iterates in sorted order about half the time.
        before = Environment({low: registry.implicit_account(10), high: registry.implicit_account(10)})
        after = before.updated({low: registry.implicit_account(13), high: registry.implicit_account(7)})
        node = TraceNode(0, None, high, Transfer(low, 5, DEFAULT_PARAM), commits=((low, NatV(1)),))
        tree = TransactionTree((node,), "commit", None, 0)
        assert validate_replay(tree, before, after).violations == (
            f"@{low}: replayed balance 15 != 13",
            f"@{low}: replayed storage differs",
            f"@{high}: replayed balance 5 != 7",
        )

    def test_wrapper_nodes_carry_no_deltas(self):
        env = _bundle_env()
        cfg = SchedulerConfig(features=FeatureSet(bundles=True))
        tx = _bundle_tx([Transfer("r", 1, make_param("default"))])
        _, _, tree = run_transaction(env, tx, cfg, 0)
        wrappers = [n for n in tree.nodes if type(n.op) is AtomicBundle]
        assert wrappers and all(
            node_to_json(n)["deltas"] == {} and n.commits == () for n in wrappers
        )


def _summed_moves(node):
    """Reference deltas: every debit and credit summed per address, zeros
    dropped, sorted."""
    op = node.op
    if node.status != "executed" or not isinstance(op, (Transfer, CreateContract)):
        return ()
    dest = op.dest if isinstance(op, Transfer) else op.addr
    moves = {}
    moves[node.sender] = moves.get(node.sender, 0) - op.amount
    moves[dest] = moves.get(dest, 0) + op.amount
    return tuple(sorted((a, d) for a, d in moves.items() if d != 0))


_DELTA_OPS = [
    Transfer("b", 3, make_param("default")),
    Transfer("a", 3, make_param("default")),
    Transfer("m", 3, make_param("default")),
    Transfer("b", 0, make_param("default")),
    CreateContract("z", 4, UNIT_VALUE, "receiver", UNIT_VALUE),
    CreateContract("a", 4, UNIT_VALUE, "receiver", UNIT_VALUE),
    CreateContract("c", 0, UNIT_VALUE, "receiver", UNIT_VALUE),
    AtomicBundle((Transfer("b", 3, make_param("default")),)),
    ContextBundle(()),
    Restricted((), allow=frozenset({"b"})),
    EndInteractions(),
]


@pytest.mark.parametrize("status", ["executed", "expanded", "failed"])
@pytest.mark.parametrize("op", _DELTA_OPS, ids=lambda op: type(op).__name__)
def test_deltas_equal_summed_moves(op, status):
    # Senders on both sides of the destination and equal to it.
    for sender in ("a", "m", "z"):
        node = TraceNode(0, None, sender, op, status)
        deltas = node_to_json(node)["deltas"]
        assert type(deltas) is dict
        # The same moves in the same (address) order.
        assert tuple(deltas.items()) == _summed_moves(node)


class TestJson:
    def test_normative_field_names(self, attack_run):
        _, _, tree = attack_run
        payload = tree_to_json(tree)
        assert payload["outcome"] == "commit"
        assert "reason" not in payload
        assert payload["ts"] == 0
        node = payload["nodes"][1]
        for key in ("id", "parent", "seq", "sender", "kind", "dest", "amount", "param", "status", "deltas", "commits"):
            assert key in node
        assert node["kind"] == "transfer"
        assert isinstance(node["deltas"], dict)
        json.dumps(payload)  # serializable

    def test_revert_reason_present(self, vault_env):
        _, _, tree = run_transaction(vault_env, _rob_tx(), DFS, 0)
        payload = tree_to_json(tree)
        assert payload["outcome"] == "revert"
        assert "breaking invariant" in payload["reason"]
        statuses = [n["status"] for n in payload["nodes"]]
        assert statuses.count("failed") == 1


# The reference export's own class -> kind table, so it does not read
# `core.OP_KINDS`, which `node_to_json` reads.
_KINDS = {
    Transfer: "transfer",
    CreateContract: "create",
    EndInteractions: "end_interactions",
    AtomicBundle: "atomic",
    ContextBundle: "context",
    Restricted: "restricted",
}


def _reference_node(node):
    """A node exported from `_KINDS`, the summed moves of `_summed_moves` and
    `render_value`, field by field, as `node_to_json` once built it."""
    op = node.op
    kind = _KINDS[type(op)]
    commits = {addr: render_value(value) for addr, value in node.commits}
    head = {"id": node.id, "parent": node.parent, "seq": node.id, "sender": node.sender}
    tail = {"status": node.status, "deltas": dict(_summed_moves(node)), "commits": commits}
    if kind == "transfer":
        dest, param = op.dest, op.param
    elif kind == "create":
        dest, param = op.addr, op.storage
    else:
        return {**head, "kind": kind, **tail}
    moved = {"dest": dest, "amount": op.amount, "param": render_value(param)}
    return {**head, "kind": kind, **moved, **tail}


def _reference_tree(tree):
    out = {"outcome": tree.outcome}
    if tree.reason is not None:
        out["reason"] = tree.reason
    out["ts"] = tree.ts
    out["nodes"] = [_reference_node(n) for n in tree.nodes]
    return out


def _assert_exported_as_reference(trees):
    for tree in trees:
        # Text equality: the same keys in the same order, the same values.
        assert json.dumps(tree_to_json(tree)) == json.dumps(_reference_tree(tree))


@pytest.mark.parametrize("strategy", [Strategy.BFS, Strategy.DFS])
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.msc")), ids=lambda p: p.stem)
def test_shipped_scenario_trees_export_as_the_reference(path, strategy):
    s = parse_scenario(path.read_text(encoding="utf-8"))
    cfg = scenario_config(s, strategy=strategy)
    _, _, trees = run_block(build_environment(s), s.transactions, cfg, 0)
    _assert_exported_as_reference(trees)


def test_generated_trees_export_as_the_reference():
    # The transactions `chainsim fuzz` runs, under its scheduler settings.
    env, gen_cfg = default_universe(7)
    txs = [gen_transaction(seed, gen_cfg) for seed in range(500)]
    trees = [run_transaction(env, tx, SchedulerConfig(), ts)[2] for ts, tx in enumerate(txs)]
    assert {Transfer, CreateContract} <= {type(n.op) for t in trees for n in t.nodes}
    assert {t.outcome for t in trees} == {"commit", "revert"}
    _assert_exported_as_reference(trees)


def _node(id, parent, sender, kind, status="executed", deltas=None, commits=None, **op):
    """One exported node: `op` holds dest, amount and param when the node
    records a transfer or a create."""
    return {
        "id": id, "parent": parent, "seq": id, "sender": sender, "kind": kind,
        **op, "status": status, "deltas": deltas or {}, "commits": commits or {},
    }


class TestJsonExact:
    """Every key and value of exported nodes, for each node kind."""

    CFG = SchedulerConfig(features=FeatureSet.from_names(FEATURE_NAMES))
    UNIT_CALL = '(pair "default" unit)'

    def _env(self):
        env = Environment()
        env = env.updated({"alice": registry.implicit_account(100)})
        return env.updated({"bob": registry.implicit_account(50)})

    def test_committed_transaction_with_every_node_kind(self):
        ops = (
            ContextBundle(
                (
                    CreateContract("fwd", 2, NatV(5), "forwarder", UNIT_VALUE),
                    Transfer("fwd", 0, make_param("invoke", AddressV("bob"), NatV(1))),
                )
            ),
            AtomicBundle((Transfer("bob", 3, make_param("default")),)),
            Restricted((Transfer("bob", 1, make_param("default")),), allow=frozenset({"bob"})),
            Restricted((EndInteractions(),), block=frozenset({"carol"})),
        )
        outcome, _, tree = run_transaction(
            self._env(), SignedTransaction("alice", ops), self.CFG, 4
        )
        assert isinstance(outcome, Commit)
        call = self.UNIT_CALL
        assert tree_to_json(tree) == {
            "outcome": "commit",
            "ts": 4,
            "nodes": [
                _node(0, None, "alice", "context", "expanded"),
                _node(1, 0, "alice", "create", dest="fwd", amount=2, param="5",
                      deltas={"alice": -2, "fwd": 2}, commits={"fwd": "5"}),
                _node(2, 0, "alice", "transfer", dest="fwd", amount=0,
                      param='(pair "invoke" (pair @bob 1))', commits={"fwd": "4"}),
                _node(3, 2, "fwd", "transfer", dest="bob", amount=1, param=call,
                      deltas={"bob": 1, "fwd": -1}, commits={"bob": "unit"}),
                _node(4, None, "alice", "atomic", "expanded"),
                _node(5, 4, "alice", "transfer", dest="bob", amount=3, param=call,
                      deltas={"alice": -3, "bob": 3}, commits={"bob": "unit"}),
                _node(6, None, "alice", "restricted", "expanded"),
                _node(7, 6, "alice", "transfer", dest="bob", amount=1, param=call,
                      deltas={"alice": -1, "bob": 1}, commits={"bob": "unit"}),
                _node(8, None, "alice", "restricted", "expanded"),
                _node(9, 8, "alice", "end_interactions"),
            ],
        }

    def test_reverting_transaction_ends_in_a_failed_transfer(self):
        ops = (
            Transfer("bob", 1, make_param("default")),
            Transfer("bob", 1000, make_param("default")),
        )
        outcome, _, tree = run_transaction(
            self._env(), SignedTransaction("alice", ops), self.CFG, 5
        )
        assert isinstance(outcome, Revert)
        call = self.UNIT_CALL
        assert tree_to_json(tree) == {
            "outcome": "revert",
            "reason": "insufficient_balance: @alice holds 99, cannot send 1000",
            "ts": 5,
            "nodes": [
                _node(0, None, "alice", "transfer", dest="bob", amount=1, param=call,
                      deltas={"alice": -1, "bob": 1}, commits={"bob": "unit"}),
                _node(1, None, "alice", "transfer", "failed", dest="bob", amount=1000,
                      param=call),
            ],
        }
