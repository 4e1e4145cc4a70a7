"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with `pytest -s` or in captured
output). Tolerances are exact equality or zero-violation counts throughout;
criterion 5 additionally enforces its 30 second budget.
"""

import random
import subprocess
import sys
import time

from chainsim.core import (
    AddressV,
    Environment,
    NatV,
    PairV,
    Transfer,
    UNIT_VALUE,
    make_param,
)
from chainsim.executor import ExecError, execute_operation
from chainsim.features import FeatureSet
from chainsim.harness import default_universe, fuzz
from chainsim import registry
from chainsim.scenario import (
    ScenarioParseError,
    parse_scenario,
    print_scenario,
    run_scenario,
)
from chainsim.scheduler import (
    Commit,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_transaction,
)
from chainsim.trace import validate_atomic_bundles

from conftest import GOLDEN_DIR, scenario_path, scenario_text
from scenario_gen import random_scenario
from test_scenario import MALFORMED


def _report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


PAPER_QUEUE_STATES = (
    "[[(bad, vault.withdraw(5)), (bad, vault.withdraw(5)), (bad, vault.withdraw(5))]]",
    "[[(bad, vault.withdraw(5)), (bad, vault.withdraw(5)), (vault, bad.default())]]",
    "[[(bad, vault.withdraw(5)), (vault, bad.default()), (vault, bad.default())]]",
    "[[(vault, bad.default()), (vault, bad.default()), (vault, bad.default())]]",
    "[[(vault, bad.default()), (vault, bad.default())]]",
    "[[(vault, bad.default())]]",
    "[]",
)


def test_criterion_1_vault_bfs_attack():
    out = run_scenario(
        parse_scenario(scenario_text("vault_bfs_attack.msc")),
        record_queue_states=True,
    )
    ok = out.passed
    ok = ok and out.env_after.get("vault").balance == 0
    ok = ok and out.env_after.get("bad").balance == 15
    # the printed queue evolution contains exactly the seven trace states
    states = out.trees[0].queue_states
    ok = ok and states[1:] == PAPER_QUEUE_STATES
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "chainsim",
            "run",
            str(scenario_path("vault_bfs_attack.msc")),
            "--step",
        ],
        capture_output=True,
        text=True,
    )
    golden = (GOLDEN_DIR / "vault_step.txt").read_text(encoding="utf-8")
    ok = ok and proc.returncode == 0 and proc.stdout == golden
    printed = [line.strip() for line in proc.stdout.splitlines()]
    positions = []
    for state in PAPER_QUEUE_STATES:
        positions.append(printed.index(state))
    ok = ok and positions == sorted(positions)
    _report(1, "vault BFS attack extracts 15, golden 7-state trace", ok)


def test_criterion_2_dfs_contrast():
    s = parse_scenario(scenario_text("vault_bfs_attack.msc"))
    out = run_scenario(s, strategy=Strategy.DFS)
    tree = out.trees[0]
    ok = tree.outcome == "revert"
    ok = ok and out.env_after == out.env_before
    ok = ok and out.env_after.get("vault").balance == 15
    ok = ok and out.env_after.get("bad").balance == 0
    ok = ok and out.ts == 1
    _report(2, "DFS reverts bit-identically, time still advances", ok)


def test_criterion_3_fixed_vault_defense():
    attack = parse_scenario(scenario_text("fixed_vault_attack.msc"))
    ok = True
    for strategy in (Strategy.BFS, Strategy.DFS):
        out = run_scenario(attack, strategy=strategy)
        ok = ok and out.passed and out.env_after.get("vault").balance == 15
    withdraw = parse_scenario(scenario_text("fixed_vault_withdraw.msc"))
    for strategy in (Strategy.BFS, Strategy.DFS):
        out = run_scenario(withdraw, strategy=strategy)
        ok = ok and out.passed and out.env_after.get("vault").balance == 10
    _report(3, "fixed vault refuses rob(3,5) both ways, allows one withdraw", ok)


def test_criterion_4_transfer_correctness():
    env = Environment()
    env = env.updated("alice", registry.implicit_account(500))
    env = env.updated("bob", registry.implicit_account(200))
    env = env.updated(
        "fwd", registry.instantiate("forwarder", UNIT_VALUE, NatV(100), 100)
    )
    env = env.updated(
        "vault",
        registry.instantiate("bank", PairV(NatV(9), AddressV("bob")), UNIT_VALUE, 50),
    )
    rng = random.Random(80_86)
    violations = 0
    cases = 0
    features = FeatureSet()
    while cases < 1000:
        cases += 1
        caller = rng.choice(["alice", "bob"])
        kind = rng.randrange(3)
        if kind == 0:
            callee, send = "bob" if caller == "alice" else "alice", rng.randrange(0, 300)
            param, expected_storage = make_param("default"), UNIT_VALUE
        elif kind == 1:
            callee, send = "fwd", rng.randrange(0, 300)
            param, expected_storage = make_param("default"), NatV(100 + send)
        else:
            # guaranteed body failure: withdrawal by a non-owner
            callee, send = "vault", 0
            caller = "alice"
            param, expected_storage = make_param("withdraw", NatV(5)), None
        before = {a: env.get(a).balance for a in env.accounts}
        try:
            out = execute_operation(
                _ectx(caller), Transfer(callee, send, param), env, features
            )
        except ExecError:
            after = {a: env.get(a).balance for a in env.accounts}
            if after != before:
                violations += 1
            continue
        after = {a: out.env_after.get(a).balance for a in out.env_after.accounts}
        for addr in after:
            delta = after[addr] - before[addr]
            expected = 0
            if addr == caller:
                expected -= send
            if addr == callee:
                expected += send
            if delta != expected:
                violations += 1
        if expected_storage is not None:
            if out.env_after.get(callee).storage != expected_storage:
                violations += 1
    _report(4, f"transfer correctness over {cases} random cases", violations == 0)


def _ectx(sender):
    from chainsim.core import ExecutionContext

    return ExecutionContext(sender=sender, source=sender)


def test_criterion_5_conservation_and_no_double_spend_fuzz():
    env, cfg = default_universe(7)
    started = time.monotonic()
    report = fuzz(env, cfg, 1000, invariants=("conservation", "no_double_spend"))
    elapsed = time.monotonic() - started
    ok = report.ok and elapsed < 30.0
    _report(
        5,
        f"fuzz seed 7 x1000: conservation + no double spend in {elapsed:.1f}s",
        ok,
    )


CONTEXT_FRAMES = (
    "[[(user, a.pay([@r1, @r2], 1))], [(user, b.default())]]",
    "[[(a, r1.default()), (a, r2.default())], [(user, b.default())]]",
    "[[(a, r2.default())], [(user, b.default())]]",
    "[[(user, b.default())]]",
    "[]",
)


def test_criterion_6_context_semantics():
    s = parse_scenario(scenario_text("context_frames.msc"))
    ok = True
    for strategy in (Strategy.BFS, Strategy.DFS):
        out = run_scenario(s, strategy=strategy, record_queue_states=True)
        ok = ok and out.passed
        ok = ok and out.trees[0].queue_states == CONTEXT_FRAMES
    _report(6, "context frame evolution matches the golden sequence", ok)


def test_criterion_7_views_pending_balance_mismatch():
    s = parse_scenario(scenario_text("pending_mismatch.msc"))
    out = run_scenario(s)
    ok = out.passed
    # negative control: without the payout pending behind the observer (DFS
    # executes it first) the observer's mismatch assertions fail
    dfs = run_scenario(s, strategy=Strategy.DFS)
    ok = ok and dfs.trees[0].outcome == "revert"
    ok = ok and "not reflected" in dfs.trees[0].reason
    _report(7, "observer sees pending debit without pending credit", ok)


def test_criterion_8_bfs_sibling_contiguity():
    env, cfg = default_universe(11)
    report = fuzz(
        env,
        cfg,
        1000,
        invariants=("sibling_contiguity",),
        sched_cfg=SchedulerConfig(strategy=Strategy.BFS),
    )
    ok = report.ok
    # constructed DFS counterexample: the first withdraw's payout lands
    # between the two rob-emitted siblings
    vault_env = Environment()
    vault_env = vault_env.updated("owner", registry.implicit_account(10))
    vault_env = vault_env.updated(
        "vault",
        registry.instantiate("bank", PairV(NatV(0), AddressV("bad")), UNIT_VALUE, 20),
    )
    vault_env = vault_env.updated(
        "bad", registry.instantiate("bad", AddressV("vault"), UNIT_VALUE, 0)
    )
    tx = SignedTransaction(
        "owner", (Transfer("bad", 0, make_param("rob", NatV(2), NatV(5))),)
    )
    outcome, _, tree = run_transaction(
        vault_env, tx, SchedulerConfig(strategy=Strategy.DFS), 0
    )
    ok = ok and isinstance(outcome, Commit)
    ok = ok and not validate_atomic_bundles(tree, emission_groups=True).ok
    _report(8, "BFS emission groups contiguous x1000, DFS counterexample fails", ok)


def test_criterion_9_restrictions():
    ok = True
    # blocked-address invocation reverts the transaction
    blocked = run_scenario(parse_scenario(scenario_text("restrictions_block.msc")))
    ok = ok and blocked.passed

    # nested allow-sets only shrink: 500 random narrowing chains of
    # `Restricted` wrappers, outermost first. For each address, a transfer
    # nested in the whole chain commits exactly when every wrapper permits it.
    from chainsim.core import Restricted

    addrs = tuple(f"n{i}" for i in range(10))
    chain_env = Environment()
    for name in ("u", *addrs):
        chain_env = chain_env.updated(name, registry.implicit_account(10))
    chain_cfg = SchedulerConfig(features=FeatureSet(restrictions=True))
    rng = random.Random(905)
    shrink_violations = 0
    nesting_violations = 0
    for _ in range(500):
        chain = ()
        passing = set(addrs)
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.5:
                wrapper = Restricted(allow=frozenset(rng.sample(addrs, rng.randrange(0, 10))))
            else:
                wrapper = Restricted(block=frozenset(rng.sample(addrs, rng.randrange(0, 4))))
            chain += (wrapper,)
            now = {a for a in addrs if all(w.permits(a) for w in chain)}
            if not now <= passing:
                shrink_violations += 1
            passing = now
        for addr in addrs:
            nested = (Transfer(addr, 1, make_param("default")),)
            for w in reversed(chain):
                nested = (Restricted(nested, allow=w.allow, block=w.block),)
            outcome, _, _ = run_transaction(
                chain_env, SignedTransaction("u", nested), chain_cfg, 0
            )
            committed = isinstance(outcome, Commit)
            if committed != (addr in passing):
                nesting_violations += 1
            if not committed and outcome.kind != "restriction_violation":
                nesting_violations += 1
    ok = ok and shrink_violations == 0 and nesting_violations == 0

    # after end_interactions only owner self-calls are permitted: 500 cases
    env = Environment()
    for name in ("a", "b", "c"):
        env = env.updated(name, registry.implicit_account(1000))
    cfg = SchedulerConfig(features=FeatureSet(end_interactions=True))
    end_violations = 0
    from chainsim.core import EndInteractions

    for case in range(500):
        case_rng = random.Random(7000 + case)
        ops = [Transfer(case_rng.choice("abc"), 1, make_param("default"))]
        ops.append(EndInteractions())
        tail = [
            Transfer(case_rng.choice("abc"), 1, make_param("default"))
            for _ in range(case_rng.randrange(1, 4))
        ]
        ops.extend(tail)
        should_commit = all(op.dest == "a" for op in tail)
        outcome, _, _ = run_transaction(
            env, SignedTransaction("a", tuple(ops)), cfg, 0
        )
        committed = isinstance(outcome, Commit)
        if committed != should_commit:
            end_violations += 1
        if not committed and outcome.kind != "end_interactions_violation":
            end_violations += 1
    ok = ok and end_violations == 0
    _report(9, "restrictions: block reverts, allow shrinks, end mode owner-only", ok)


def test_criterion_10_parser_round_trip_and_errors():
    import glob

    from conftest import SCENARIO_DIR

    ok = True
    for path in sorted(glob.glob(str(SCENARIO_DIR / "*.msc"))):
        with open(path, encoding="utf-8") as fh:
            s = parse_scenario(fh.read())
        ok = ok and parse_scenario(print_scenario(s)) == s
    rng = random.Random(314159)
    for _ in range(500):
        s = random_scenario(rng)
        ok = ok and parse_scenario(print_scenario(s)) == s
    for text, line, col, expected, found in MALFORMED:
        try:
            parse_scenario(text)
            ok = False
        except ScenarioParseError as err:
            ok = ok and (err.line, err.column) == (line, col)
            ok = ok and expected in err.expected and found in err.found
    _report(10, "round-trip on fixtures + 500 random; 10 golden parse errors", ok)
