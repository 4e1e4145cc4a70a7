"""Seeded inputs and the passes the benchmark times.

Every workload is a fixed unit of work called a *pass*, generated from the
seed. The timed phase repeats passes until its time is up, so each pass does
exactly the same simulated work and must yield exactly the same simulated
statistics (executed operations, reverts per kind, state digest).

- fanout: one ``payer.pay`` call per transaction fanning out to thousands of
  transfers over a tiny ledger; transactions alternate BFS and DFS.
- block:  a ``.msc`` scenario over a large ledger with the paper's cast and
  a seeded mix of short transactions, folded like ``run_block`` and exported
  like ``chainsim run --trace``.
- fuzz:   ``harness.fuzz`` over the default universe, one iteration per call.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from chainsim import harness, scenario
from chainsim.core import render_value
from chainsim.executor import execute_operation
from chainsim.scheduler import (
    Commit,
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_transaction,
)
from chainsim.trace import (
    STATUS_EXECUTED,
    STATUS_EXPANDED,
    tree_to_json,
    validate_conservation,
    validate_no_double_spend,
    validate_replay,
)

WORKLOADS = ("fanout", "block", "fuzz")

# `chainsim fuzz` defaults to --seed 7. The fuzz workload keeps that universe
# and lets the run seed choose the stream of iteration seeds. Universes whose
# demonic contract re-enters itself spend most of their time in 10,001-op
# fuel-exhausted transactions (fan-out work, which `fanout` measures), and
# their throughput differs tenfold from seed to seed.
FUZZ_UNIVERSE_SEED = 7


@dataclass(frozen=True)
class Sizes:
    fanout_entries: int = 4000
    fanout_receivers: int = 16
    fanout_txs: int = 2
    block_accounts: int = 10_000
    block_txs: int = 1000
    fuzz_iterations: int = 1000
    # Set-up is repeated and its median reported.
    setup_repeats: dict = field(
        default_factory=lambda: {"fanout": 7, "block": 5, "fuzz": 101}
    )
    # Traced-run scaling probes: fan-out lengths, and ledger sizes for the
    # block mix (with the number of block transactions run at each size).
    scaling_entries: tuple = (1000, 4000)
    scaling_accounts: tuple = (100, 10_000)
    scaling_txs: int = 300


FULL = Sizes()


# ---------------------------------------------------------------------------
# Input generation: text for fanout/block, iteration seeds for fuzz
# ---------------------------------------------------------------------------


def fanout_text(seed: int, sizes: Sizes, entries: Optional[int] = None) -> str:
    rng = random.Random(f"fanout-{seed}")
    entries = entries or sizes.fanout_entries
    receivers = [f"r{i}" for i in range(sizes.fanout_receivers)]
    rng.shuffle(receivers)
    amounts = [rng.randint(1, 3) for _ in range(sizes.fanout_txs)]
    lines = [
        'scenario "fanout"',
        "account @user balance 1000",
        f"contract @payer code payer config unit storage unit balance {sum(amounts) * entries}",
    ]
    lines += [f"account @{r} balance {rng.randint(0, 100)}" for r in sorted(receivers)]
    for m in amounts:
        start = rng.randrange(len(receivers))
        dests = ", ".join(
            f"@{receivers[(start + k) % len(receivers)]}" for k in range(entries)
        )
        lines.append(f"transaction from @user {{ transfer 0 to @payer call pay([{dests}], {m}) }}")
    return "\n".join(lines) + "\n"


OBSERVED_MOVE = 25
FWD_BALANCE = 3000
FWD2_BALANCE = 2000


def block_text(seed: int, accounts: int, txs: int) -> str:
    rng = random.Random(f"block-{seed}-{accounts}")
    users = [f"u{i}" for i in range(accounts)]
    lines = ['scenario "block"']
    lines += [f"account @{u} balance {rng.randint(500, 5000)}" for u in users]
    lines += [
        "contract @vault code bank config (pair 9 @bad) storage unit balance 5000",
        "contract @fvault code fixed_bank config (pair 9 @client) storage mutez 0 balance 5000",
        "contract @bad code bad config @vault storage unit balance 0",
        "contract @client code good_client config @fvault storage unit balance 0",
        f"contract @fwd code forwarder config unit storage {FWD_BALANCE} balance {FWD_BALANCE}",
        f"contract @fwd2 code forwarder config unit storage {FWD2_BALANCE} balance {FWD2_BALANCE}",
        "contract @obs code observer config"
        f" (pair @fwd (pair @fwd2 (pair {FWD_BALANCE + FWD2_BALANCE} {OBSERVED_MOVE})))"
        " storage false balance 0",
        "strategy bfs",
        "features views pending_balance restrictions bundles contexts",
    ]

    def user() -> str:
        return rng.choice(users)

    def amt(hi: int = 50) -> int:
        return rng.randint(1, hi)

    kinds = {
        "transfer": 45,
        "multi": 5,
        "vault_deposit": 5,
        "rob": 8,
        "withdraw": 3,
        "ask_money": 8,
        "fvault_deposit": 3,
        "invoke": 8,
        "fwd_deposit": 3,
        "atomic": 6,
        "context": 5,
        "block": 4,
        "allow": 3,
        "observe": 6,
    }
    names, weights = zip(*kinds.items())
    for _ in range(txs):
        kind = rng.choices(names, weights)[0]
        author = user()
        if kind == "transfer":
            ops = [f"transfer {amt()} to @{user()}"]
        elif kind == "multi":
            ops = [f"transfer {amt()} to @{user()}" for _ in range(rng.randint(2, 3))]
        elif kind == "vault_deposit":
            ops = [f"transfer {amt(200)} to @vault call deposit()"]
        elif kind == "rob":
            ops = [f"transfer 0 to @bad call rob({rng.randint(1, 3)}, {amt(40)})"]
        elif kind == "withdraw":
            author = "bad"
            ops = [f"transfer 0 to @vault call withdraw({amt(40)})"]
        elif kind == "ask_money":
            ops = [f"transfer 0 to @client call askMoney({amt(40)})"]
        elif kind == "fvault_deposit":
            ops = [f"transfer {amt(200)} to @fvault call deposit()"]
        elif kind == "invoke":
            ops = [f"transfer {amt()} to @fwd call invoke(@{user()}, {amt(80)})"]
        elif kind == "fwd_deposit":
            ops = [f"transfer {amt()} to @fwd2"]
        elif kind == "atomic":
            ops = [f"atomic {{ transfer {amt()} to @{user()} transfer {amt()} to @{user()} }}"]
        elif kind == "context":
            ops = [
                f"context {{ transfer 0 to @bad call rob(2, {amt(20)}) }}",
                f"transfer {amt()} to @{user()}",
            ]
        elif kind == "block":
            dest, banned = user(), user()
            if rng.random() < 0.3:
                banned = dest
            ops = [f"block [@{banned}] {{ transfer {amt()} to @{dest} }}"]
        elif kind == "allow":
            allowed = [user(), user()]
            dest = rng.choice(allowed) if rng.random() < 0.7 else user()
            ops = [f"allow [@{allowed[0]} @{allowed[1]}] {{ transfer {amt()} to @{dest} }}"]
        else:  # observe: a payout pending behind an observer's view reads
            ops = [
                f"transfer 0 to @fwd call invoke(@fwd2, {OBSERVED_MOVE})",
                "transfer 0 to @obs call check()",
            ]
        lines.append(f"transaction from @{author} {{ {' '.join(ops)} }}")
    return "\n".join(lines) + "\n"


def fuzz_base_seed(seed: int) -> int:
    """First iteration seed of a fuzz pass; disjoint streams per run seed."""
    return seed * 1_000_003


# ---------------------------------------------------------------------------
# Set-up: generated input -> runnable state
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    env: object
    txs: list  # list of (SignedTransaction, SchedulerConfig)
    gen_cfg: object = None  # fuzz only


def setup_scenario(text: str, span: Callable = None, alternate: bool = False) -> Prepared:
    """Parse, validate, build the environment and compile the transactions.
    With `alternate`, even transactions run BFS and odd ones DFS."""
    span = span or _call
    s = span("scenario.parse", scenario.parse_scenario, text)
    span("scenario.validate", scenario.validate_scenario, s)
    env = span("scenario.build_env", scenario.build_environment, s)

    def compile_all():
        return [
            SignedTransaction(t.author, tuple(scenario.compile_op(op) for op in t.ops))
            for t in s.transactions
        ]

    txs = span("scenario.compile", compile_all)
    bfs = scenario.scenario_config(s)
    dfs = dataclasses.replace(bfs, strategy=Strategy.DFS)
    cfgs = [dfs if alternate and i % 2 else bfs for i in range(len(txs))]
    return Prepared(env, list(zip(txs, cfgs)))


def setup_fuzz(seed: int) -> Prepared:
    env, gen_cfg = harness.default_universe(FUZZ_UNIVERSE_SEED)
    return Prepared(env, [], dataclasses.replace(gen_cfg, seed=fuzz_base_seed(seed)))


def _call(_name, fn, *args):
    return fn(*args)


def make_inputs(workload: str, seed: int, sizes: Sizes) -> str:
    if workload == "fanout":
        return fanout_text(seed, sizes)
    if workload == "block":
        return block_text(seed, sizes.block_accounts, sizes.block_txs)
    return ""


def setup(workload: str, seed: int, inputs: str, span: Callable = None) -> Prepared:
    if workload == "fuzz":
        return setup_fuzz(seed)
    return setup_scenario(inputs, span, alternate=workload == "fanout")


# ---------------------------------------------------------------------------
# Simulated statistics
# ---------------------------------------------------------------------------


@dataclass
class Stats:
    """Simulated statistics of one pass; two runs of the same pass must agree
    exactly."""

    transactions: int = 0
    executed: int = 0
    expanded: int = 0
    reverts: collections.Counter = field(default_factory=collections.Counter)
    violations: int = 0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256, repr=False)

    def add_tree(self, outcome, tree) -> None:
        self.transactions += 1
        for node in tree.nodes:
            if node.status == STATUS_EXECUTED:
                self.executed += 1
            elif node.status == STATUS_EXPANDED:
                self.expanded += 1
        if isinstance(outcome, Revert):
            self.reverts[outcome.kind] += 1
            self._digest.update(f"revert {outcome.kind}\n".encode())
        else:
            self._digest.update(b"commit\n")

    def add_env(self, env) -> None:
        for addr in sorted(env.accounts):
            c = env.accounts[addr]
            self._digest.update(f"{addr} {c.balance} {render_value(c.storage)}\n".encode())

    def summary(self) -> dict:
        return {
            "transactions": self.transactions,
            "executed": self.executed,
            "expanded": self.expanded,
            "reverts": dict(sorted(self.reverts.items())),
            "violations": self.violations,
            "digest": self._digest.hexdigest(),
        }


def compare_stats(label: str, got: dict, want: dict) -> list[str]:
    """One line per statistic that differs."""
    return [
        f"{label}: {key} is {got.get(key)!r}, expected {want[key]!r}"
        for key in want
        if got.get(key) != want[key]
    ]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    stats: Stats
    elapsed_s: float
    latencies_s: list
    failures: list  # human-readable failure lines


def _run_one(env, tx, cfg, ts, run_tx, failures):
    try:
        return run_tx(env, tx, cfg, ts)
    except Exception as err:  # noqa: BLE001 - any escape is a counted failure
        failures.append(f"tx {ts}: {type(err).__name__}: {err}")
        return None


def scenario_pass(
    prep: Prepared,
    to_json: bool,
    validate: bool = False,
    run_tx: Callable = run_transaction,
    to_json_fn: Callable = tree_to_json,
) -> PassResult:
    """Fold the prepared transactions left to right as run_block does,
    timing each one; optionally export each tree and validate each commit."""
    stats, failures, latencies = Stats(), [], []
    env = prep.env
    clock = time.perf_counter
    elapsed = 0.0
    for ts, (tx, cfg) in enumerate(prep.txs):
        t0 = clock()
        result = _run_one(env, tx, cfg, ts, run_tx, failures)
        if result is not None and to_json:
            to_json_fn(result[2])
        dt = clock() - t0
        elapsed += dt
        latencies.append(dt)
        if result is None:
            continue
        outcome, _, tree = result
        stats.add_tree(outcome, tree)
        if isinstance(outcome, Commit):
            if validate:
                failures += validate_commit(ts, tree, env, outcome.env)
            env = outcome.env
    stats.add_env(env)
    return PassResult(stats, elapsed, latencies, failures)


def validate_commit(ts, tree, before, after) -> list[str]:
    out = []
    if not validate_conservation(before, after):
        out.append(f"tx {ts}: conservation violated")
    if not validate_no_double_spend(tree, before, after).ok:
        out.append(f"tx {ts}: double spend")
    if not validate_replay(tree, before, after).ok:
        out.append(f"tx {ts}: replay mismatch")
    return out


def fuzz_pass(
    prep: Prepared, iterations: int, execute: Callable = execute_operation
) -> PassResult:
    """`chainsim fuzz` one iteration per call, so each iteration is timed."""
    stats, failures, latencies = Stats(), [], []
    clock = time.perf_counter
    elapsed = 0.0
    base = prep.gen_cfg.seed
    for i in range(iterations):
        cfg = dataclasses.replace(prep.gen_cfg, seed=base + i)
        t0 = clock()
        try:
            report = harness.fuzz(prep.env, cfg, 1, execute=execute)
        except Exception as err:  # noqa: BLE001 - any escape is a counted failure
            failures.append(f"iteration {base + i}: {type(err).__name__}: {err}")
            report = None
        dt = clock() - t0
        elapsed += dt
        latencies.append(dt)
        stats.transactions += 1
        if report is not None and report.violations:
            stats.violations += len(report.violations)
            failures += [f"seed {v.seed}: {v.invariant} violated" for v in report.violations]
    return PassResult(stats, elapsed, latencies, failures)


class CountingExecute:
    """execute= hook that counts operations the executor completed."""

    def __init__(self) -> None:
        self.ok = 0

    def __call__(self, *args):
        outcome = execute_operation(*args)
        self.ok += 1
        return outcome


def fuzz_stats(transactions, violations: int) -> Stats:
    """Statistics of fuzz iterations from their (outcome, tree) pairs."""
    stats = Stats(violations=violations)
    for outcome, tree in transactions:
        stats.add_tree(outcome, tree)
        if isinstance(outcome, Commit):
            stats.add_env(outcome.env)
    return stats


def fuzz_reference(prep: Prepared, iterations: int) -> PassResult:
    """Untimed fuzz pass that yields the pass's simulated statistics.

    The executed-operation count comes from a counting execute= hook passed
    into fuzz; reverts and the digest come from replaying each generated
    transaction through run_transaction, whose executed-node count must agree
    with the hook's.
    """
    counter = CountingExecute()
    result = fuzz_pass(prep, iterations, execute=counter)
    base = prep.gen_cfg.seed
    replayed = []
    for i in range(iterations):
        tx = harness.gen_transaction(base + i, prep.gen_cfg)
        outcome, _, tree = run_transaction(prep.env, tx, SchedulerConfig(), 0)
        replayed.append((outcome, tree))
    result.stats = fuzz_stats(replayed, result.stats.violations)
    if result.stats.executed != counter.ok:
        result.failures.append(
            f"execute hook counted {counter.ok} operations, trace trees {result.stats.executed}"
        )
    return result


def run_pass(workload: str, prep: Prepared, sizes: Sizes) -> PassResult:
    if workload == "fuzz":
        return fuzz_pass(prep, sizes.fuzz_iterations)
    return scenario_pass(prep, to_json=workload == "block")


def reference_pass(workload: str, prep: Prepared, sizes: Sizes) -> PassResult:
    """The untimed, validated pass run before timing."""
    if workload == "fuzz":
        return fuzz_reference(prep, sizes.fuzz_iterations)
    return scenario_pass(prep, to_json=workload == "block", validate=True)


def shipped_scenarios(root) -> tuple[int, list[str]]:
    """Run every scenarios/*.msc under its declared settings.
    Returns (transactions attempted, failure lines)."""
    paths = sorted((root / "scenarios").glob("*.msc"))
    if not paths:
        raise FileNotFoundError(f"no scenarios under {root / 'scenarios'}")
    attempted, failures = 0, []
    for path in paths:
        try:
            outcome = scenario.run_scenario(scenario.load_scenario(str(path)))
        except Exception as err:  # noqa: BLE001 - any escape is a counted failure
            attempted += 1
            failures.append(f"{path.name}: {type(err).__name__}: {err}")
            continue
        attempted += len(outcome.trees)
        failures += [
            f"{path.name}: {r.label}: {r.actual}" for r in outcome.results if not r.ok
        ]
    return attempted, failures
