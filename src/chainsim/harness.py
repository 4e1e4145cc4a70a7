"""Randomized trace generation and invariant fuzzing.

Generation is a pure function of (seed, config). The generator is Python's
random.Random (Mersenne Twister; its integer/choice methods are stable across
CPython releases for a fixed seed). Iteration i of a fuzz run uses seed
base_seed + i against the same starting environment, so a failing seed re-run
alone reproduces its violation; iterations are independent of each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from . import registry
from .core import (
    UNIT_VALUE,
    AddressV,
    Contract,
    CreateContract,
    DEFAULT_PARAM,
    Environment,
    NatV,
    Operation,
    PairV,
    StringV,
    Transfer,
    Value,
    make_param,
)
from .executor import execute_operation
from .scenario import ContractDecl, Scenario, print_scenario
from .scheduler import (
    Commit,
    SchedulerConfig,
    SignedTransaction,
    run_transaction,
)
from .trace import (
    commit_findings,
    validate_atomic_bundles,
    validate_conservation,
    validate_no_double_spend,
    validate_replay,
)


@dataclass(frozen=True)
class GenConfig:
    """Deterministic generation parameters. `universe` pairs each invocable
    address with its code key so generated parameters fit the callee."""

    seed: int
    universe: tuple[tuple[str, str], ...]
    code_keys: tuple[str, ...] = ("receiver",)
    max_ops_per_tx: int = 4
    amount_bound: int = 16


# ---------------------------------------------------------------------------
# Transaction generation
# ---------------------------------------------------------------------------


_DEPOSIT = make_param("deposit")


def _gen_param(rng: random.Random, code_key: str, universe: tuple, bound: int) -> Value:
    """A parameter that fits `code_key`. `bound` is the amount bound plus one:
    `randrange(bound)` is the draw `randint(0, amount_bound)` makes."""
    if code_key in ("bank", "fixed_bank"):
        which = rng.randrange(3)
        if which == 0:
            return _DEPOSIT
        if which == 1:
            return make_param("withdraw", NatV(rng.randrange(bound)))
        return DEFAULT_PARAM
    if code_key == "good_client":
        return make_param("askMoney", NatV(rng.randrange(bound)))
    if code_key == "bad":
        return make_param("rob", NatV(rng.randrange(1, 4)), NatV(rng.randrange(bound)))
    if code_key == "forwarder" and rng.random() < 0.7:
        return make_param("invoke", AddressV(rng.choice(universe)[0]), NatV(rng.randrange(bound)))
    return DEFAULT_PARAM


def gen_transaction(seed: int, cfg: GenConfig) -> SignedTransaction:
    """Generate one well-formed transaction over the universe. Same seed and
    config always produce the identical transaction."""
    universe, code_keys, bound = cfg.universe, cfg.code_keys, cfg.amount_bound + 1
    if not universe:
        raise ValueError("generation universe is empty")
    if cfg.max_ops_per_tx < 0:
        raise ValueError(f"max_ops_per_tx is negative: {cfg.max_ops_per_tx}")
    if bound < 1:
        raise ValueError(f"amount_bound is negative: {cfg.amount_bound}")
    rng = random.Random(seed)
    # `choice(seq)` draws the same index as `randrange(len(seq))`.
    author = rng.choice(universe)[0]
    ops: list[Operation] = []
    for _ in range(rng.randrange(cfg.max_ops_per_tx + 1)):
        if code_keys and rng.random() < 0.1:
            addr, amount = f"spawn{rng.randrange(1_000_000_000)}", rng.randrange(bound)
            ops.append(CreateContract(addr, amount, UNIT_VALUE, rng.choice(code_keys), UNIT_VALUE))
        else:
            dest, code_key = rng.choice(universe)
            amount = rng.randrange(bound)
            ops.append(Transfer(dest, amount, _gen_param(rng, code_key, universe, bound)))
    return SignedTransaction(author, tuple(ops))


# ---------------------------------------------------------------------------
# Default fuzzing universe
# ---------------------------------------------------------------------------


def default_universe(seed: int) -> tuple[Environment, GenConfig]:
    """The standard cast wired together: a vault, a good client, an attacker,
    a forwarder, receivers, and a demonic contract salted with the seed."""
    pairs_nat_addr = PairV(NatV(10), AddressV("client"))
    entries = (
        ("alice", registry.instantiate("receiver", UNIT_VALUE, UNIT_VALUE, 100)),
        ("bob", registry.instantiate("receiver", UNIT_VALUE, UNIT_VALUE, 80)),
        ("vault", registry.instantiate("bank", pairs_nat_addr, UNIT_VALUE, 50)),
        ("client", registry.instantiate("good_client", AddressV("vault"), UNIT_VALUE, 20)),
        ("bad", registry.instantiate("bad", AddressV("vault"), UNIT_VALUE, 30)),
        ("fwd", registry.instantiate("forwarder", UNIT_VALUE, NatV(40), 40)),
        ("imp", registry.instantiate("demonic", StringV(str(seed)), UNIT_VALUE, 10)),
    )
    universe = tuple((addr, contract.code_key) for addr, contract in entries)
    return Environment(dict(entries)), GenConfig(seed=seed, universe=universe)


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

INVARIANT_NAMES = (
    "conservation",
    "revert_totality",
    "transfer_correctness",
    "sibling_contiguity",
)

DEFAULT_INVARIANTS = (
    "conservation",
    "revert_totality",
    "transfer_correctness",
)

# `check_transaction` reads `commit_findings` itself. These validators stay
# names of this module because perfbench's traced runs wrap them here.
_TRACED_VALIDATORS = (validate_conservation, validate_no_double_spend, validate_replay)

# Frozen, so every run without a scheduler configuration shares it.
_DEFAULT_SCHEDULER = SchedulerConfig()


class FuzzViolation(NamedTuple):
    """A seed whose iteration broke an invariant, and a scenario reproducing
    it; `FuzzReport.to_json_dict` writes these fields as they are."""

    seed: int
    invariant: str
    scenario: str


class FuzzReport(NamedTuple):
    """What a fuzz run checked and every violation it found."""

    iterations: int
    violations: tuple[FuzzViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"iterations": self.iterations, "violations": [v._asdict() for v in self.violations]}


def check_transaction(
    env0: Environment,
    tx: SignedTransaction,
    sched_cfg: SchedulerConfig,
    invariants: tuple[str, ...],
    execute=execute_operation,
) -> list[str]:
    """Run one transaction from env0 and return the invariants it violates."""
    # Every account and value is an immutable record, so a contract's
    # identity shows whether a faulty executor replaced it.
    snapshot = dict(env0.accounts) if "revert_totality" in invariants else None
    outcome, _, tree = run_transaction(env0, tx, sched_cfg, 0, execute)
    failed: list[str] = []
    if isinstance(outcome, Commit):
        # One walk and one ledger diff decide both; each verdict is the `ok`
        # of its public validator.
        net, replays = commit_findings(tree.nodes, env0, outcome.env)
        if net and "conservation" in invariants:
            failed.append("conservation")
        if replays and "transfer_correctness" in invariants:
            failed.append("transfer_correctness")
    else:
        if snapshot is not None and not _unchanged(env0, snapshot):
            failed.append("revert_totality")
    if (
        "sibling_contiguity" in invariants
        and not validate_atomic_bundles(tree, emission_groups=True).ok
    ):
        failed.append("sibling_contiguity")
    return failed


def _unchanged(env: Environment, snapshot: dict[str, Contract]) -> bool:
    accounts = env.accounts
    return accounts.keys() == snapshot.keys() and all(
        accounts[addr] is c for addr, c in snapshot.items()
    )


def _shrink(
    env0: Environment,
    tx: SignedTransaction,
    sched_cfg: SchedulerConfig,
    invariant: str,
    execute,
) -> SignedTransaction:
    """Greedy op removal while the violation persists."""

    def still_fails(candidate: SignedTransaction) -> bool:
        return invariant in check_transaction(
            env0, candidate, sched_cfg, (invariant,), execute
        )

    ops = list(tx.ops)
    improved = True
    while improved and len(ops) > 1:
        improved = False
        for k in range(len(ops)):
            candidate = SignedTransaction(tx.author, tuple(ops[:k] + ops[k + 1 :]))
            if still_fails(candidate):
                ops = list(candidate.ops)
                improved = True
                break
    return SignedTransaction(tx.author, tuple(ops))


def reproduction_scenario(
    env0: Environment, tx: SignedTransaction, sched_cfg: SchedulerConfig
) -> str:
    """Print a standalone scenario reproducing `tx` against `env0`."""
    decls = tuple(
        ContractDecl(addr, c.code_key, c.config, c.storage, c.balance, c.contextual)
        for addr, c in sorted(env0.accounts.items())
    )
    return print_scenario(Scenario("reproduction", decls, (tx,), (), sched_cfg))


def fuzz(
    env0: Environment,
    cfg: GenConfig,
    n: int,
    invariants: tuple[str, ...] = DEFAULT_INVARIANTS,
    sched_cfg: SchedulerConfig | None = None,
    execute=execute_operation,
) -> FuzzReport:
    """Run n generated transactions from env0 and validate each against the
    selected invariants. Violations carry the failing seed plus a minimized,
    parseable reproduction scenario."""
    if n < 1:
        raise ValueError("fuzz needs at least one iteration")
    names = () if isinstance(invariants, str) else tuple(invariants)
    if not names:
        raise ValueError(f"fuzz needs a tuple of invariant names to check, not {invariants!r}")
    for name in names:
        if name not in INVARIANT_NAMES:
            raise ValueError(f"unknown invariant: {name!r}")
    sched_cfg = sched_cfg or _DEFAULT_SCHEDULER
    violations: list[FuzzViolation] = []
    for i in range(n):
        it_seed = cfg.seed + i
        tx = gen_transaction(it_seed, cfg)
        for inv in check_transaction(env0, tx, sched_cfg, names, execute):
            shrunk = _shrink(env0, tx, sched_cfg, inv, execute)
            violations.append(
                FuzzViolation(it_seed, inv, reproduction_scenario(env0, shrunk, sched_cfg))
            )
    return FuzzReport(n, tuple(violations))
