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


def _gen_param(rng: random.Random, code_key: str, cfg: GenConfig) -> Value:
    addrs = [a for a, _ in cfg.universe]
    small = lambda: rng.randint(0, cfg.amount_bound)  # noqa: E731
    if code_key in ("bank", "fixed_bank"):
        which = rng.randrange(3)
        if which == 0:
            return make_param("deposit")
        if which == 1:
            return make_param("withdraw", NatV(small()))
        return make_param("default")
    if code_key == "good_client":
        return make_param("askMoney", NatV(small()))
    if code_key == "bad":
        return make_param("rob", NatV(rng.randint(1, 3)), NatV(small()))
    if code_key == "forwarder":
        if rng.random() < 0.7:
            return make_param("invoke", AddressV(rng.choice(addrs)), NatV(small()))
        return make_param("default")
    return make_param("default")


def gen_transaction(seed: int, cfg: GenConfig) -> SignedTransaction:
    """Generate one well-formed transaction over the universe. Same seed and
    config always produce the identical transaction."""
    if not cfg.universe:
        raise ValueError("generation universe is empty")
    rng = random.Random(seed)
    addrs = [a for a, _ in cfg.universe]
    author = rng.choice(addrs)
    ops: list[Operation] = []
    for _ in range(rng.randint(0, cfg.max_ops_per_tx)):
        if cfg.code_keys and rng.random() < 0.1:
            ops.append(
                CreateContract(
                    addr=f"spawn{rng.randrange(1_000_000_000)}",
                    amount=rng.randint(0, cfg.amount_bound),
                    storage=UNIT_VALUE,
                    code_key=rng.choice(list(cfg.code_keys)),
                    config=UNIT_VALUE,
                )
            )
        else:
            dest, code_key = cfg.universe[rng.randrange(len(cfg.universe))]
            ops.append(
                Transfer(dest, rng.randint(0, cfg.amount_bound), _gen_param(rng, code_key, cfg))
            )
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
    "no_double_spend",
    "revert_totality",
    "transfer_correctness",
    "sibling_contiguity",
)

DEFAULT_INVARIANTS = (
    "conservation",
    "no_double_spend",
    "revert_totality",
    "transfer_correctness",
)


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
        if "conservation" in invariants and not validate_conservation(env0, outcome.env):
            failed.append("conservation")
        if (
            "no_double_spend" in invariants
            and not validate_no_double_spend(tree, env0, outcome.env).ok
        ):
            failed.append("no_double_spend")
        if (
            "transfer_correctness" in invariants
            and not validate_replay(tree, env0, outcome.env).ok
        ):
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
    for name in invariants:
        if name not in INVARIANT_NAMES:
            raise ValueError(f"unknown invariant: {name!r}")
    sched_cfg = sched_cfg or SchedulerConfig()
    violations: list[FuzzViolation] = []
    for i in range(n):
        it_seed = cfg.seed + i
        tx = gen_transaction(it_seed, cfg)
        for inv in check_transaction(env0, tx, sched_cfg, tuple(invariants), execute):
            shrunk = _shrink(env0, tx, sched_cfg, inv, execute)
            violations.append(
                FuzzViolation(it_seed, inv, reproduction_scenario(env0, shrunk, sched_cfg))
            )
    return FuzzReport(n, tuple(violations))
