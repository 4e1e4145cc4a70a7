"""Randomized trace generation and invariant fuzzing.

Generation is a pure function of (seed, config). The generator is Python's
random.Random (Mersenne Twister; its integer/choice methods are stable across
CPython releases for a fixed seed). Iteration i of a fuzz run uses seed
base_seed + i against the same starting environment, so a failing seed re-run
alone reproduces its violation; iterations are independent of each other.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from . import registry
from .core import (
    UNIT,
    UNIT_VALUE,
    AddressV,
    Contract,
    CreateContract,
    Environment,
    NatV,
    Operation,
    PairV,
    Transfer,
    Value,
    make_param,
    render_value,
)
from .executor import execute_operation
from .registry import ContractDef, ContractFail
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
class DemonicProfile:
    """Behavior weights for synthesized adversarial contracts. All zero means
    a do-nothing body (receiver-equivalent)."""

    emit_transfers: int = 0
    reentrant_callback: int = 0
    create_contract: int = 0
    fail_by_seed: int = 0

    @property
    def total(self) -> int:
        return (
            self.emit_transfers
            + self.reentrant_callback
            + self.create_contract
            + self.fail_by_seed
        )


DEFAULT_DEMONIC_PROFILE = DemonicProfile(
    emit_transfers=3, reentrant_callback=3, create_contract=2, fail_by_seed=2
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


def _stable_hash(*parts: object) -> int:
    digest = hashlib.blake2b(
        "|".join(str(p) for p in parts).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


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
# Demonic contracts
# ---------------------------------------------------------------------------


def gen_demonic_contract(seed: int, profile: DemonicProfile) -> ContractDef:
    """Synthesize a deterministic adversarial contract body.

    The behavior on each invocation is drawn from the profile weights using a
    stable hash of the call inputs, so randomness is frozen at generation time
    and the body stays a pure function.
    """
    p = profile
    key = (
        f"demonic_{seed}_{p.emit_transfers}_{p.reentrant_callback}"
        f"_{p.create_contract}_{p.fail_by_seed}"
    )
    receive = make_param("default")

    def body(ctx, param: Value, storage: Value):
        if p.total == 0:
            return [], storage
        h = _stable_hash(
            seed, ctx.sender, ctx.amount, render_value(param), render_value(storage)
        )
        pick = h % p.total
        if pick < p.emit_transfers:
            count = 1 + (h >> 8) % 2
            amount = (h >> 16) % 3
            return [Transfer(ctx.sender, amount, receive)] * count, storage
        pick -= p.emit_transfers
        if pick < p.reentrant_callback:
            return [Transfer(ctx.sender, 0, receive)], storage
        pick -= p.reentrant_callback
        if pick < p.create_contract:
            spawn = CreateContract(
                addr=f"spawn{h % 1_000_000_000}",
                amount=0,
                storage=UNIT_VALUE,
                code_key="receiver",
                config=UNIT_VALUE,
            )
            return [spawn], storage
        raise ContractFail(f"demonic refusal {h % 97}")

    return ContractDef(
        code_key=key,
        entrypoints={"default": UNIT},
        storage_type=UNIT,
        config_type=UNIT,
        body=body,
    )


def ensure_registered(defn: ContractDef) -> ContractDef:
    """Register unless an identically keyed def already exists (generation is
    deterministic, so an existing key means the same def)."""
    if not registry.is_registered(defn.code_key):
        registry.register(defn)
    return defn


# ---------------------------------------------------------------------------
# Default fuzzing universe
# ---------------------------------------------------------------------------


def default_universe(
    seed: int, profile: DemonicProfile = DEFAULT_DEMONIC_PROFILE
) -> tuple[Environment, GenConfig]:
    """The standard cast wired together: a vault, a good client, an attacker,
    a forwarder, receivers, and one demonic contract derived from the seed."""
    demonic = ensure_registered(gen_demonic_contract(seed, profile))
    pairs_nat_addr = PairV(NatV(10), AddressV("client"))
    entries = (
        ("alice", registry.instantiate("receiver", UNIT_VALUE, UNIT_VALUE, 100)),
        ("bob", registry.instantiate("receiver", UNIT_VALUE, UNIT_VALUE, 80)),
        ("vault", registry.instantiate("bank", pairs_nat_addr, UNIT_VALUE, 50)),
        ("client", registry.instantiate("good_client", AddressV("vault"), UNIT_VALUE, 20)),
        ("bad", registry.instantiate("bad", AddressV("vault"), UNIT_VALUE, 30)),
        ("fwd", registry.instantiate("forwarder", UNIT_VALUE, NatV(40), 40)),
        ("imp", registry.instantiate(demonic.code_key, UNIT_VALUE, UNIT_VALUE, 10)),
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


@dataclass(frozen=True)
class FuzzViolation:
    seed: int
    invariant: str
    scenario: str


@dataclass(frozen=True)
class FuzzReport:
    iterations: int
    violations: tuple[FuzzViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "violations": [
                {"seed": v.seed, "invariant": v.invariant, "scenario": v.scenario}
                for v in self.violations
            ],
        }


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
