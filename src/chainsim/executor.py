"""Execute a single operation in a context against an environment.

The executor is pure: given identical inputs it returns an identical
ExecOutcome or raises an identical ExecError, and it never mutates its input
environment. Failure therefore leaves no partial debit or credit anywhere;
the scheduler reverts the whole transaction on any ExecError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import registry
from .core import (
    AmountError,
    CallContext,
    Contract,
    CreateContract,
    EndInteractions,
    Environment,
    ExecutionContext,
    Operation,
    PairV,
    PendingOp,
    StringV,
    Transfer,
    Value,
    WRAPPER_OPS,
    amount_add,
    value_typecheck,
)
from .features import FeatureSet, end_mode_permits, restrictions_permit
from .registry import ContractFail

# Error kinds. Each kind identifies the precondition that failed.
UNKNOWN_ADDRESS = "unknown_address"
TYPE_MISMATCH = "type_mismatch"
INSUFFICIENT_BALANCE = "insufficient_balance"
ADDRESS_OCCUPIED = "address_occupied"
CONTRACT_FAILURE = "contract_failure"
RESTRICTION_VIOLATION = "restriction_violation"
END_INTERACTIONS_VIOLATION = "end_interactions_violation"
UNKNOWN_CODE_KEY = "unknown_code_key"
FEATURE_DISABLED = "feature_disabled"
FUEL_EXHAUSTED = "fuel_exhausted"
OVERFLOW = "overflow"
CONTRACT_CRASH = "contract_crash"


class ExecError(Exception):
    """An operation could not execute; aborts (reverts) the transaction."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


@dataclass(frozen=True)
class ExecOutcome:
    """Successful execution: who emitted, what was emitted (verbatim, in body
    order; ordering is the scheduler's job), and the updated environment."""

    emitter: str
    emitted: tuple[Operation, ...]
    env_after: Environment


# The operations still queued behind the one executing, head frame first. The
# scheduler passes a lazy view of its live queue: it may be iterated any number
# of times, but only while the execute call it was passed to runs.
QueueSnapshot = Iterable[PendingOp]


def view_storage(env: Environment, addr: str, features: FeatureSet) -> Value:
    """Synchronous effect-free read of another contract's current storage."""
    if not features.views:
        raise ExecError(FEATURE_DISABLED, "views feature disabled")
    contract = env.get(addr)
    if contract is None:
        raise ExecError(UNKNOWN_ADDRESS, f"view of absent address @{addr}")
    return contract.storage


def _pending_debits(pending: QueueSnapshot, addr: str) -> int:
    def debits(op: Operation, sender: str) -> int:
        if isinstance(op, Transfer):
            return op.amount if sender == addr else 0
        if isinstance(op, WRAPPER_OPS):
            return sum(debits(inner, sender) for inner in op.ops)
        return 0

    return sum(debits(p.op, p.sender) for p in pending)


def pending_balance(
    env: Environment, addr: str, pending: QueueSnapshot, features: FeatureSet
) -> int:
    """Balance of `addr` minus its emitted-but-unexecuted outgoing transfers.

    Pending incoming transfers are not added, so an observer sees the
    compromised balance of a sender but not the receiver's pending credit.
    May be negative; returns a signed mutez count. `pending` is read when this
    is called: a contract body's `pending_balance` capability sees the queue
    of the call it was given to, and is valid only while that call runs.
    """
    if not features.pending_balance:
        raise ExecError(FEATURE_DISABLED, "pending_balance feature disabled")
    contract = env.get(addr)
    if contract is None:
        raise ExecError(UNKNOWN_ADDRESS, f"pending balance of absent address @{addr}")
    return contract.balance - _pending_debits(pending, addr)


def _call_context(
    ectx: ExecutionContext,
    dest: str,
    amount: int,
    credited: Contract,
    env: Environment,
    features: FeatureSet,
    pending: QueueSnapshot,
) -> CallContext:
    return CallContext(
        self_addr=dest,
        sender=ectx.sender,
        source=ectx.source,
        amount=amount,
        self_balance=credited.balance,
        level=ectx.level,
        config=credited.config,
        features=features,
        view=lambda a: view_storage(env, a, features),
        pending_balance=lambda a: pending_balance(env, a, pending, features),
    )


def _check_emitted(dest: str, emitted: Iterable[object]) -> None:
    """Revert unless every emitted item, wrapper members included, is a core
    operation."""
    todo = list(emitted)
    while todo:
        item = todo.pop()
        if isinstance(item, WRAPPER_OPS):
            todo.extend(item.ops)
        elif not isinstance(item, (Transfer, CreateContract, EndInteractions)):
            raise ExecError(
                CONTRACT_CRASH, f"@{dest} emitted {type(item).__name__}, not an operation"
            )


def _check_call(dest: str, defn: registry.ContractDef, param: Value) -> None:
    """Revert unless `param` is (name, arg) with `name` one of the callee's
    declared entrypoints and `arg` of that entrypoint's type."""
    if not (isinstance(param, PairV) and isinstance(param.left, StringV)):
        raise ExecError(TYPE_MISMATCH, f"@{dest} expects an (entrypoint, argument) pair")
    name = param.left.s
    if name not in defn.entrypoints:
        raise ExecError(TYPE_MISMATCH, f"@{dest} does not declare entrypoint {name!r}")
    if not value_typecheck(param.right, defn.entrypoints[name]):
        raise ExecError(TYPE_MISMATCH, f"argument does not fit @{dest}'s {name!r} entrypoint")


def _execute_transfer(
    ectx: ExecutionContext,
    op: Transfer,
    env: Environment,
    features: FeatureSet,
    pending: QueueSnapshot,
) -> ExecOutcome:
    if not restrictions_permit(ectx.restrictions, op.dest):
        raise ExecError(
            RESTRICTION_VIOLATION, f"@{op.dest} is outside the allowed universe"
        )
    if not end_mode_permits(ectx.end_interactions_owner, ectx.sender, op.dest):
        raise ExecError(
            END_INTERACTIONS_VIOLATION,
            f"end-of-interactions mode permits only @{ectx.end_interactions_owner} self-calls",
        )
    sender_c = env.get(ectx.sender)
    if sender_c is None:
        raise ExecError(UNKNOWN_ADDRESS, f"sender @{ectx.sender} is not on chain")
    if sender_c.balance < op.amount:
        raise ExecError(
            INSUFFICIENT_BALANCE,
            f"@{ectx.sender} holds {sender_c.balance}, cannot send {op.amount}",
        )
    dest_c = env.get(op.dest)
    if dest_c is None:
        raise ExecError(UNKNOWN_ADDRESS, f"destination @{op.dest} is not on chain")
    try:
        defn = registry.resolve(dest_c.code_key)
    except registry.RegistryError:
        raise ExecError(
            UNKNOWN_CODE_KEY, f"@{op.dest} references code {dest_c.code_key!r}"
        ) from None
    _check_call(op.dest, defn, op.param)

    # Funds move now, at execution time; the emission that produced this op
    # moved nothing. The callee body observes its balance with the incoming
    # amount already credited.
    env1 = env.updated(ectx.sender, sender_c.with_balance(sender_c.balance - op.amount))
    dest_mid = env1.get(op.dest)
    assert dest_mid is not None
    try:
        credited = dest_mid.with_balance(amount_add(dest_mid.balance, op.amount))
    except AmountError:
        raise ExecError(OVERFLOW, f"credit overflows @{op.dest}") from None
    env2 = env1.updated(op.dest, credited)

    cctx = _call_context(ectx, op.dest, op.amount, credited, env2, features, pending)
    try:
        result = defn.body(cctx, op.param, credited.storage)
        if not (isinstance(result, tuple) and len(result) == 2):
            raise ExecError(
                CONTRACT_CRASH,
                f"@{op.dest} returned {type(result).__name__}, not (operations, storage)",
            )
        ops, new_storage = result
        emitted = tuple(ops)
    except ExecError:
        raise
    except ContractFail as failure:
        raise ExecError(CONTRACT_FAILURE, failure.message) from None
    except AmountError as err:
        raise ExecError(OVERFLOW, f"@{op.dest} overflows: {err}") from None
    except Exception as err:
        # A body is foreign code: whatever else it raises reverts, typed.
        raise ExecError(
            CONTRACT_CRASH, f"@{op.dest} raised {type(err).__name__}: {err}"
        ) from None
    _check_emitted(op.dest, emitted)
    try:
        stored = credited.with_storage(new_storage)
    except ValueError:
        raise ExecError(TYPE_MISMATCH, f"@{op.dest} returned ill-typed storage") from None

    # Storage commits before any emitted operation runs.
    env3 = env2.updated(op.dest, stored)
    return ExecOutcome(emitter=op.dest, emitted=emitted, env_after=env3)


def _execute_create(
    ectx: ExecutionContext, op: CreateContract, env: Environment
) -> ExecOutcome:
    if op.addr in env:
        raise ExecError(ADDRESS_OCCUPIED, f"@{op.addr} is not free")
    sender_c = env.get(ectx.sender)
    if sender_c is None:
        raise ExecError(UNKNOWN_ADDRESS, f"sender @{ectx.sender} is not on chain")
    if sender_c.balance < op.amount:
        raise ExecError(
            INSUFFICIENT_BALANCE,
            f"@{ectx.sender} holds {sender_c.balance}, cannot endow {op.amount}",
        )
    try:
        contract = registry.instantiate(op.code_key, op.config, op.storage, op.amount)
    except registry.RegistryError as err:
        if registry.is_registered(op.code_key):
            raise ExecError(TYPE_MISMATCH, str(err)) from None
        raise ExecError(UNKNOWN_CODE_KEY, f"no code registered as {op.code_key!r}") from None
    env1 = env.updated(ectx.sender, sender_c.with_balance(sender_c.balance - op.amount))
    env2 = env1.updated(op.addr, contract)
    return ExecOutcome(emitter=ectx.sender, emitted=(), env_after=env2)


def _execute_end_interactions(
    ectx: ExecutionContext, env: Environment, features: FeatureSet
) -> ExecOutcome:
    if not features.end_interactions:
        raise ExecError(
            END_INTERACTIONS_VIOLATION, "end_interactions feature disabled"
        )
    owner = ectx.end_interactions_owner
    if owner is not None and owner != ectx.sender:
        raise ExecError(
            END_INTERACTIONS_VIOLATION,
            f"mode already owned by @{owner}",
        )
    return ExecOutcome(emitter=ectx.sender, emitted=(), env_after=env)


def execute_operation(
    ectx: ExecutionContext,
    op: Operation,
    env: Environment,
    features: FeatureSet,
    pending: QueueSnapshot = (),
) -> ExecOutcome:
    """Run one executable operation, returning the outcome or raising ExecError.

    Bundle and restriction wrappers never reach the executor; the scheduler
    expands them first.
    """
    if isinstance(op, Transfer):
        return _execute_transfer(ectx, op, env, features, pending)
    if isinstance(op, CreateContract):
        return _execute_create(ectx, op, env)
    if isinstance(op, EndInteractions):
        return _execute_end_interactions(ectx, env, features)
    raise TypeError(f"wrapper operations are scheduler business: {op!r}")
