"""Execute a single operation in a context against an environment.

The executor is pure: given identical inputs it returns an identical
ExecOutcome or raises an identical ExecError, and it never mutates its input
environment. Failure therefore leaves no partial debit or credit anywhere;
the scheduler reverts the whole transaction on any ExecError.

Every check of an executable operation against the feature flags, the
restrictions (each `Restricted` wrapper around a transfer must permit its
destination) and the end-of-interactions mode is made here, and the outcome
says what the operation changed, so the scheduler only orders the queue.
What a contract body raises, while it runs or while its emissions are
drawn, reverts with a kind: `ContractFail` is `contract_failure`,
`AmountError` `overflow`, and any other `Exception`, `SystemExit` or
`GeneratorExit` is `contract_crash`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import registry
from .core import (
    FEATURE_DISABLED,
    MAX_MUTEZ,
    OP_KINDS,
    UNKNOWN_ADDRESS,
    WRAPPER_OPS,
    AmountError,
    CallContext,
    CreateContract,
    EndInteractions,
    Environment,
    ExecError,
    ExecutionContext,
    Operation,
    PairV,
    PendingOp,
    StringV,
    Transfer,
    Value,
    _new_tuple,
    value_typecheck,
    walk_ops,
)
from .features import FeatureSet
from .registry import ContractFail

# Error kinds. Each kind identifies the precondition that failed. The two a
# contract body's reads of the chain can raise, UNKNOWN_ADDRESS and
# FEATURE_DISABLED, live in `core` with `ExecError`.
TYPE_MISMATCH = "type_mismatch"
INSUFFICIENT_BALANCE = "insufficient_balance"
ADDRESS_OCCUPIED = "address_occupied"
CONTRACT_FAILURE = "contract_failure"
RESTRICTION_VIOLATION = "restriction_violation"
END_INTERACTIONS_VIOLATION = "end_interactions_violation"
UNKNOWN_CODE_KEY = "unknown_code_key"
FUEL_EXHAUSTED = "fuel_exhausted"
OVERFLOW = "overflow"
CONTRACT_CRASH = "contract_crash"


class ExecOutcome(NamedTuple):
    """Successful execution: who emitted, what was emitted (verbatim, in body
    order; ordering is the scheduler's job), the updated environment, the
    `(address, storage)` pairs the trace records as committed, and whether
    the emissions run in a fresh queue frame (a contextual callee's)."""

    emitter: str
    emitted: tuple[Operation, ...]
    env_after: Environment
    commits: tuple[tuple[str, Value], ...]
    opens_frame: bool


# The operations still queued behind the one executing, head frame first. The
# scheduler passes a lazy view of its live queue: it may be iterated any number
# of times, but only while the execute call it was passed to runs.
QueueSnapshot = Iterable[PendingOp]


_EXECUTABLE_OPS = frozenset(OP_KINDS).difference(WRAPPER_OPS)


def _check_emitted(dest: str, emitted: Iterable[object]) -> None:
    """Revert unless every emitted item, wrapper members included, is an
    instance of one of the core operation classes themselves: the scheduler
    and the trace know those classes and no subclass of them. An emission
    of executable classes only has no members to walk."""
    if _EXECUTABLE_OPS.issuperset(map(type, emitted)):
        return
    for _, item in walk_ops(emitted):
        if type(item) not in OP_KINDS:
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
    for wrapper in ectx.restrictions:
        if not wrapper.permits(op.dest):
            raise ExecError(
                RESTRICTION_VIOLATION, f"@{op.dest} is outside the allowed universe"
            )
    owner = ectx.end_interactions_owner
    if owner is not None and not (ectx.sender == owner and op.dest == owner):
        raise ExecError(
            END_INTERACTIONS_VIOLATION,
            f"end-of-interactions mode permits only @{owner} self-calls",
        )
    sender = ectx.sender
    dest = op.dest
    amount = op.amount
    sender_c = env.get(sender)
    if sender_c is None:
        raise ExecError(UNKNOWN_ADDRESS, f"sender @{sender} is not on chain")
    if sender_c.balance < amount:
        raise ExecError(
            INSUFFICIENT_BALANCE,
            f"@{sender} holds {sender_c.balance}, cannot send {amount}",
        )
    dest_c = env.get(dest)
    if dest_c is None:
        raise ExecError(UNKNOWN_ADDRESS, f"destination @{dest} is not on chain")
    try:
        defn = registry.resolve(dest_c.code_key)
    except registry.RegistryError:
        raise ExecError(
            UNKNOWN_CODE_KEY, f"@{dest} references code {dest_c.code_key!r}"
        ) from None
    _check_call(dest, defn, op.param)

    # Funds move now, at execution time; the emission that produced this op
    # moved nothing. The callee body observes its balance with the incoming
    # amount already credited. Both amounts are in range by the checks made
    # here: the debit leaves at least 0, and a credit that would pass
    # MAX_MUTEZ reverts. A self-transfer credits the debited contract.
    debited = sender_c.moved(sender_c.balance - amount)
    if dest == sender:
        dest_c = debited
    if dest_c.balance > MAX_MUTEZ - amount:
        raise ExecError(OVERFLOW, f"credit overflows @{dest}")
    credited = dest_c.moved(dest_c.balance + amount)
    env2 = env.updated({sender: debited, dest: credited})

    # The two hidden slots, env and pending, then every field in order:
    # self_addr, sender, source, amount, self_balance, level, config,
    # features. Built as `Contract.moved` builds its copies, without a
    # constructor call.
    cctx = _new_tuple(
        CallContext,
        (
            env2, pending, dest, ectx.sender, ectx.source, amount,
            credited.balance, ectx.level, credited.config, features,
        ),
    )
    try:
        result = defn.body(cctx, op.param, credited.storage)
        # Values and operations are tuples underneath, but never a result.
        if not (isinstance(result, tuple) and len(result) == 2) or (
            type(result) is not tuple and isinstance(result, (Value, Operation))
        ):
            raise ExecError(
                CONTRACT_CRASH,
                f"@{dest} returned {type(result).__name__}, not (operations, storage)",
            )
        ops, new_storage = result
        emitted = tuple(ops)
    except ExecError:
        raise
    except ContractFail as failure:
        raise ExecError(CONTRACT_FAILURE, failure.message) from None
    except AmountError as err:
        raise ExecError(OVERFLOW, f"@{dest} overflows: {err}") from None
    except (Exception, SystemExit, GeneratorExit) as err:
        # A body is foreign code: whatever else it raises reverts, typed. A
        # KeyboardInterrupt, like any other BaseException, reaches the caller.
        raise ExecError(
            CONTRACT_CRASH, f"@{dest} raised {type(err).__name__}: {err}"
        ) from None
    if emitted:
        _check_emitted(dest, emitted)
    # A callee that kept its storage object needs no write: `env2` already
    # holds it, and a value cannot change in place.
    if new_storage is not credited.storage:
        # Not rendered: a body may have built `new_storage` from anything.
        if not value_typecheck(new_storage, defn.storage_type):
            raise ExecError(TYPE_MISMATCH, f"@{dest} returned ill-typed storage")
        # Storage commits before any emitted operation runs.
        env2 = env2.updated({dest: credited.with_storage(new_storage)})
    if credited.contextual and not features.contexts:
        raise ExecError(FEATURE_DISABLED, "contexts feature disabled (contextual callee)")
    return _new_tuple(
        ExecOutcome, (dest, emitted, env2, ((dest, new_storage),), credited.contextual)
    )


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
    debited = sender_c.moved(sender_c.balance - op.amount)
    env2 = env.updated({ectx.sender: debited, op.addr: contract})
    return ExecOutcome(ectx.sender, (), env2, ((op.addr, op.storage),), False)


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
    return ExecOutcome(ectx.sender, (), env, (), False)


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
