"""Transaction driver: pending-operation scheduling, commit/revert, tracing.

A transaction seeds one queue frame with its submitted operations. The
scheduler repeatedly takes the first pending operation of the head frame:
wrappers (atomic/context/restriction) expand in place without consuming fuel;
executable operations go to the executor, and their emissions are inserted
per strategy (BFS appends to the current frame's tail, DFS prepends) or open
a fresh frame for contextual calls. Any failure reverts the whole transaction
while the timestamp still advances.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import (
    AtomicBundle,
    ContextBundle,
    CreateContract,
    EndInteractions,
    Environment,
    ExecutionContext,
    Operation,
    PendingOp,
    Restricted,
    Transfer,
    Value,
    WRAPPER_OPS,
    describe_op,
    render_stack,
)
from .executor import (
    ExecError,
    ExecOutcome,
    FEATURE_DISABLED,
    FUEL_EXHAUSTED,
    RESTRICTION_VIOLATION,
    UNKNOWN_ADDRESS,
    execute_operation,
)
from .features import FeatureSet, narrow_restrictions
from .trace import (
    STATUS_EXECUTED,
    STATUS_EXPANDED,
    STATUS_FAILED,
    TraceNode,
    TransactionTree,
)


class Strategy(Enum):
    BFS = "bfs"
    DFS = "dfs"


DEFAULT_FUEL = 10_000

Stack = tuple[tuple[PendingOp, ...], ...]
ExecuteFn = Callable[..., ExecOutcome]


@dataclass(frozen=True)
class SignedTransaction:
    author: str
    ops: tuple[Operation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class SchedulerConfig:
    strategy: Strategy = Strategy.BFS
    features: FeatureSet = FeatureSet()
    fuel: int = DEFAULT_FUEL
    record_queue_states: bool = False

    def __post_init__(self) -> None:
        if self.fuel < 1:
            raise ValueError("fuel must be at least 1")


@dataclass(frozen=True)
class Commit:
    env: Environment


@dataclass(frozen=True)
class Revert:
    kind: str
    detail: str

    @property
    def reason(self) -> str:
        return f"{self.kind}: {self.detail}"


Outcome = Union[Commit, Revert]


@dataclass(frozen=True)
class SchedulerState:
    """One intermediate point of a running transaction. Immutable; step()
    returns the successor state, so callers may inspect every transition."""

    cfg: SchedulerConfig
    env: Environment
    stack: Stack
    fuel_left: int
    ts: int
    end_owner: Optional[str]
    nodes: tuple[TraceNode, ...]
    snapshots: tuple[str, ...] = ()
    failure: Optional[tuple[str, str]] = None
    execute: ExecuteFn = field(compare=False, repr=False, default=execute_operation)

    @property
    def finished(self) -> bool:
        return self.failure is not None or not _normalize(self.stack)


def _normalize(stack: Stack) -> Stack:
    while stack and not stack[0]:
        stack = stack[1:]
    return stack


def insert_emitted(
    strategy: Strategy,
    stack: Stack,
    emitted: Sequence[PendingOp],
    open_new_frame: bool,
) -> Stack:
    """Insert newly emitted operations: a fresh head frame for contextual
    calls, else appended (BFS) or prepended (DFS) on the current head frame,
    preserving the emission's internal order either way."""
    emitted = tuple(emitted)
    if open_new_frame:
        return (emitted,) + stack
    if not stack:
        return (emitted,)
    head = stack[0]
    if strategy is Strategy.BFS:
        head = head + emitted
    else:
        head = emitted + head
    return (head,) + stack[1:]


def _flatten_pending(stack: Stack) -> tuple[PendingOp, ...]:
    return tuple(p for frame in stack for p in frame)


def _head_is_wrapper(stack: Stack) -> bool:
    stack = _normalize(stack)
    return bool(stack) and isinstance(stack[0][0].op, WRAPPER_OPS)


def _fail(state: SchedulerState, node: TraceNode, kind: str, detail: str) -> SchedulerState:
    return replace(
        state,
        nodes=state.nodes + (node,),
        failure=(kind, detail),
    )


def _op_deltas(op: Operation, sender: str) -> tuple[tuple[str, int], ...]:
    moves: dict[str, int] = {}
    if isinstance(op, Transfer):
        moves[sender] = moves.get(sender, 0) - op.amount
        moves[op.dest] = moves.get(op.dest, 0) + op.amount
    elif isinstance(op, CreateContract):
        moves[sender] = moves.get(sender, 0) - op.amount
        moves[op.addr] = moves.get(op.addr, 0) + op.amount
    return tuple(sorted((a, d) for a, d in moves.items() if d != 0))


def step(state: SchedulerState) -> SchedulerState:
    """Process the first pending operation of the head frame.

    Wrapper expansion consumes no fuel; executable operations consume one
    unit each. Requires an unfinished state with work in the stack.
    """
    if state.failure is not None:
        raise ValueError("cannot step a failed state")
    stack = _normalize(state.stack)
    if not stack:
        raise ValueError("cannot step an empty stack")
    head = stack[0]
    p = head[0]
    rest: Stack = (head[1:],) + stack[1:]
    features = state.cfg.features
    node_id = len(state.nodes)

    if isinstance(p.op, WRAPPER_OPS):
        kind = {
            AtomicBundle: "atomic",
            ContextBundle: "context",
            Restricted: "restricted",
        }[type(p.op)]
        base = TraceNode(
            id=node_id, parent=p.parent, seq=node_id, sender=p.ectx.sender, kind=kind
        )
        if isinstance(p.op, AtomicBundle):
            if not features.bundles:
                return _fail(
                    state,
                    replace(base, status=STATUS_FAILED),
                    FEATURE_DISABLED,
                    "bundles feature disabled",
                )
            members = tuple(PendingOp(o, p.ectx, parent=node_id) for o in p.op.ops)
            new_stack: Stack = (members + rest[0],) + rest[1:]
        elif isinstance(p.op, ContextBundle):
            if not features.contexts:
                return _fail(
                    state,
                    replace(base, status=STATUS_FAILED),
                    FEATURE_DISABLED,
                    "contexts feature disabled",
                )
            members = tuple(PendingOp(o, p.ectx, parent=node_id) for o in p.op.ops)
            new_stack = (members,) + rest
        else:
            if not features.restrictions:
                return _fail(
                    state,
                    replace(base, status=STATUS_FAILED),
                    RESTRICTION_VIOLATION,
                    "restrictions feature disabled",
                )
            narrowed = narrow_restrictions(p.ectx.restrictions, p.op.allow, p.op.block)
            member_ctx = replace(p.ectx, restrictions=narrowed)
            members = tuple(PendingOp(o, member_ctx, parent=node_id) for o in p.op.ops)
            new_stack = (members + rest[0],) + rest[1:]
        return replace(
            state,
            stack=new_stack,
            nodes=state.nodes + (replace(base, status=STATUS_EXPANDED),),
        )

    # Executable operation.
    ectx = replace(p.ectx, end_interactions_owner=state.end_owner, level=state.ts)
    op_kind, dest, amount, param = describe_op(p.op)
    base = TraceNode(
        id=node_id,
        parent=p.parent,
        seq=node_id,
        sender=ectx.sender,
        kind=op_kind,
        dest=dest,
        amount=amount,
        param=param,
    )
    if state.fuel_left <= 0:
        return _fail(
            state,
            replace(base, status=STATUS_FAILED),
            FUEL_EXHAUSTED,
            f"fuel cap of {state.cfg.fuel} operations hit",
        )
    pending = _flatten_pending(_normalize(rest))
    try:
        outcome = state.execute(ectx, p.op, state.env, features, pending)
    except ExecError as err:
        return _fail(state, replace(base, status=STATUS_FAILED), err.kind, err.detail)

    open_new_frame = False
    if isinstance(p.op, Transfer):
        callee = outcome.env_after.get(p.op.dest)
        if callee is not None and callee.contextual:
            if not features.contexts:
                return _fail(
                    state,
                    replace(base, status=STATUS_FAILED),
                    FEATURE_DISABLED,
                    "contexts feature disabled (contextual callee)",
                )
            open_new_frame = True

    commits: tuple[tuple[str, Value], ...] = ()
    if isinstance(p.op, Transfer):
        updated = outcome.env_after.get(p.op.dest)
        assert updated is not None
        commits = ((p.op.dest, updated.storage),)
    elif isinstance(p.op, CreateContract):
        commits = ((p.op.addr, p.op.storage),)
    node = replace(
        base,
        status=STATUS_EXECUTED,
        deltas=_op_deltas(p.op, ectx.sender),
        commits=commits,
    )
    emitted_ctx = ExecutionContext(
        sender=outcome.emitter,
        source=ectx.source,
        restrictions=ectx.restrictions,
        level=ectx.level,
    )
    emitted = tuple(PendingOp(o, emitted_ctx, parent=node_id) for o in outcome.emitted)
    # A contextual call's frame comes instead of, not on top of, a frame the
    # call just drained (callee flag wins: one frame, not two). Without a new
    # frame the emptied head frame stays: it still owns the emissions.
    insert_base = _normalize(rest) if open_new_frame else rest
    new_stack = insert_emitted(state.cfg.strategy, insert_base, emitted, open_new_frame)
    end_owner = state.end_owner
    if isinstance(p.op, EndInteractions):
        end_owner = ectx.sender
    return replace(
        state,
        env=outcome.env_after,
        stack=new_stack,
        fuel_left=state.fuel_left - 1,
        end_owner=end_owner,
        nodes=state.nodes + (node,),
    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def initial_state(
    env: Environment,
    tx: SignedTransaction,
    cfg: SchedulerConfig,
    ts: int,
    execute: ExecuteFn = execute_operation,
) -> SchedulerState:
    """Seed a transaction: one frame of the submitted ops under root contexts
    (sender = source = author). Drive it with step() or run_transaction()."""
    root_ctx = ExecutionContext(sender=tx.author, source=tx.author, level=ts)
    frame = tuple(PendingOp(op, root_ctx, parent=None) for op in tx.ops)
    return SchedulerState(
        cfg=cfg,
        env=env,
        stack=(frame,),
        fuel_left=cfg.fuel,
        ts=ts,
        end_owner=None,
        nodes=(),
        execute=execute,
    )


def run_transaction(
    env: Environment,
    tx: SignedTransaction,
    cfg: SchedulerConfig,
    ts: int,
    execute: ExecuteFn = execute_operation,
) -> tuple[Outcome, int, TransactionTree]:
    """Drive `tx` to commit or revert.

    On commit the returned environment is the final one; on revert it is the
    caller's job to keep using the original `env` (which this function never
    mutates). The timestamp advances by one either way.
    """
    state = initial_state(env, tx, cfg, ts, execute)
    if tx.author not in env:
        state = replace(
            state, failure=(UNKNOWN_ADDRESS, f"author @{tx.author} is not on chain")
        )
    while state.failure is None:
        stack = _normalize(state.stack)
        if not stack:
            break
        if cfg.record_queue_states and not _head_is_wrapper(stack):
            state = replace(state, snapshots=state.snapshots + (render_stack(stack),))
        state = step(replace(state, stack=stack))

    if state.failure is None and cfg.record_queue_states:
        state = replace(state, snapshots=state.snapshots + (render_stack(()),))

    if state.failure is None:
        outcome: Outcome = Commit(state.env)
        tree = TransactionTree(
            nodes=state.nodes,
            outcome="commit",
            reason=None,
            ts=ts,
            queue_states=state.snapshots,
        )
    else:
        kind, detail = state.failure
        outcome = Revert(kind, detail)
        tree = TransactionTree(
            nodes=state.nodes,
            outcome="revert",
            reason=f"{kind}: {detail}",
            ts=ts,
            queue_states=state.snapshots,
        )
    return outcome, ts + 1, tree


def run_block(
    env: Environment,
    txs: Iterable[SignedTransaction],
    cfg: SchedulerConfig,
    ts: int,
    execute: ExecuteFn = execute_operation,
) -> tuple[Environment, int, list[TransactionTree]]:
    """Fold transactions left to right; a revert keeps the pre-transaction
    environment and the block simply continues."""
    trees: list[TransactionTree] = []
    for tx in txs:
        outcome, ts, tree = run_transaction(env, tx, cfg, ts, execute)
        trees.append(tree)
        if isinstance(outcome, Commit):
            env = outcome.env
    return env, ts, trees
