"""Transaction driver: pending-operation scheduling, commit/revert, tracing.

A transaction seeds one queue frame with its submitted operations. The
scheduler repeatedly takes the first pending operation of the head frame:
wrappers (atomic/context/restriction) expand in place without consuming fuel;
executable operations go to the executor, and their emissions are inserted
per strategy (BFS appends to the current frame's tail, DFS prepends) or open
a fresh frame for contextual calls. Any failure reverts the whole transaction
while the timestamp still advances.

One per-step function, `_step`, holds these semantics. It works in place on a
private `_Run`; `run_transaction` drives it to the end, and `step` adapts it
to the immutable, inspectable `SchedulerState`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Union

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
    returns the successor state, so callers may inspect every transition.
    `stack` lists frames head first; a failed state keeps the stack it
    failed on."""

    cfg: SchedulerConfig
    env: Environment
    stack: Stack
    fuel_left: int
    ts: int
    end_owner: Optional[str]
    nodes: tuple[TraceNode, ...]
    failure: Optional[tuple[str, str]] = None
    execute: ExecuteFn = field(compare=False, repr=False, default=execute_operation)

    @property
    def finished(self) -> bool:
        return self.failure is not None or not any(self.stack)


class _PendingView:
    """Read-only view of the queue behind the operation being executed, head
    frame first. It reads the live frames, so it is valid only while the
    executor call it was handed to runs."""

    __slots__ = ("_frames",)

    def __init__(self, frames: list[deque[PendingOp]]) -> None:
        self._frames = frames

    def __iter__(self) -> Iterator[PendingOp]:
        return chain.from_iterable(reversed(self._frames))


class _Run:
    """The mutable state of one transaction while `_step` advances it.

    Frames are deques with the head frame last in the list; nodes are a list.
    A run is private to one run_transaction or step call.
    """

    __slots__ = (
        "cfg", "execute", "env", "frames", "pending", "fuel_left", "ts",
        "end_owner", "nodes", "failure",
    )

    def __init__(self, state: SchedulerState) -> None:
        self.cfg = state.cfg
        self.execute = state.execute
        self.env = state.env
        self.frames = [deque(frame) for frame in reversed(state.stack)]
        self.pending = _PendingView(self.frames)
        self.fuel_left = state.fuel_left
        self.ts = state.ts
        self.end_owner = state.end_owner
        self.nodes = list(state.nodes)
        self.failure = state.failure

    def drop_empty_heads(self) -> bool:
        """Pop drained head frames; True while work is left."""
        frames = self.frames
        while frames and not frames[-1]:
            frames.pop()
        return bool(frames)

    def fail(self, node: TraceNode, kind: str, detail: str) -> None:
        self.nodes.append(node)
        self.failure = (kind, detail)


# Wrapper type -> (trace kind, enabling feature, error kind when it is off).
_WRAPPERS = {
    AtomicBundle: ("atomic", "bundles", FEATURE_DISABLED),
    ContextBundle: ("context", "contexts", FEATURE_DISABLED),
    Restricted: ("restricted", "restrictions", RESTRICTION_VIOLATION),
}


def _op_deltas(op: Operation, sender: str) -> tuple[tuple[str, int], ...]:
    moves: dict[str, int] = {}
    if isinstance(op, Transfer):
        moves[sender] = moves.get(sender, 0) - op.amount
        moves[op.dest] = moves.get(op.dest, 0) + op.amount
    elif isinstance(op, CreateContract):
        moves[sender] = moves.get(sender, 0) - op.amount
        moves[op.addr] = moves.get(op.addr, 0) + op.amount
    return tuple(sorted((a, d) for a, d in moves.items() if d != 0))


def _step(run: _Run) -> None:
    """Process the first pending operation of the head frame, in place.

    Requires a non-empty head frame (see `_Run.drop_empty_heads`). Wrapper
    expansion consumes no fuel; executable operations consume one unit each.
    The queue behind the operation changes only after the executor returns.
    """
    frame = run.frames[-1]
    p = frame.popleft()
    op = p.op
    node_id = len(run.nodes)
    features = run.cfg.features
    wrapper = _WRAPPERS.get(type(op))
    if wrapper is not None:
        kind, feature, error = wrapper
        enabled = getattr(features, feature)
        node = TraceNode(
            node_id, p.parent, node_id, p.ectx.sender, kind,
            status=STATUS_EXPANDED if enabled else STATUS_FAILED,
        )
        if not enabled:
            return run.fail(node, error, f"{feature} feature disabled")
        run.nodes.append(node)
        ectx = p.ectx
        if isinstance(op, Restricted):
            ectx = ExecutionContext(
                sender=ectx.sender,
                source=ectx.source,
                restrictions=narrow_restrictions(ectx.restrictions, op.allow, op.block),
                end_interactions_owner=ectx.end_interactions_owner,
                level=ectx.level,
            )
        members = [PendingOp(o, ectx, node_id) for o in op.ops]
        if isinstance(op, ContextBundle):
            run.frames.append(deque(members))
        else:
            frame.extendleft(reversed(members))
        return

    src = p.ectx
    ectx = ExecutionContext(
        sender=src.sender,
        source=src.source,
        restrictions=src.restrictions,
        end_interactions_owner=run.end_owner,
        level=run.ts,
    )
    op_kind, dest, amount, param = describe_op(op)

    def failed(kind: str, detail: str) -> None:
        node = TraceNode(
            node_id, p.parent, node_id, ectx.sender, op_kind, dest, amount, param,
            STATUS_FAILED,
        )
        run.fail(node, kind, detail)

    if run.fuel_left <= 0:
        return failed(FUEL_EXHAUSTED, f"fuel cap of {run.cfg.fuel} operations hit")
    try:
        outcome = run.execute(ectx, op, run.env, features, run.pending)
    except ExecError as err:
        return failed(err.kind, err.detail)

    open_new_frame = False
    commits: tuple[tuple[str, Value], ...] = ()
    if isinstance(op, Transfer):
        callee = outcome.env_after.get(op.dest)
        assert callee is not None
        if callee.contextual:
            if not features.contexts:
                return failed(
                    FEATURE_DISABLED, "contexts feature disabled (contextual callee)"
                )
            open_new_frame = True
        commits = ((op.dest, callee.storage),)
    elif isinstance(op, CreateContract):
        commits = ((op.addr, op.storage),)
    run.nodes.append(
        TraceNode(
            node_id, p.parent, node_id, ectx.sender, op_kind, dest, amount, param,
            STATUS_EXECUTED, _op_deltas(op, ectx.sender), commits,
        )
    )
    emitted_ctx = ExecutionContext(
        sender=outcome.emitter,
        source=ectx.source,
        restrictions=ectx.restrictions,
        level=ectx.level,
    )
    emitted = [PendingOp(o, emitted_ctx, node_id) for o in outcome.emitted]
    if open_new_frame:
        # A contextual call's frame comes instead of, not on top of, a frame
        # the call just drained (callee flag wins: one frame, not two).
        run.drop_empty_heads()
        run.frames.append(deque(emitted))
    elif run.cfg.strategy is Strategy.BFS:
        # The head frame stays even if the call drained it: it owns the
        # emissions.
        frame.extend(emitted)
    else:
        frame.extendleft(reversed(emitted))
    run.env = outcome.env_after
    run.fuel_left -= 1
    if isinstance(op, EndInteractions):
        run.end_owner = ectx.sender


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
    (sender = source = author). An author not on chain fails the state at
    once. Drive it with step() or run_transaction()."""
    root_ctx = ExecutionContext(sender=tx.author, source=tx.author, level=ts)
    frame = tuple(PendingOp(op, root_ctx, parent=None) for op in tx.ops)
    failure = None
    if tx.author not in env:
        failure = (UNKNOWN_ADDRESS, f"author @{tx.author} is not on chain")
    return SchedulerState(
        cfg=cfg,
        env=env,
        stack=(frame,),
        fuel_left=cfg.fuel,
        ts=ts,
        end_owner=None,
        nodes=(),
        failure=failure,
        execute=execute,
    )


def step(state: SchedulerState) -> SchedulerState:
    """Process the first pending operation of the head frame.

    Wrapper expansion consumes no fuel; executable operations consume one
    unit each. Requires an unfinished state with work in the stack.
    """
    if state.failure is not None:
        raise ValueError("cannot step a failed state")
    run = _Run(state)
    if not run.drop_empty_heads():
        raise ValueError("cannot step an empty stack")
    _step(run)
    stack = state.stack
    if run.failure is None:
        stack = tuple(tuple(frame) for frame in reversed(run.frames))
    return SchedulerState(
        cfg=state.cfg,
        env=run.env,
        stack=stack,
        fuel_left=run.fuel_left,
        ts=state.ts,
        end_owner=run.end_owner,
        nodes=tuple(run.nodes),
        failure=run.failure,
        execute=state.execute,
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
    mutates). The timestamp advances by one either way. `execute` is called
    as execute(ectx, op, env, features, pending); `pending` is a view of the
    live queue, valid only during that call.
    """
    run = _Run(initial_state(env, tx, cfg, ts, execute))
    record = cfg.record_queue_states
    frames = run.frames
    snapshots: list[str] = []
    while run.failure is None and run.drop_empty_heads():
        if record and not isinstance(frames[-1][0].op, WRAPPER_OPS):
            snapshots.append(render_stack(reversed(frames)))
        _step(run)

    if run.failure is None:
        if record:
            snapshots.append(render_stack(()))
        outcome: Outcome = Commit(run.env)
        reason = None
    else:
        outcome = Revert(*run.failure)
        reason = outcome.reason
    tree = TransactionTree(
        nodes=tuple(run.nodes),
        outcome="commit" if reason is None else "revert",
        reason=reason,
        ts=ts,
        queue_states=tuple(snapshots),
    )
    return outcome, ts + 1, tree


def run_block(
    env: Environment,
    txs: Iterable[SignedTransaction],
    cfg: SchedulerConfig,
    ts: int,
) -> tuple[Environment, int, list[TransactionTree]]:
    """Fold transactions left to right; a revert keeps the pre-transaction
    environment and the block simply continues."""
    trees: list[TransactionTree] = []
    for tx in txs:
        outcome, ts, tree = run_transaction(env, tx, cfg, ts)
        trees.append(tree)
        if isinstance(outcome, Commit):
            env = outcome.env
    return env, ts, trees
