"""Transaction driver: pending-operation scheduling, commit/revert, tracing.

A transaction seeds one queue frame with its submitted operations. The
scheduler repeatedly takes the next pending operation of the head frame:
wrappers (atomic/context/restriction) expand without consuming fuel;
executable operations go to the executor, which decides whether they may run
and reports what they changed. Their emissions are inserted per strategy (BFS
appends to the current frame's tail, DFS prepends) or, for contextual calls as
for a context's members, open a fresh frame that replaces drained ones. Any
failure reverts the whole transaction while the timestamp still advances.

`run_transaction` is the only driver: one pass of its loop is one step, and
the transaction's state (queue frames, fuel, end-of-interactions owner, trace
nodes) lives in its locals. A queue entry is a run: the operations queued
together (the submitted ops, one emission, or a wrapper's members) with the
index of the next one, and what they share, the execution context (which
holds their sender and restrictions) and their trace parent. A step reads
one operation from the head run and moves its index on; the run's context
is built once and rebuilt only when end-of-interactions mode begins.
`--step` output comes from its queue snapshots
(`SchedulerConfig.record_queue_states`), and an `execute` hook sees each
executable operation with the environment and the queue behind it; both
read the queue as `PendingOp`s made as they are read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .core import (
    AtomicBundle,
    ContextBundle,
    EndInteractions,
    Environment,
    ExecutionContext,
    Operation,
    PendingOp,
    Restricted,
    _new_tuple,
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
from .features import FeatureSet
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


class Commit(NamedTuple):
    """A committed transaction and the environment it left."""

    env: Environment


class Revert(NamedTuple):
    """A reverted transaction: the error kind and what failed."""

    kind: str
    detail: str

    @property
    def reason(self) -> str:
        return f"{self.kind}: {self.detail}"


Outcome = Union[Commit, Revert]


def _entries(frame: deque[list]) -> Iterator[PendingOp]:
    """The operations still pending in one frame, front first, each as a
    `PendingOp` made when it is read."""
    for ops, pos, ectx, parent in frame:
        sender, restrictions = ectx.sender, ectx.restrictions
        for k in range(pos, len(ops)):
            yield _new_tuple(PendingOp, (ops[k], sender, restrictions, parent))


class _PendingView:
    """Read-only view of the queue behind the operation being executed, head
    frame first. It reads the live frames, so it is valid only while the
    executor call it was handed to runs."""

    __slots__ = ("_frames",)

    def __init__(self, frames: list[deque[list]]) -> None:
        self._frames = frames

    def __iter__(self) -> Iterator[PendingOp]:
        return chain.from_iterable(self.frames())

    def frames(self) -> Iterator[Iterator[PendingOp]]:
        """Each frame's pending operations, head frame first."""
        return map(_entries, reversed(self._frames))


# Wrapper type -> (enabling feature, error kind when it is off).
_WRAPPERS = {
    AtomicBundle: ("bundles", FEATURE_DISABLED),
    ContextBundle: ("contexts", FEATURE_DISABLED),
    Restricted: ("restrictions", RESTRICTION_VIOLATION),
}


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
    live queue, valid only during that call. It must raise `ExecError` when
    the operation may not run, and otherwise return the `ExecOutcome` that
    is taken as is: its `commits` become the trace node's, and `opens_frame`
    puts the emissions in a fresh frame. The loop itself checks only the
    wrappers it expands and the fuel, so a hook that wraps
    `execute_operation` and returns normally matches one executed node.
    """
    features = cfg.features
    record = cfg.record_queue_states
    bfs = cfg.strategy is Strategy.BFS
    author = tx.author
    fuel_left = cfg.fuel
    end_owner: Optional[str] = None

    def context(sender: str, restrictions: tuple[Restricted, ...]) -> ExecutionContext:
        return _new_tuple(ExecutionContext, (sender, author, restrictions, end_owner, ts))

    # Frames are deques of runs, with the head frame last in the list. A run
    # is [ops, pos, ectx, parent]: operations queued together, of which
    # `ops[pos:]` are still pending (a queued run is never empty), the
    # context they execute under, which holds their sender and restrictions,
    # and the trace node that queued them. The submitted ops are one run,
    # sent by the author, in the first frame.
    frames = [deque()]
    if tx.ops:
        frames[0].append([tx.ops, 0, context(author, ()), None])
    pending = _PendingView(frames)
    nodes: list[TraceNode] = []
    snapshots: list[str] = []
    failure: Optional[tuple[str, str]] = None
    if author not in env:
        failure = (UNKNOWN_ADDRESS, f"author @{author} is not on chain")

    # One pass per step: process the next pending operation of the head
    # frame's first run. Wrapper expansion consumes no fuel; executable
    # operations consume one unit each. The queue behind the operation
    # changes only after the executor returns.
    while failure is None:
        while frames and not frames[-1]:
            frames.pop()
        if not frames:
            break
        frame = frames[-1]
        run = frame[0]
        ops, pos, ectx, parent = run
        op = ops[pos]
        sender = ectx.sender
        node_id = len(nodes)
        wrapper = _WRAPPERS.get(type(op))
        if record and wrapper is None:
            snapshots.append(render_stack(pending.frames()))
        if pos + 1 < len(ops):
            run[1] = pos + 1
        else:
            frame.popleft()

        # Each branch decides the step's status, commits and failure, and
        # what it queues; one node records the step.
        commits = ()
        if wrapper is not None:
            feature, error = wrapper
            if getattr(features, feature):
                status = STATUS_EXPANDED
                if isinstance(op, Restricted):
                    ectx = context(sender, ectx.restrictions + (op,))
                members, opens_frame, at_front = op.ops, isinstance(op, ContextBundle), True
            else:
                status, failure = STATUS_FAILED, (error, f"{feature} feature disabled")
        else:
            if ectx.end_interactions_owner is not end_owner:
                # The mode began after this run's context was built.
                ectx = run[2] = context(sender, ectx.restrictions)
            try:
                if fuel_left <= 0:
                    raise ExecError(FUEL_EXHAUSTED, f"fuel cap of {cfg.fuel} operations hit")
                outcome = execute(ectx, op, env, features, pending)
            except ExecError as err:
                status, failure = STATUS_FAILED, (err.kind, err.detail)
            else:
                status, commits = STATUS_EXECUTED, outcome.commits
                env = outcome.env_after
                fuel_left -= 1
                if isinstance(op, EndInteractions):
                    end_owner = sender
                members, opens_frame, at_front = outcome.emitted, outcome.opens_frame, not bfs
                if members:
                    ectx = context(outcome.emitter, ectx.restrictions)
        nodes.append(_new_tuple(TraceNode, (node_id, parent, sender, op, status, commits)))
        if failure is not None:
            break

        # One placement rule for a wrapper's members and an operation's
        # emissions, queued as one run: BFS appends, DFS and wrappers push it
        # in front of the rest of the current run, and a new frame replaces
        # the frames just drained (one frame, not two).
        if members:
            queued = [members, 0, ectx, node_id]
            if opens_frame:
                while frames and not frames[-1]:
                    frames.pop()
                frames.append(deque((queued,)))
            elif at_front:
                frame.appendleft(queued)
            else:
                # The head frame stays even if this step drained it: it owns
                # the emissions.
                frame.append(queued)

    if failure is None:
        if record:
            snapshots.append(render_stack(()))
        result: Outcome = Commit(env)
        tree = TransactionTree(tuple(nodes), "commit", None, ts, tuple(snapshots))
    else:
        result = Revert(*failure)
        tree = TransactionTree(tuple(nodes), "revert", result.reason, ts, tuple(snapshots))
    return result, ts + 1, tree


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
