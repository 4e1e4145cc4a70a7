"""Transaction driver: pending-operation scheduling, commit/revert, tracing.

A transaction seeds one queue frame with its submitted operations. The
scheduler repeatedly takes the first pending operation of the head frame:
wrappers (atomic/context/restriction) expand in place without consuming fuel;
executable operations go to the executor, which decides whether they may run
and reports what they changed. Their emissions are inserted per strategy (BFS
appends to the current frame's tail, DFS prepends) or open a fresh frame when
the executor says so, for contextual calls. Any failure reverts the whole
transaction while the timestamp still advances.

`run_transaction` is the only driver: one pass of its loop is one step, and
the transaction's state (queue frames, fuel, end-of-interactions owner, trace
nodes) lives in its locals. A queue entry holds only what is its own, the
sender and the restrictions; the loop builds each executable operation's
`ExecutionContext` from it and the transaction's author and timestamp.
`--step` output comes from its queue snapshots
(`SchedulerConfig.record_queue_states`), and an `execute` hook sees each
executable operation with the environment and the queue behind it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, Iterator, Optional, Union

from .core import (
    AtomicBundle,
    ContextBundle,
    EndInteractions,
    Environment,
    ExecutionContext,
    Operation,
    PendingOp,
    Restricted,
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


class _PendingView:
    """Read-only view of the queue behind the operation being executed, head
    frame first. It reads the live frames, so it is valid only while the
    executor call it was handed to runs."""

    __slots__ = ("_frames",)

    def __init__(self, frames: list[deque[PendingOp]]) -> None:
        self._frames = frames

    def __iter__(self) -> Iterator[PendingOp]:
        return chain.from_iterable(reversed(self._frames))


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
    # The submitted ops form one frame sent by the author. Frames are deques
    # with the head frame last in the list.
    frames = [deque(PendingOp(op, tx.author) for op in tx.ops)]
    pending = _PendingView(frames)
    fuel_left = cfg.fuel
    end_owner: Optional[str] = None
    nodes: list[TraceNode] = []
    snapshots: list[str] = []
    failure: Optional[tuple[str, str]] = None
    if tx.author not in env:
        failure = (UNKNOWN_ADDRESS, f"author @{tx.author} is not on chain")

    # One pass per step: process the first pending operation of the head
    # frame. Wrapper expansion consumes no fuel; executable operations consume
    # one unit each. The queue behind the operation changes only after the
    # executor returns.
    while failure is None:
        while frames and not frames[-1]:
            frames.pop()
        if not frames:
            break
        frame = frames[-1]
        p = frame[0]
        op = p.op
        node_id = len(nodes)
        wrapper = _WRAPPERS.get(type(op))
        if record and wrapper is None:
            snapshots.append(render_stack(reversed(frames)))
        frame.popleft()

        if wrapper is not None:
            feature, error = wrapper
            enabled = getattr(features, feature)
            status = STATUS_EXPANDED if enabled else STATUS_FAILED
            nodes.append(TraceNode(node_id, p.parent, p.sender, op, status))
            if not enabled:
                failure = (error, f"{feature} feature disabled")
                break
            restrictions = p.restrictions
            if isinstance(op, Restricted):
                restrictions = restrictions.narrowed(op)
            members = [PendingOp(o, p.sender, restrictions, node_id) for o in op.ops]
            if isinstance(op, ContextBundle):
                frames.append(deque(members))
            else:
                frame.extendleft(reversed(members))
            continue

        ectx = ExecutionContext(p.sender, tx.author, p.restrictions, end_owner, ts)
        try:
            if fuel_left <= 0:
                raise ExecError(FUEL_EXHAUSTED, f"fuel cap of {cfg.fuel} operations hit")
            outcome = execute(ectx, op, env, features, pending)
        except ExecError as err:
            nodes.append(TraceNode(node_id, p.parent, p.sender, op, STATUS_FAILED))
            failure = (err.kind, err.detail)
            break

        nodes.append(
            TraceNode(node_id, p.parent, p.sender, op, STATUS_EXECUTED, outcome.commits)
        )
        if outcome.emitted:
            emitted = [
                PendingOp(o, outcome.emitter, p.restrictions, node_id) for o in outcome.emitted
            ]
            if outcome.opens_frame:
                # A contextual call's frame comes instead of, not on top of,
                # frames the call just drained (callee flag wins: one frame,
                # not two).
                while frames and not frames[-1]:
                    frames.pop()
                frames.append(deque(emitted))
            elif bfs:
                # The head frame stays even if the call drained it: it owns
                # the emissions.
                frame.extend(emitted)
            else:
                frame.extendleft(reversed(emitted))
            # From here the queue alone holds the entries, so each is freed
            # once it has run, not when the transaction ends.
            del emitted
        env = outcome.env_after
        fuel_left -= 1
        if isinstance(op, EndInteractions):
            end_owner = p.sender

    if failure is None:
        if record:
            snapshots.append(render_stack(()))
        result: Outcome = Commit(env)
        reason = None
    else:
        result = Revert(*failure)
        reason = result.reason
    tree = TransactionTree(
        nodes=tuple(nodes),
        outcome="commit" if reason is None else "revert",
        reason=reason,
        ts=ts,
        queue_states=tuple(snapshots),
    )
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
