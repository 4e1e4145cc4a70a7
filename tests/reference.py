"""A reference semantics of one transaction, for differential testing
(McKeeman, "Differential Testing for Software", 1998) against
`run_transaction`. It is a small-step reading of README's rules, not of
`scheduler.py`: no runs, no deques, no lazy views and no fast paths.

The state is the environment, the queue frames (head frame first, each a
tuple of single pending operations with their sender, restrictions and
trace parent), the fuel left and the end-of-interactions owner. A step
drops the empty frames at the head and takes the head frame's first
operation; a queue with none left commits.
- A wrapper expands for free when its feature is on and reverts when it is
  off. Its members keep its sender, and a restriction wrapper adds itself
  to their restrictions. An atomic or restriction wrapper's members go in
  front of the head frame; a context's open a fresh frame, which replaces
  the frames the step drained.
- An executable operation costs one unit of fuel, and with none left the
  transaction reverts `fuel_exhausted`; `execute_operation` decides whether
  it runs. A transfer's emissions are sent by its destination and keep its
  restrictions: BFS appends them to the head frame, DFS puts them in front
  of it, and a contextual callee's open a fresh frame. After
  `end_interactions`, its sender owns that mode for the rest of the
  transaction.
A node's commits and whether a callee is contextual are read from the
environment after the step, and an emission's sender from the transfer,
never from the `ExecOutcome`. The queue is rendered as `--step` prints it
before each executable operation and once more on commit.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from chainsim.core import (
    AtomicBundle,
    ContextBundle,
    CreateContract,
    Environment,
    EndInteractions,
    ExecError,
    ExecutionContext,
    PendingOp,
    Restricted,
    render_stack,
)
from chainsim.executor import (
    FEATURE_DISABLED,
    FUEL_EXHAUSTED,
    RESTRICTION_VIOLATION,
    UNKNOWN_ADDRESS,
    execute_operation,
)
from chainsim.scheduler import SchedulerConfig, SignedTransaction, Strategy

# Each wrapper's feature, and the kind a transaction reverts with when it is off.
WRAPPER_FEATURES = {
    AtomicBundle: ("bundles", FEATURE_DISABLED),
    ContextBundle: ("contexts", FEATURE_DISABLED),
    Restricted: ("restrictions", RESTRICTION_VIOLATION),
}

Frames = tuple[tuple[PendingOp, ...], ...]


class State(NamedTuple):
    env: Environment
    frames: Frames  # head frame first
    fuel: int
    end_owner: Optional[str]


# (id, parent, sender, op, status, commits), the fields of a trace node.
Node = tuple


def _fresh_frame(members: tuple[PendingOp, ...], rest: Frames) -> Frames:
    """`members` as a new head frame over the frames of `rest` that are not
    drained."""
    return (members,) + tuple(frame for frame in rest if frame)


def step(
    state: State, node_id: int, tx: SignedTransaction, cfg: SchedulerConfig, ts: int
) -> tuple[Node, Union[State, tuple[str, str]]]:
    """The node of one step from `state`, whose head frame is not empty, and
    the state after it, or the revert's (kind, detail)."""
    env, frames, fuel, end_owner = state
    (op, sender, restrictions, parent), head, below = frames[0][0], frames[0][1:], frames[1:]
    if type(op) in WRAPPER_FEATURES:
        feature, kind = WRAPPER_FEATURES[type(op)]
        if not getattr(cfg.features, feature):
            failed = (node_id, parent, sender, op, "failed", ())
            return failed, (kind, f"{feature} feature disabled")
        if type(op) is Restricted:
            restrictions = restrictions + (op,)
        members = tuple(PendingOp(m, sender, restrictions, node_id) for m in op.ops)
        if type(op) is ContextBundle:
            frames = _fresh_frame(members, (head,) + below)
        else:
            frames = (members + head,) + below
        return (node_id, parent, sender, op, "expanded", ()), State(env, frames, fuel, end_owner)

    failed = (node_id, parent, sender, op, "failed", ())
    if fuel == 0:
        return failed, (FUEL_EXHAUSTED, f"fuel cap of {cfg.fuel} operations hit")
    ectx = ExecutionContext(sender, tx.author, restrictions, end_owner, ts)
    behind = [pending for frame in (head,) + below for pending in frame]
    try:
        out = execute_operation(ectx, op, env, cfg.features, behind)
    except ExecError as err:
        return failed, (err.kind, err.detail)
    env, frames = out.env_after, (head,) + below
    commits: tuple = ()
    if type(op) is EndInteractions:
        end_owner = sender
    elif type(op) is CreateContract:
        commits = ((op.addr, env.get(op.addr).storage),)
    else:  # a transfer
        callee = env.get(op.dest)
        commits = ((op.dest, callee.storage),)
        emitted = tuple(PendingOp(e, op.dest, restrictions, node_id) for e in out.emitted)
        if emitted and callee.contextual:
            frames = _fresh_frame(emitted, frames)
        elif cfg.strategy is Strategy.BFS:
            frames = (head + emitted,) + below
        else:
            frames = (emitted + head,) + below
    node = (node_id, parent, sender, op, "executed", commits)
    return node, State(env, frames, fuel - 1, end_owner)


def run(
    env: Environment, tx: SignedTransaction, cfg: SchedulerConfig, ts: int
) -> tuple[tuple, list[Node], list[str]]:
    """`tx` driven to its end: the outcome, `("commit", env)` or `("revert",
    kind, detail)`, the trace nodes and the rendered queue states."""
    nodes: list[Node] = []
    queue_states: list[str] = []
    if tx.author not in env:
        detail = f"author @{tx.author} is not on chain"
        return ("revert", UNKNOWN_ADDRESS, detail), nodes, queue_states
    submitted = tuple(PendingOp(op, tx.author, (), None) for op in tx.ops)
    state = State(env, (submitted,), cfg.fuel, None)
    while True:
        frames = state.frames
        while frames and not frames[0]:
            frames = frames[1:]
        if not frames:
            queue_states.append(render_stack(()))
            return ("commit", state.env), nodes, queue_states
        if type(frames[0][0].op) not in WRAPPER_FEATURES:
            queue_states.append(render_stack(frames))
        node, after = step(state._replace(frames=frames), len(nodes), tx, cfg, ts)
        nodes.append(node)
        if not isinstance(after, State):
            return ("revert", *after), nodes, queue_states
        state = after
