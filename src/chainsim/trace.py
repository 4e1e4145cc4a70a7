"""Transaction trees and executable validators over them.

A tree records every operation a transaction touched: executed ops, expanded
wrappers, and at most one failing op. Each node holds the operation it
records; its kind and balance deltas are derived from that operation, and its
destination, amount and rendered parameter only when it is exported. Node ids
equal execution order, and parents always precede children.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import (
    OP_KINDS,
    CreateContract,
    Environment,
    Operation,
    Transfer,
    Value,
    render_value,
)

STATUS_EXECUTED = "executed"
STATUS_EXPANDED = "expanded"
STATUS_FAILED = "failed"


class TraceNode(NamedTuple):
    id: int
    parent: Optional[int]
    sender: str
    op: Operation
    status: str = STATUS_EXECUTED
    commits: tuple[tuple[str, Value], ...] = ()

    @property
    def kind(self) -> str:
        return OP_KINDS[type(self.op)]

    @property
    def deltas(self) -> tuple[tuple[str, int], ...]:
        """Balance moves of an executed node, computed from its operation
        rather than from the environment it produced: none for a zero amount
        or a self-move, else the debit and the credit ordered by address."""
        if self.status != STATUS_EXECUTED:
            return ()
        op = self.op
        if isinstance(op, Transfer):
            dest = op.dest
        elif isinstance(op, CreateContract):
            dest = op.addr
        else:
            return ()
        amount, sender = op.amount, self.sender
        if not amount or sender == dest:
            return ()
        if sender < dest:
            return ((sender, -amount), (dest, amount))
        return ((dest, amount), (sender, -amount))


class TransactionTree(NamedTuple):
    """A transaction's trace: its nodes in execution order, its outcome and
    revert reason, its timestamp, and the rendered pending-queue snapshots,
    recorded only when the scheduler is asked to (golden tests, --step)."""

    nodes: tuple[TraceNode, ...]
    outcome: str  # "commit" | "revert"
    reason: Optional[str]
    ts: int
    queue_states: tuple[str, ...] = ()

    @property
    def committed(self) -> bool:
        return self.outcome == "commit"


def node_to_json(node: TraceNode) -> dict:
    op = node.op
    kind = OP_KINDS[type(op)]
    commits = {addr: render_value(value) for addr, value in node.commits}
    if kind == "transfer":
        dest, param = op.dest, op.param
    elif kind == "create":
        dest, param = op.addr, op.storage
    else:
        return {
            "id": node.id, "parent": node.parent, "seq": node.id, "sender": node.sender,
            "kind": kind, "status": node.status, "deltas": dict(node.deltas), "commits": commits,
        }
    return {
        "id": node.id, "parent": node.parent, "seq": node.id, "sender": node.sender,
        "kind": kind, "dest": dest, "amount": op.amount, "param": render_value(param),
        "status": node.status, "deltas": dict(node.deltas), "commits": commits,
    }


def tree_to_json(tree: TransactionTree) -> dict:
    out: dict = {"outcome": tree.outcome}
    if tree.reason is not None:
        out["reason"] = tree.reason
    out["ts"] = tree.ts
    out["nodes"] = [node_to_json(n) for n in tree.nodes]
    return out


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


class ValidationReport(NamedTuple):
    """A validator's verdict on one invariant, with a line per violation."""

    invariant: str
    ok: bool
    violations: tuple[str, ...] = ()


def _balance_diff(env_before: Environment, env_after: Environment) -> dict[str, int]:
    diff: dict[str, int] = {}
    for addr in env_after.changed_since(env_before):
        before = env_before.get(addr)
        after = env_after.get(addr)
        b = before.balance if before is not None else 0
        a = after.balance if after is not None else 0
        if a != b:
            diff[addr] = a - b
    return diff


def validate_no_double_spend(
    tree: TransactionTree, env_before: Environment, env_after: Environment
) -> ValidationReport:
    """Every balance movement is explained by exactly one executed operation:
    per address, the environment delta equals the sum of node deltas."""
    if not tree.committed:
        raise ValueError("no-double-spend applies to committed transactions")
    claimed: dict[str, int] = {}
    for node in tree.nodes:
        for addr, delta in node.deltas:
            claimed[addr] = claimed.get(addr, 0) + delta
    actual = _balance_diff(env_before, env_after)
    violations = []
    for addr in sorted(set(claimed) | set(actual)):
        c = claimed.get(addr, 0)
        a = actual.get(addr, 0)
        if c != a:
            violations.append(
                f"@{addr}: environment moved {a} but trace accounts for {c}"
            )
    return ValidationReport("no_double_spend", not violations, tuple(violations))


def validate_atomic_bundles(
    tree: TransactionTree, emission_groups: bool = False
) -> ValidationReport:
    """Check that every atomic bundle's member operations executed
    back-to-back (consecutive node ids, nothing foreign between them).

    A member that is itself a wrapper contributes its own expansion, so the
    check follows expansion edges; operations a member merely EMITS are not
    part of the bundled sequence (under breadth-first order they lawfully run
    later). With emission_groups=True the same contiguity check also applies
    to the operations emitted by each single execution, including the
    externally submitted root group.
    """
    # Parents precede children, so one reverse pass folds each node's
    # (min id, max id, count), plus its own span if it expanded, into its
    # parent's span. A span is contiguous iff max - min + 1 == count.
    spans: dict[Optional[int], tuple[int, int, int]] = {}
    for node in reversed(tree.nodes):
        lo, hi, count = node.id, node.id, 1
        if node.status == STATUS_EXPANDED and node.id in spans:
            own = spans[node.id]
            lo, hi, count = min(lo, own[0]), max(hi, own[1]), count + own[2]
        if node.parent in spans:
            acc = spans[node.parent]
            lo, hi, count = min(lo, acc[0]), max(hi, acc[1]), count + acc[2]
        spans[node.parent] = (lo, hi, count)

    def interleaved(parent_id: Optional[int]) -> bool:
        lo, hi, count = spans.get(parent_id, (0, -1, 0))
        return hi - lo + 1 != count

    children: dict[Optional[int], list[TraceNode]] = {}
    for node in tree.nodes:
        children.setdefault(node.parent, []).append(node)

    def members(parent_id: Optional[int]) -> list[int]:
        ids: list[int] = []
        todo = [parent_id]
        while todo:
            for child in children.get(todo.pop(), []):
                ids.append(child.id)
                if child.status == STATUS_EXPANDED:
                    todo.append(child.id)
        return sorted(ids)

    groups = [
        (node.id, f"bundle node {node.id}: members at")
        for node in tree.nodes
        if node.kind == "atomic"
    ]
    if emission_groups:
        groups.append((None, "emission group of root:"))
        groups.extend(
            (node.id, f"emission group of node {node.id}:")
            for node in tree.nodes
            if node.status == STATUS_EXECUTED
        )
    violations = tuple(
        f"{label} seqs {members(parent_id)} interleave"
        for parent_id, label in groups
        if interleaved(parent_id)
    )
    return ValidationReport("atomic_bundles", not violations, violations)


def validate_conservation(env_before: Environment, env_after: Environment) -> bool:
    """No mint, no burn: combined funds are constant."""
    return sum(_balance_diff(env_before, env_after).values()) == 0


def validate_replay(
    tree: TransactionTree, env_before: Environment, env_after: Environment
) -> ValidationReport:
    """Replaying recorded deltas and storage commits over env_before must
    reproduce every balance and storage of env_after (code is checked by the
    executor's immutability rules, not here). Only the addresses the trace
    names or the environments differ on are compared: every other one holds
    the same contract before and after."""
    if not tree.committed:
        raise ValueError("replay applies to committed transactions")
    moved: dict[str, int] = {}
    storages: dict[str, Value] = {}
    for node in tree.nodes:
        for addr, delta in node.deltas:
            moved[addr] = moved.get(addr, 0) + delta
        for addr, value in node.commits:
            # A commit on an unseen address is a zero-endowment creation.
            moved.setdefault(addr, 0)
            storages[addr] = value
    violations = []
    for addr in sorted(moved.keys() | env_after.changed_since(env_before)):
        before = env_before.get(addr)
        after = env_after.get(addr)
        if after is None:
            violations.append(f"@{addr}: replay creates an address the chain lacks")
            continue
        balance = None if before is None else before.balance
        if addr in moved:
            balance = (balance or 0) + moved[addr]
        if balance != after.balance:
            violations.append(f"@{addr}: replayed balance {balance} != {after.balance}")
        storage = storages.get(addr, after.storage if before is None else before.storage)
        if storage != after.storage:
            violations.append(f"@{addr}: replayed storage differs")
    return ValidationReport("trace_replay", not violations, tuple(violations))
