"""Transaction trees and executable validators over them.

A tree records every operation a transaction touched: executed ops, expanded
wrappers, and at most one failing op. Each node holds the operation it
records. Its kind (`OP_KINDS` of the operation's class), destination,
amount, rendered parameter and balance deltas are derived only when it is
exported, and its deltas also when a validator sums them (`_deltas`). Node ids
equal execution order, and parents always precede children.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple, Optional

from .core import (
    OP_KINDS,
    AtomicBundle,
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


def _deltas(status: str, sender: str, dest: str, amount: int) -> dict[str, int]:
    """The one deltas rule: an executed nonzero move from `sender` to another
    `dest` gives the debit and the credit, ordered by address; else none."""
    if status != STATUS_EXECUTED or not amount or sender == dest:
        return {}
    if sender < dest:
        return {sender: -amount, dest: amount}
    return {dest: amount, sender: -amount}


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
    """A node as one dict, from one unpacking of it; `deltas` comes from
    `_deltas`, the rule the validators read too."""
    node_id, parent, sender, op, status, commits = node
    kind = OP_KINDS[type(op)]
    if len(commits) == 1:
        rendered = {commits[0][0]: render_value(commits[0][1])}
    else:
        rendered = {addr: render_value(value) for addr, value in commits}
    if kind == "transfer":
        dest, param = op.dest, op.param
    elif kind == "create":
        dest, param = op.addr, op.storage
    else:
        return {
            "id": node_id, "parent": parent, "seq": node_id, "sender": sender,
            "kind": kind, "status": status, "deltas": {}, "commits": rendered,
        }
    return {
        "id": node_id, "parent": parent, "seq": node_id, "sender": sender,
        "kind": kind, "dest": dest, "amount": op.amount, "param": render_value(param),
        "status": status, "deltas": _deltas(status, sender, dest, op.amount), "commits": rendered,
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
        before, after = env_before.get(addr), env_after.get(addr)
        moved = (0 if after is None else after.balance) - (0 if before is None else before.balance)
        if moved:
            diff[addr] = moved
    return diff


def _report(invariant: str, found: list[tuple[str, str]]) -> ValidationReport:
    """The verdict on `found`'s (address, line) pairs: its lines sorted by
    address, each address's in the order they were found (a stable sort)."""
    if not found:
        return ValidationReport(invariant, True)
    found.sort(key=itemgetter(0))
    return ValidationReport(invariant, False, tuple(line for _, line in found))


def _trace_effects(tree: TransactionTree) -> tuple[dict[str, int], dict[str, Value]]:
    """One walk reading each node's fields once: per address, the sum of its
    `_deltas` (0 for one only committed to: a zero-endowment creation) and the
    last storage committed to it."""
    moved: dict[str, int] = {}
    storages: dict[str, Value] = {}
    for _, _, sender, op, status, commits in tree.nodes:
        kind = type(op)
        if kind is Transfer or kind is CreateContract:
            dest = op.dest if kind is Transfer else op.addr
            for addr, delta in _deltas(status, sender, dest, op.amount).items():
                moved[addr] = moved.get(addr, 0) + delta
        for addr, value in commits:
            moved.setdefault(addr, 0)
            storages[addr] = value
    return moved, storages


def validate_no_double_spend(
    tree: TransactionTree, env_before: Environment, env_after: Environment
) -> ValidationReport:
    """Every balance movement is explained by exactly one executed operation:
    per address, the environment delta equals the sum of node deltas."""
    if not tree.committed:
        raise ValueError("no-double-spend applies to committed transactions")
    claimed = _trace_effects(tree)[0]
    actual = _balance_diff(env_before, env_after)
    found = []
    for addr in claimed.keys() | actual.keys():
        c, a = claimed.get(addr, 0), actual.get(addr, 0)
        if c != a:
            found.append((addr, f"@{addr}: environment moved {a} but trace accounts for {c}"))
    return _report("no_double_spend", found)


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
        if type(node.op) is AtomicBundle
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
    moved, storages = _trace_effects(tree)
    found = []
    for addr in moved.keys() | env_after.changed_since(env_before):
        before = env_before.get(addr)
        after = env_after.get(addr)
        if after is None:
            found.append((addr, f"@{addr}: replay creates an address the chain lacks"))
            continue
        balance = None if before is None else before.balance
        if addr in moved:
            balance = (balance or 0) + moved[addr]
        if balance != after.balance:
            found.append((addr, f"@{addr}: replayed balance {balance} != {after.balance}"))
        storage = storages.get(addr, after.storage if before is None else before.storage)
        if storage != after.storage:
            found.append((addr, f"@{addr}: replayed storage differs"))
    return _report("trace_replay", found)
