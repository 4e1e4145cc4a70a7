"""Core domain types: values, type tags, contracts, environments, operations.

Everything here is an immutable value. State changes are expressed by
building new values (`Environment.updated`, `Contract.with_storage`), so any
snapshot taken before an update stays valid; transaction revert is "keep the
old environment".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Union

if TYPE_CHECKING:
    from .features import FeatureSet

# Addresses are opaque tokens; amounts are mutez in the unsigned 64-bit range.
MAX_MUTEZ = 2**64 - 1


class AmountError(ValueError):
    """Checked mutez arithmetic went out of the 64-bit unsigned range."""


_ADDRESS = re.compile(r"\S+")


def check_address(token: str) -> str:
    if not isinstance(token, str) or not _ADDRESS.fullmatch(token):
        raise ValueError(f"invalid address token: {token!r}")
    return token


def check_amount(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0 or n > MAX_MUTEZ:
        raise AmountError(f"amount out of range: {n!r}")
    return n


def amount_add(a: int, b: int) -> int:
    return check_amount(check_amount(a) + check_amount(b))


# ---------------------------------------------------------------------------
# Type tags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeTag:
    """Structural type of a runtime value.

    `kind` is one of unit/nat/int/bool/string/mutez/address/pair/list;
    pair takes two args, list one.
    """

    kind: str
    args: tuple["TypeTag", ...] = ()


UNIT = TypeTag("unit")
NAT = TypeTag("nat")
INT = TypeTag("int")
BOOL = TypeTag("bool")
STRING = TypeTag("string")
MUTEZ = TypeTag("mutez")
ADDRESS = TypeTag("address")


def pair_t(left: TypeTag, right: TypeTag) -> TypeTag:
    return TypeTag("pair", (left, right))


def list_t(elem: TypeTag) -> TypeTag:
    return TypeTag("list", (elem,))


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitV:
    pass


@dataclass(frozen=True)
class NatV:
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"nat payload must be a non-negative int: {self.n!r}")


@dataclass(frozen=True)
class IntV:
    i: int

    def __post_init__(self) -> None:
        if not isinstance(self.i, int) or isinstance(self.i, bool):
            raise ValueError(f"int payload must be an int: {self.i!r}")


@dataclass(frozen=True)
class BoolV:
    b: bool

    def __post_init__(self) -> None:
        if not isinstance(self.b, bool):
            raise ValueError(f"bool payload must be a bool: {self.b!r}")


@dataclass(frozen=True)
class StringV:
    s: str

    def __post_init__(self) -> None:
        if not isinstance(self.s, str):
            raise ValueError(f"string payload must be a str: {self.s!r}")


@dataclass(frozen=True)
class MutezV:
    mutez: int

    def __post_init__(self) -> None:
        check_amount(self.mutez)


@dataclass(frozen=True)
class AddressV:
    addr: str

    def __post_init__(self) -> None:
        check_address(self.addr)


@dataclass(frozen=True)
class PairV:
    left: "Value"
    right: "Value"


@dataclass(frozen=True)
class ListV:
    items: tuple["Value", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if self.items:
            head = value_type(self.items[0])
            for item in self.items[1:]:
                if value_type(item) != head:
                    raise ValueError("list elements must share one type")


Value = Union[UnitV, NatV, IntV, BoolV, StringV, MutezV, AddressV, PairV, ListV]

UNIT_VALUE = UnitV()


def value_type(v: Value) -> TypeTag:
    """Most specific tag inhabited by `v`. Empty lists infer as list unit."""
    if isinstance(v, UnitV):
        return UNIT
    if isinstance(v, NatV):
        return NAT
    if isinstance(v, IntV):
        return INT
    if isinstance(v, BoolV):
        return BOOL
    if isinstance(v, StringV):
        return STRING
    if isinstance(v, MutezV):
        return MUTEZ
    if isinstance(v, AddressV):
        return ADDRESS
    if isinstance(v, PairV):
        return pair_t(value_type(v.left), value_type(v.right))
    if isinstance(v, ListV):
        return list_t(value_type(v.items[0]) if v.items else UNIT)
    raise TypeError(f"not a value: {v!r}")


def value_typecheck(v: Value, t: TypeTag) -> bool:
    """True iff `v` structurally inhabits `t`. Total; never raises on values."""
    if t.kind == "unit":
        return isinstance(v, UnitV)
    if t.kind == "nat":
        return isinstance(v, NatV)
    if t.kind == "int":
        return isinstance(v, IntV)
    if t.kind == "bool":
        return isinstance(v, BoolV)
    if t.kind == "string":
        return isinstance(v, StringV)
    if t.kind == "mutez":
        return isinstance(v, MutezV)
    if t.kind == "address":
        return isinstance(v, AddressV)
    if t.kind == "pair":
        return (
            isinstance(v, PairV)
            and value_typecheck(v.left, t.args[0])
            and value_typecheck(v.right, t.args[1])
        )
    if t.kind == "list":
        return isinstance(v, ListV) and all(
            value_typecheck(item, t.args[0]) for item in v.items
        )
    raise ValueError(f"unknown type tag kind: {t.kind!r}")


def _escape(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t")


_LEAF_RENDERERS: dict[type, Callable[..., str]] = {
    UnitV: lambda v: "unit",
    NatV: lambda v: str(v.n),
    IntV: lambda v: str(v.i),
    BoolV: lambda v: "true" if v.b else "false",
    StringV: lambda v: f'"{_escape(v.s)}"',
    MutezV: lambda v: f"mutez {v.mutez}",
    AddressV: lambda v: f"@{v.addr}",
}


def render_value(v: Value) -> str:
    """Render a value in scenario literal syntax.

    Non-negative IntV renders as a bare integer, which re-parses as NatV;
    every other value round-trips through the scenario parser. Pairs and
    lists are rendered from an explicit stack, so nesting depth is bounded
    by memory, not by the interpreter's recursion limit.
    """
    leaf = _LEAF_RENDERERS.get(type(v))
    if leaf is not None:
        return leaf(v)
    parts: list[str] = []
    # Values still to render and literal text, last to be rendered first.
    todo: list[Union[Value, str]] = [v]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        leaf = _LEAF_RENDERERS.get(type(item))
        if leaf is not None:
            parts.append(leaf(item))
        elif isinstance(item, PairV):
            parts.append("(pair ")
            todo += (")", item.right, " ", item.left)
        elif isinstance(item, ListV):
            parts.append("[")
            todo.append("]")
            for k in range(len(item.items) - 1, -1, -1):
                todo.append(item.items[k])
                if k:
                    todo.append(", ")
        else:
            raise TypeError(f"not a value: {item!r}")
    return "".join(parts)


def nest_values(values: tuple[Value, ...] | list[Value]) -> Value:
    """Fold an argument list into a right-nested pair chain (empty -> unit)."""
    values = tuple(values)
    if not values:
        return UNIT_VALUE
    if len(values) == 1:
        return values[0]
    return PairV(values[0], nest_values(values[1:]))


def make_param(entrypoint: str, *args: Value) -> Value:
    """Uniform invocation parameter: (entrypoint name, right-nested args)."""
    return PairV(StringV(entrypoint), nest_values(args))


# ---------------------------------------------------------------------------
# Contracts and environments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contract:
    """An installed contract. Only storage and balance ever change; code_key,
    the storage type, config and the contextual flag are fixed at creation.
    The entrypoints live with the code (`registry.ContractDef`)."""

    storage_type: TypeTag
    storage: Value
    balance: int
    code_key: str
    config: Value
    contextual: bool = False

    def __post_init__(self) -> None:
        check_amount(self.balance)
        if not value_typecheck(self.storage, self.storage_type):
            raise ValueError(
                f"storage {render_value(self.storage)} does not inhabit its declared type"
            )

    def with_balance(self, balance: int) -> "Contract":
        # The storage is unchanged and was typechecked when `self` was built,
        # so only the new amount needs a check.
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, balance=check_amount(balance))
        return clone

    def with_storage(self, storage: Value) -> "Contract":
        # Only the storage changes, so only it needs a check. The message
        # does not render `storage`, which a contract body may have built
        # from anything.
        if not value_typecheck(storage, self.storage_type):
            raise ValueError("new storage does not inhabit its declared type")
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, storage=storage)
        return clone


@dataclass(frozen=True)
class Environment:
    """Partial map address -> contract. Updates copy; old snapshots stay valid.

    The backing dict is owned by the instance and must not be mutated.
    """

    accounts: dict[str, Contract] = field(default_factory=dict)

    def get(self, addr: str) -> Optional[Contract]:
        return self.accounts.get(addr)

    def __contains__(self, addr: str) -> bool:
        return addr in self.accounts

    def addresses(self) -> tuple[str, ...]:
        return tuple(sorted(self.accounts))

    def updated(self, addr: str, contract: Contract) -> "Environment":
        accounts = dict(self.accounts)
        accounts[check_address(addr)] = contract
        return Environment(accounts)

    def total_balance(self) -> int:
        total = 0
        for contract in self.accounts.values():
            total = amount_add(total, contract.balance)
        return total


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    dest: str
    amount: int
    param: Value

    def __post_init__(self) -> None:
        check_address(self.dest)
        check_amount(self.amount)


@dataclass(frozen=True)
class CreateContract:
    addr: str
    amount: int
    storage: Value
    code_key: str
    config: Value

    def __post_init__(self) -> None:
        check_address(self.addr)
        check_amount(self.amount)


@dataclass(frozen=True)
class AtomicBundle:
    ops: tuple["Operation", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class ContextBundle:
    ops: tuple["Operation", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class Restricted:
    """Narrows the invocable address universe for the wrapped operations.

    A wrapper is either an allow list (`block` is None) or a block list
    (`allow` is None); nesting composes. Construction normalises to one of
    the two: neither set means an empty block list, an allow list drops an
    empty block set, and an allow list with a non-empty block set is an error.
    """

    ops: tuple["Operation", ...] = ()
    allow: Optional[frozenset[str]] = None
    block: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        block: Optional[frozenset[str]] = frozenset(self.block or ())
        if self.allow is not None:
            if block:
                raise ValueError("a restriction wrapper takes allow or block, not both")
            object.__setattr__(self, "allow", frozenset(self.allow))
            block = None
        object.__setattr__(self, "block", block)


@dataclass(frozen=True)
class EndInteractions:
    pass


Operation = Union[
    Transfer, CreateContract, AtomicBundle, ContextBundle, Restricted, EndInteractions
]

WRAPPER_OPS = (AtomicBundle, ContextBundle, Restricted)


# ---------------------------------------------------------------------------
# Execution contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictionState:
    """Allow/block address sets inherited down a transaction tree.

    allow=None means the full universe. Child states only ever shrink allow
    and grow block (see features.narrow_restrictions).
    """

    allow: Optional[frozenset[str]] = None
    block: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ExecutionContext:
    """Who emitted the operation (sender), who authored the transaction
    (source), and the transaction-scoped control state."""

    sender: str
    source: str
    restrictions: RestrictionState = RestrictionState()
    end_interactions_owner: Optional[str] = None
    level: int = 0


@dataclass(frozen=True)
class PendingOp:
    """A queued operation with what belongs to it alone: who emitted it and
    the restrictions it runs under. `parent` is the trace node id of the
    emitting execution (None for externally submitted ops). The transaction's
    author, timestamp and end-of-interactions owner live with the driver."""

    op: Operation
    sender: str
    restrictions: RestrictionState = RestrictionState()
    parent: Optional[int] = None


@dataclass(frozen=True)
class CallContext:
    """Everything a contract body may observe about the chain.

    Bodies are deterministic functions of (CallContext, param, storage); the
    view/pending_balance capabilities are the only way to read other
    contracts. They read the environment and the pending queue of this call,
    and are valid only while it runs: the scheduler changes the queue once
    the call has returned.
    """

    self_addr: str
    sender: str
    source: str
    amount: int
    self_balance: int
    level: int
    config: Value
    features: "FeatureSet"
    view: Callable[[str], Value] = field(compare=False, repr=False, default=None)  # type: ignore[assignment]
    pending_balance: Callable[[str], int] = field(compare=False, repr=False, default=None)  # type: ignore[assignment]


# ---------------------------------------------------------------------------
# Operation rendering
# ---------------------------------------------------------------------------


def split_param(param: Value) -> Optional[tuple[str, tuple[Value, ...]]]:
    """Inverse of make_param: (entrypoint, args), or None if `param` is not an
    (entrypoint name, args) pair. Only a top-level unit means no arguments, so
    a trailing unit argument survives and make_param(name, *args) == param."""
    if not (isinstance(param, PairV) and isinstance(param.left, StringV)):
        return None
    args: list[Value] = []
    rest = param.right
    while isinstance(rest, PairV):
        args.append(rest.left)
        rest = rest.right
    if args or not isinstance(rest, UnitV):
        args.append(rest)
    return param.left.s, tuple(args)


def _render_args(args: tuple[Value, ...]) -> str:
    return ", ".join(render_value(v) for v in args)


def _wrapper_parts(op: Operation) -> tuple[str, Optional[list[str]]]:
    """A wrapper's keyword plus, for a restriction, its addresses sorted."""
    if isinstance(op, AtomicBundle):
        return "atomic", None
    if isinstance(op, ContextBundle):
        return "context", None
    if isinstance(op, Restricted):
        if op.allow is not None:
            return "allow", sorted(op.allow)
        return "block", sorted(op.block or ())
    raise TypeError(f"unknown operation: {op!r}")


def render_op(op: Operation, indent: int = 0) -> str:
    """Render an operation in scenario syntax, wrapper members one per line
    below their wrapper. A ("default", unit) transfer prints bare."""
    pad = "  " * indent
    if isinstance(op, Transfer):
        call = split_param(op.param)
        if call is None:
            raise ValueError(f"not an entrypoint call: {render_value(op.param)}")
        line = f"{pad}transfer {op.amount} to @{op.dest}"
        if call != ("default", ()):
            line += f" call {call[0]}({_render_args(call[1])})"
        return line
    if isinstance(op, CreateContract):
        return (
            f"{pad}create @{op.addr} code {op.code_key} config {render_value(op.config)}"
            f" storage {render_value(op.storage)} balance {op.amount}"
        )
    if isinstance(op, EndInteractions):
        return f"{pad}end_interactions"
    head, addrs = _wrapper_parts(op)
    if addrs is not None:
        head += f" [{' '.join('@' + a for a in addrs)}]"
    members = [render_op(o, indent + 1) for o in op.ops]
    return "\n".join([f"{pad}{head} {{", *members, f"{pad}}}"])


def render_op_brief(op: Operation) -> str:
    """One-line rendering used in queue states: `dest.entrypoint(args)`."""
    if isinstance(op, Transfer):
        call = split_param(op.param)
        if call is None:
            return f"{op.dest}!{render_value(op.param)}"
        return f"{op.dest}.{call[0]}({_render_args(call[1])})"
    if isinstance(op, CreateContract):
        return f"create {op.addr}"
    if isinstance(op, EndInteractions):
        return "end_interactions"
    head, addrs = _wrapper_parts(op)
    if addrs is not None:
        head += f"[{', '.join('@' + a for a in addrs)}]"
    return head + "{" + ", ".join(render_op_brief(o) for o in op.ops) + "}"


def render_stack(frames: Iterable[Iterable[PendingOp]]) -> str:
    """A pending-queue state as printed by --step: frames of (sender, op)."""
    rendered = []
    for frame in frames:
        pending = ", ".join(f"({p.sender}, {render_op_brief(p.op)})" for p in frame)
        rendered.append(f"[{pending}]")
    return "[" + ", ".join(rendered) + "]"
