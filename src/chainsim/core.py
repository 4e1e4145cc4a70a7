"""Core domain types: values, type tags, contracts, environments, operations.

Everything here is an immutable value. State changes are expressed by
building new values (`Environment.updated`, `Contract.with_storage`), so any
snapshot taken before an update stays valid; transaction revert is "keep the
old environment".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

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
    if type(n) is int and 0 <= n <= MAX_MUTEZ:
        return n
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
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        if items:
            head = value_type(items[0])
            # Items of one leaf class share its type; only pairs and lists
            # need their type worked out.
            leaf = None if isinstance(items[0], (PairV, ListV)) else type(items[0])
            for item in items[1:]:
                if type(item) is not leaf and value_type(item) != head:
                    raise ValueError("list elements must share one type")


Value = Union[UnitV, NatV, IntV, BoolV, StringV, MutezV, AddressV, PairV, ListV]

# The value classes, for `isinstance`; pairs first, as every call parameter is one.
_VALUE_TYPES = (PairV, UnitV, NatV, IntV, BoolV, StringV, MutezV, AddressV, ListV)

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
    nested = values[-1]
    for value in reversed(values[:-1]):
        nested = PairV(value, nested)
    return nested


def make_param(entrypoint: str, *args: Value) -> Value:
    """Uniform invocation parameter: (entrypoint name, right-nested args)."""
    return PairV(StringV(entrypoint), nest_values(args))


# ---------------------------------------------------------------------------
# Contracts and environments
# ---------------------------------------------------------------------------


class _ContractFields(NamedTuple):
    storage_type: TypeTag
    storage: Value
    balance: int
    code_key: str
    config: Value
    contextual: bool = False


_new_tuple = tuple.__new__


class Contract(_ContractFields):
    """An installed contract. Only storage and balance ever change; code_key,
    the storage type, config and the contextual flag are fixed at creation.
    The entrypoints live with the code (`registry.ContractDef`). A tuple
    keeps the one instance per account small and cheap to copy."""

    __slots__ = ()

    def __new__(
        cls,
        storage_type: TypeTag,
        storage: Value,
        balance: int,
        code_key: str,
        config: Value,
        contextual: bool = False,
    ) -> "Contract":
        check_amount(balance)
        if not value_typecheck(storage, storage_type):
            raise ValueError(
                f"storage {render_value(storage)} does not inhabit its declared type"
            )
        return _new_tuple(cls, (storage_type, storage, balance, code_key, config, contextual))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Contract":
        # Checked like construction, so `_replace`, which builds its copy
        # here, cannot skip the checks either.
        return cls(*iterable)

    def moved(self, balance: int) -> "Contract":
        """A copy holding `balance`, unchecked: the executor bounds every
        amount it moves before it builds one. `_replace(balance=...)` is the
        checked copy."""
        storage_type, storage, _, code_key, config, contextual = self
        return _new_tuple(
            self.__class__, (storage_type, storage, balance, code_key, config, contextual)
        )

    def with_storage(self, storage: Value) -> "Contract":
        # Only the storage changes, so only it needs a check. The message
        # does not render `storage`, which a contract body may have built
        # from anything.
        if not value_typecheck(storage, self.storage_type):
            raise ValueError("new storage does not inhabit its declared type")
        storage_type, _, balance, code_key, config, contextual = self
        return _new_tuple(
            self.__class__, (storage_type, storage, balance, code_key, config, contextual)
        )


class Environment:
    """Partial map address -> contract. Updates share structure; old
    snapshots stay valid.

    An environment is a `base` dict, shared by every environment derived from
    it, and a `top` dict of the writes made since `base` was built; `top`
    wins. Neither dict is mutated once an environment holds it. `updated`
    copies only `top`, and folds it into a fresh base once
    `len(top) ** 2 > len(base)`, so an update over N accounts costs
    amortised O(sqrt N) instead of a copy of all N.

    `Environment(accounts)` takes ownership of `accounts` without copying it.
    An address is checked once, when it first enters through `updated`.
    """

    __slots__ = ("_base", "_top")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, accounts: Optional[dict[str, Contract]] = None) -> None:
        self._base: dict[str, Contract] = {} if accounts is None else accounts
        self._top: dict[str, Contract] = {}

    @property
    def accounts(self) -> dict[str, Contract]:
        """Every account as one dict, which callers never mutate.

        The first read of a layered environment folds `top` into a fresh base
        that this environment keeps, so later reads return that same dict."""
        if self._top:
            self._base = {**self._base, **self._top}
            self._top = {}
        return self._base

    def get(self, addr: str) -> Optional[Contract]:
        contract = self._top.get(addr)
        return self._base.get(addr) if contract is None else contract

    def __contains__(self, addr: str) -> bool:
        return addr in self._top or addr in self._base

    def addresses(self) -> tuple[str, ...]:
        return tuple(sorted(self.accounts))

    def updated(
        self, addr: str, contract: Contract, *more: Union[str, Contract]
    ) -> "Environment":
        """This environment with `addr` holding `contract`. `more` holds
        further address, contract pairs, flat, written in the same update in
        order, so a later write to an address wins:
        `env.updated("a", debited, "b", credited)`."""
        base = self._base
        old = self._top
        if addr not in old and addr not in base:
            check_address(addr)
        top = {**old, addr: contract}
        if more:
            if len(more) % 2:
                raise TypeError("updated takes address, contract pairs")
            pairs = iter(more)
            for addr, contract in zip(pairs, pairs):
                if addr not in old and addr not in base:
                    check_address(addr)
                top[addr] = contract
        if len(top) ** 2 > len(base):
            base = {**base, **top}
            top = {}
        env = object.__new__(Environment)
        env._base = base
        env._top = top
        return env

    def changed_since(self, earlier: "Environment") -> set[str]:
        """The addresses whose contract object differs from `earlier`'s,
        counting one present on only one side. Neither dict is mutated once
        held, so when both environments hold the same base only addresses in
        either top can differ; otherwise every address is compared."""
        if self._base is earlier._base:
            candidates = self._top.keys() | earlier._top.keys()
            return {addr for addr in candidates if self.get(addr) is not earlier.get(addr)}
        mine = {**self._base, **self._top} if self._top else self._base
        theirs = {**earlier._base, **earlier._top} if earlier._top else earlier._base
        return {addr for addr in mine.keys() | theirs.keys() if mine.get(addr) is not theirs.get(addr)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self.accounts == other.accounts

    def __repr__(self) -> str:
        return f"Environment(accounts={self.accounts!r})"

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
        if not isinstance(self.param, _VALUE_TYPES):
            raise ValueError(f"transfer parameter is not a value: {self.param!r}")


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
    Every listed entry must be an address token.
    """

    ops: tuple["Operation", ...] = ()
    allow: Optional[frozenset[str]] = None
    block: Optional[frozenset[str]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        # A bare string would otherwise list its one-letter addresses.
        if isinstance(self.allow, str) or isinstance(self.block, str):
            raise ValueError("a restriction wrapper lists addresses, not one string")
        addrs = frozenset(self.block or ())
        if self.allow is None:
            object.__setattr__(self, "block", addrs)
        elif addrs:
            raise ValueError("a restriction wrapper takes allow or block, not both")
        else:
            addrs = frozenset(self.allow)
            object.__setattr__(self, "allow", addrs)
            object.__setattr__(self, "block", None)
        for addr in addrs:
            check_address(addr)


@dataclass(frozen=True)
class EndInteractions:
    pass


Operation = Union[
    Transfer, CreateContract, AtomicBundle, ContextBundle, Restricted, EndInteractions
]

WRAPPER_OPS = (AtomicBundle, ContextBundle, Restricted)


def walk_ops(ops: Iterable[Operation]) -> Iterator[tuple[int, Operation]]:
    """Pre-order walk: (depth, op) for each of `ops` at depth 0 and, right
    after each wrapper, its members one level deeper, in surface order. One
    iterator per open wrapper sits on an explicit stack, so nesting depth is
    bounded by memory, not by the recursion limit."""
    stack = [iter(ops)]
    while stack:
        for op in stack[-1]:
            yield len(stack) - 1, op
            if isinstance(op, WRAPPER_OPS):
                stack.append(iter(op.ops))
                break
        else:
            stack.pop()


# ---------------------------------------------------------------------------
# Execution contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RestrictionState:
    """Allow/block address sets inherited down a transaction tree.

    allow=None means the full universe. Child states only ever shrink allow
    and grow block (see `narrowed`).
    """

    allow: Optional[frozenset[str]] = None
    block: frozenset[str] = frozenset()

    def narrowed(self, op: Restricted) -> "RestrictionState":
        """The state `op`'s members run under: allow sets intersect (absent =
        full universe) and block sets unite, so along any path allow only
        ever shrinks and block only ever grows."""
        if op.allow is None:
            return RestrictionState(self.allow, self.block | op.block)
        allow = op.allow if self.allow is None else self.allow & op.allow
        return RestrictionState(allow, self.block)

    def permits(self, dest: str) -> bool:
        return dest not in self.block and (self.allow is None or dest in self.allow)


class ExecutionContext(NamedTuple):
    """Who emitted the operation (sender), who authored the transaction
    (source), and the transaction-scoped control state."""

    sender: str
    source: str
    restrictions: RestrictionState = RestrictionState()
    end_interactions_owner: Optional[str] = None
    level: int = 0


class PendingOp(NamedTuple):
    """A queued operation with what belongs to it alone: who emitted it and
    the restrictions it runs under. `parent` is the trace node id of the
    emitting execution (None for externally submitted ops). The transaction's
    author, timestamp and end-of-interactions owner live with the driver."""

    op: Operation
    sender: str
    restrictions: RestrictionState = RestrictionState()
    parent: Optional[int] = None


class CallContext(NamedTuple):
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
    features: FeatureSet
    view: Callable[[str], Value] = None  # type: ignore[assignment]
    pending_balance: Callable[[str], int] = None  # type: ignore[assignment]


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
    lines: list[str] = []
    closers: list[str] = []  # the "}" line of each wrapper still open
    for depth, item in walk_ops((op,)):
        while len(closers) > depth:
            lines.append(closers.pop())
        pad = "  " * (indent + depth)
        if isinstance(item, Transfer):
            call = split_param(item.param)
            if call is None:
                raise ValueError(f"not an entrypoint call: {render_value(item.param)}")
            line = f"transfer {item.amount} to @{item.dest}"
            if call != ("default", ()):
                line += f" call {call[0]}({_render_args(call[1])})"
        elif isinstance(item, CreateContract):
            line = (
                f"create @{item.addr} code {item.code_key} config {render_value(item.config)}"
                f" storage {render_value(item.storage)} balance {item.amount}"
            )
        elif isinstance(item, EndInteractions):
            line = "end_interactions"
        else:
            line, addrs = _wrapper_parts(item)
            if addrs is not None:
                line += f" [{' '.join('@' + a for a in addrs)}]"
            line += " {"
            closers.append(pad + "}")
        lines.append(pad + line)
    return "\n".join(lines + closers[::-1])


def render_op_brief(op: Operation) -> str:
    """One-line rendering used in queue states: `dest.entrypoint(args)`."""
    parts: list[str] = []
    open_wrappers, prev_depth = 0, -1
    for depth, item in walk_ops((op,)):
        if depth <= prev_depth:  # not a first member: close what it follows
            parts.append("}" * (open_wrappers - depth) + ", ")
            open_wrappers = depth
        prev_depth = depth
        if isinstance(item, Transfer):
            call = split_param(item.param)
            if call is None:
                parts.append(f"{item.dest}!{render_value(item.param)}")
            else:
                parts.append(f"{item.dest}.{call[0]}({_render_args(call[1])})")
        elif isinstance(item, CreateContract):
            parts.append(f"create {item.addr}")
        elif isinstance(item, EndInteractions):
            parts.append("end_interactions")
        else:
            head, addrs = _wrapper_parts(item)
            if addrs is not None:
                head += f"[{', '.join('@' + a for a in addrs)}]"
            parts.append(head + "{")
            open_wrappers += 1
    return "".join(parts) + "}" * open_wrappers


def render_stack(frames: Iterable[Iterable[PendingOp]]) -> str:
    """A pending-queue state as printed by --step: frames of (sender, op)."""
    rendered = []
    for frame in frames:
        pending = ", ".join(f"({p.sender}, {render_op_brief(p.op)})" for p in frame)
        rendered.append(f"[{pending}]")
    return "[" + ", ".join(rendered) + "]"
