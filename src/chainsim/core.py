"""Core domain types: values, type tags, contracts, environments, operations,
and the call context through which a contract body reads the chain.

Everything here is an immutable value. State changes are expressed by
building new values (`Environment.updated`, `Contract.with_storage`), so any
snapshot taken before an update stays valid; transaction revert is "keep the
old environment".
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field accessor
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

from .features import FeatureSet

# Addresses are identifiers; amounts are mutez in the unsigned 64-bit range.
MAX_MUTEZ = 2**64 - 1


class AmountError(ValueError):
    """Checked mutez arithmetic went out of the 64-bit unsigned range."""


class ExecError(Exception):
    """An operation could not execute; aborts (reverts) the transaction.
    `kind` names the precondition that failed (see `executor` for the rest
    of the kinds)."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


# The error kinds a contract body's reads of the chain can raise.
UNKNOWN_ADDRESS = "unknown_address"
FEATURE_DISABLED = "feature_disabled"


# The one identifier syntax, of addresses and of the names in scenario text:
# the scanner builds its tokens from it, so every address prints parseably.
IDENTIFIER = "[A-Za-z_][A-Za-z0-9_]*"


def check_address(token: str) -> str:
    # An ASCII Python identifier is exactly a match of IDENTIFIER.
    if not (isinstance(token, str) and token.isascii() and token.isidentifier()):
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
# Records
# ---------------------------------------------------------------------------

_new_tuple = tuple.__new__


class _Record(tuple):
    """An immutable record backed by a tuple, so no caller can change one in
    place, not even with `object.__setattr__`.

    A subclass lists its fields in `_fields`; they sit after its `_HIDDEN`
    leading slots, and each gets a read-only accessor. It validates and
    builds its instances in `__new__`. A record is read by field name:
    iterating one is refused, as for any object that is not a container.
    Records of different classes never compare equal, and no record equals
    a plain tuple. An operation's or contract's hash is worked out from its
    fields when asked for; a value carries its own (see `Value`), and a tag
    hashes by identity (see `TypeTag`).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _HIDDEN = 0

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, _tuplegetter(cls._HIDDEN + i, f"Field {name!r}"))

    def __iter__(self) -> Iterator[object]:
        raise TypeError(f"{type(self).__name__!r} object is not iterable")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, tuple) else NotImplemented
        return _records_equal(self, other)

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self) -> int:
        """The hash of the record flattened in pre-order: each nested record
        that hashes this way and each plain tuple gives its type and length,
        then its members; any other field, a value or a tag among them, is
        hashed as it is. The walk runs from an explicit stack, so nesting
        depth is bounded by memory."""
        flat: list[object] = []
        todo: list[object] = [self]
        while todo:
            item = todo.pop()
            if type(item) is tuple or type(item).__hash__ is _Record.__hash__:
                members = item if type(item) is tuple else item[item._HIDDEN :]
                flat += (type(item), len(members))
                todo += reversed(members)
            else:
                flat.append(item)
        return hash(tuple(flat))

    def __repr__(self) -> str:
        """`Name(field=value, ...)`. Records and plain tuples nested in this
        one are opened from an explicit stack, so nesting depth is bounded by
        memory; any other field prints as its own `repr`."""
        parts: list[str] = []
        todo: list[object] = [self]  # records and tuples to print, and text; last first
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            if isinstance(item, _Record):
                parts.append(f"{type(item).__name__}(")
                members, labels = item[item._HIDDEN :], [f"{name}=" for name in item._fields]
            else:
                parts.append("(")
                members, labels = item, [""] * len(item)
            todo.append(",)" if members is item and len(item) == 1 else ")")
            for k in range(len(members) - 1, -1, -1):
                x = members[k]
                todo.append(x if isinstance(x, _Record) or type(x) is tuple else repr(x))
                todo.append(f", {labels[k]}" if k else labels[k])
        return "".join(parts)

    def __reduce__(self) -> tuple:
        return type(self), self[self._HIDDEN :]

    def __deepcopy__(self, memo: dict) -> "_Record":
        return self


def _records_equal(a: _Record, b: _Record) -> bool:
    """`a == b` for two records of one class: the same hash for values,
    then the same fields, nested records and tuples of them compared from
    an explicit stack, so nesting depth is bounded by memory."""
    todo: list[tuple[object, object]] = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if not isinstance(a, _Record):
            if a != b:
                return False
            continue
        if type(a) is not type(b) or (isinstance(a, Value) and a._hash != b._hash):
            return False
        for x, y in zip(a[a._HIDDEN :], b[a._HIDDEN :]):
            if isinstance(x, _Record):
                todo.append((x, y))
            elif type(x) is tuple and type(y) is tuple:
                if len(x) != len(y):
                    return False
                todo += zip(x, y)
            elif x != y:
                return False
    return True


# ---------------------------------------------------------------------------
# Type tags
# ---------------------------------------------------------------------------


class TypeTag(_Record):
    """Structural type of a runtime value.

    `kind` is one of unit/nat/int/bool/string/mutez/address/pair/list;
    pair takes two args, list one. Tags are interned: building a structure
    returns the one tag that exists for it, so two tags are equal exactly
    when they are the same object, and a tag hashes by identity, which
    costs nothing at any depth.
    """

    __slots__ = ()
    _fields = ("kind", "args")
    kind: str
    args: tuple["TypeTag", ...]

    def __new__(cls, kind: str, args: Iterable["TypeTag"] = ()) -> "TypeTag":
        return _interned((kind, *args))

    __hash__ = object.__hash__


# (kind, *args) -> the one tag for it. Every tag stays: programs use a
# handful of types, made once each.
_TAGS: dict[tuple, TypeTag] = {}


def _interned(key: tuple) -> TypeTag:
    """The tag for `key`, (kind, *args), made if it does not exist."""
    tag = _TAGS.get(key)
    if tag is None:
        tag = _TAGS[key] = _new_tuple(TypeTag, (key[0], key[1:]))
    return tag


UNIT = TypeTag("unit")
NAT = TypeTag("nat")
INT = TypeTag("int")
BOOL = TypeTag("bool")
STRING = TypeTag("string")
MUTEZ = TypeTag("mutez")
ADDRESS = TypeTag("address")
_LEAF_KINDS = frozenset(("unit", "nat", "int", "bool", "string", "mutez", "address"))


def pair_t(left: TypeTag, right: TypeTag) -> TypeTag:
    return _interned(("pair", left, right))


def list_t(elem: TypeTag) -> TypeTag:
    return _interned(("list", elem))


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value(_Record):
    """A runtime value. Each carries its interned type tag and its hash in
    two leading slots, computed once at construction from its payload or
    its children's, so neither needs a walk. A leaf's hash is its payload's:
    `NatV(1)` and `IntV(1)` share a hash, and `==` tells them apart."""

    __slots__ = ()
    _HIDDEN = 2
    _tag = _tuplegetter(0, "The value's interned type tag.")
    _hash = _tuplegetter(1, "The value's hash.")

    def __hash__(self) -> int:
        return self._hash


class UnitV(Value):
    __slots__ = ()

    def __new__(cls) -> "UnitV":
        return _new_tuple(cls, (UNIT, hash(cls)))


class NatV(Value):
    __slots__ = ()
    _fields = ("n",)
    n: int

    def __new__(cls, n: int) -> "NatV":
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"nat payload must be a non-negative int: {n!r}")
        return _new_tuple(cls, (NAT, hash(n), n))


class IntV(Value):
    __slots__ = ()
    _fields = ("i",)
    i: int

    def __new__(cls, i: int) -> "IntV":
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValueError(f"int payload must be an int: {i!r}")
        return _new_tuple(cls, (INT, hash(i), i))


class BoolV(Value):
    __slots__ = ()
    _fields = ("b",)
    b: bool

    def __new__(cls, b: bool) -> "BoolV":
        if not isinstance(b, bool):
            raise ValueError(f"bool payload must be a bool: {b!r}")
        return _new_tuple(cls, (BOOL, hash(b), b))


class StringV(Value):
    __slots__ = ()
    _fields = ("s",)
    s: str

    def __new__(cls, s: str) -> "StringV":
        if not isinstance(s, str):
            raise ValueError(f"string payload must be a str: {s!r}")
        return _new_tuple(cls, (STRING, hash(s), s))


class MutezV(Value):
    __slots__ = ()
    _fields = ("mutez",)
    mutez: int

    def __new__(cls, mutez: int) -> "MutezV":
        check_amount(mutez)
        return _new_tuple(cls, (MUTEZ, hash(mutez), mutez))


class AddressV(Value):
    __slots__ = ()
    _fields = ("addr",)
    addr: str

    def __new__(cls, addr: str) -> "AddressV":
        check_address(addr)
        return _new_tuple(cls, (ADDRESS, hash(addr), addr))


def _not_a_value(v: object) -> TypeError:
    return TypeError(f"not a value: {v!r}")


class PairV(Value):
    __slots__ = ()
    _fields = ("left", "right")
    left: Value
    right: Value

    def __new__(cls, left: Value, right: Value) -> "PairV":
        if not isinstance(left, Value):
            raise _not_a_value(left)
        if not isinstance(right, Value):
            raise _not_a_value(right)
        tag = _interned(("pair", left._tag, right._tag))
        return _new_tuple(cls, (tag, hash((cls, left._hash, right._hash)), left, right))


# The classes whose instances all have one tag, the class's own.
_LEAF_VALUE_TYPES = frozenset((UnitV, NatV, IntV, BoolV, StringV, MutezV, AddressV))
_hash_of = itemgetter(1)


class ListV(Value):
    """A list whose items all have one type tag; an empty list's is list
    unit."""

    __slots__ = ()
    _fields = ("items",)
    items: tuple[Value, ...]

    def __new__(cls, items: Iterable[Value] = ()) -> "ListV":
        items = tuple(items)
        head = value_type(items[0]) if items else UNIT
        classes = set(map(type, items))
        # Items of one leaf class share its tag; any others are checked one
        # by one.
        if len(classes) > 1 or not classes <= _LEAF_VALUE_TYPES:
            for item in items:
                if not isinstance(item, Value):
                    raise _not_a_value(item)
                if item._tag is not head:
                    raise ValueError("list elements must share one type")
        hashed = hash((cls, tuple(map(_hash_of, items))))
        return _new_tuple(cls, (_interned(("list", head)), hashed, items))


UNIT_VALUE = UnitV()


def value_type(v: Value) -> TypeTag:
    """Most specific tag inhabited by `v`. Empty lists infer as list unit."""
    if isinstance(v, Value):
        return v._tag
    raise _not_a_value(v)


def value_typecheck(v: Value, t: TypeTag) -> bool:
    """True iff `v` structurally inhabits `t`. Total; never raises on values.

    A value inhabits its own tag, which is the common case and an identity
    test. Otherwise `v` may still inhabit `t` through an empty list, which
    inhabits every list type, so the structure is compared."""
    if isinstance(v, Value) and v._tag is t:
        return True
    return _inhabits(v, t)


def _inhabits(v: object, t: TypeTag) -> bool:
    """The structural check behind `value_typecheck`, from an explicit stack.
    The items of one list share a tag, so when the first matches the element
    type every item does."""
    todo = [(v, t)]
    while todo:
        v, t = todo.pop()
        if isinstance(v, Value) and v._tag is t:
            continue
        if t.kind == "pair":
            if not isinstance(v, PairV):
                return False
            todo += ((v.right, t.args[1]), (v.left, t.args[0]))
        elif t.kind == "list":
            if not isinstance(v, ListV):
                return False
            elem = t.args[0]
            if v.items and v.items[0]._tag is not elem:
                todo += ((item, elem) for item in reversed(v.items))
        elif t.kind in _LEAF_KINDS:
            return False
        else:
            raise ValueError(f"unknown type tag kind: {t.kind!r}")
    return True


def _escape(s: str) -> str:
    """`s` as the body of a string literal. An identifier, as every
    entrypoint name is, holds none of the escaped characters."""
    if s.isidentifier():
        return s
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
    by memory, not by the interpreter's recursion limit. A pair of two
    leaves, the shape of every entrypoint parameter `(pair "name" arg)`,
    renders in one step.
    """
    leaf = _LEAF_RENDERERS.get(type(v))
    if leaf is not None:
        return leaf(v)
    if type(v) is PairV:
        left = _LEAF_RENDERERS.get(type(v.left))
        right = _LEAF_RENDERERS.get(type(v.right))
        if left is not None and right is not None:
            return f"(pair {left(v.left)} {right(v.right)})"
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
    """Uniform invocation parameter: (entrypoint name, right-nested args).
    Contract bodies build one per emission, and most take one argument or
    none, so those pairs are built directly."""
    if len(args) == 1:
        return PairV(StringV(entrypoint), args[0])
    if not args:
        return PairV(StringV(entrypoint), UNIT_VALUE)
    return PairV(StringV(entrypoint), nest_values(args))


# The parameter of a bare transfer; values are immutable, so transfers share it.
DEFAULT_PARAM = make_param("default")


# ---------------------------------------------------------------------------
# Contracts and environments
# ---------------------------------------------------------------------------


class Contract(_Record):
    """The state an installed contract holds. Only storage and balance ever
    change; code_key, config and the contextual flag are fixed at creation.
    The storage and config types live with the code (`registry.ContractDef`):
    `registry.instantiate` checks both, and the executor each new storage. A
    tuple keeps the one instance per account small and cheap to copy."""

    __slots__ = ()
    _fields = ("storage", "balance", "code_key", "config", "contextual")
    storage: Value
    balance: int
    code_key: str
    config: Value
    contextual: bool

    def __new__(
        cls, storage: Value, balance: int, code_key: str, config: Value, contextual: bool = False
    ) -> "Contract":
        check_amount(balance)
        if not isinstance(storage, Value):
            raise _not_a_value(storage)
        if not isinstance(config, Value):
            raise _not_a_value(config)
        return _new_tuple(cls, (storage, balance, code_key, config, contextual))

    def moved(self, balance: int) -> "Contract":
        """A copy holding `balance`, unchecked: the executor bounds every
        amount it moves before it builds one."""
        return _new_tuple(
            Contract, (self.storage, balance, self.code_key, self.config, self.contextual)
        )

    def with_storage(self, storage: Value) -> "Contract":
        """A copy holding `storage`, unchecked: the executor checks a new
        storage against the code's storage type before it builds one."""
        return _new_tuple(
            Contract, (storage, self.balance, self.code_key, self.config, self.contextual)
        )


# `top` is promoted into `middle` once it holds more entries than this.
_TOP_MAX = 16


class Environment:
    """Partial map address -> contract. Updates share structure; old
    snapshots stay valid.

    An environment has three layers, and none is mutated once an environment
    holds it; a read takes the first layer that has the address. `base` is
    shared by every environment derived from it. `middle` holds older writes
    and folds into a fresh base once `len(middle) ** 2 > 16 * len(base)`, so
    an update over N accounts costs amortised O(sqrt N) instead of a copy of
    all N. `top` holds the newest writes and is promoted into `middle` once
    it holds more than `_TOP_MAX` entries, so `updated` copies at most that
    many entries besides its writes: 8.5 on average in a `block` pass at
    10,000 accounts, against 194 with `top` folded straight into the base.
    Both constants are measured (README): a base factor of 4 folds often
    enough to set the `block` p99, and a top of 8 or 32 runs level with 16.

    `Environment(accounts)` takes ownership of `accounts` without copying it.
    An address is checked once, when it first enters through `updated`.
    """

    __slots__ = ("_base", "_middle", "_top")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, accounts: Optional[dict[str, Contract]] = None) -> None:
        self._base: dict[str, Contract] = {} if accounts is None else accounts
        self._middle: dict[str, Contract] = {}
        self._top: dict[str, Contract] = {}

    @property
    def accounts(self) -> dict[str, Contract]:
        """Every account as one dict, which callers never mutate.

        The first read of a layered environment folds every layer into a
        fresh base that this environment keeps, so later reads return that
        same dict."""
        if self._top or self._middle:
            self._base = {**self._base, **self._middle, **self._top}
            self._middle = {}
            self._top = {}
        return self._base

    def get(self, addr: str) -> Optional[Contract]:
        # A contract is a non-empty tuple, so only a missing one is falsy.
        return self._top.get(addr) or self._middle.get(addr) or self._base.get(addr)

    def __contains__(self, addr: str) -> bool:
        return addr in self._top or addr in self._middle or addr in self._base

    def updated(self, writes: Mapping[str, Contract]) -> "Environment":
        """This environment with each address of `writes` holding its
        contract, in one update: `env.updated({sender: debited, dest:
        credited})`. Each new address, if `top` grew, is checked before an
        environment holds it; `writes` is copied, so the caller may reuse it."""
        base, middle, old = self._base, self._middle, self._top
        top = {**old, **writes}
        if len(top) != len(old):
            for addr in writes:
                if addr not in old and addr not in middle and addr not in base:
                    check_address(addr)
        if len(top) > _TOP_MAX:
            middle = {**middle, **top}
            top = {}
            if len(middle) ** 2 > 16 * len(base):
                base = {**base, **middle}
                middle = {}
        env = object.__new__(Environment)
        env._base = base
        env._middle = middle
        env._top = top
        return env

    def changed_since(self, earlier: "Environment") -> set[str]:
        """The addresses whose contract object differs from `earlier`'s,
        counting one present on only one side. No layer is mutated once held,
        so only addresses in a layer the two environments do not share can
        differ: their tops when they share `middle` and `base`, else their
        middles too, else everything over no base."""
        base, middle = self._base, self._middle
        mine, theirs = self._top, earlier._top
        if base is not earlier._base:
            mine = {**base, **middle, **mine}
            theirs = {**earlier._base, **earlier._middle, **theirs}
            base = middle = {}
        elif middle is not earlier._middle:
            mine = {**middle, **mine}
            theirs = {**earlier._middle, **theirs}
            middle = {}
        return {
            a for a in mine.keys() | theirs.keys()
            if (mine.get(a) or middle.get(a) or base.get(a))
            is not (theirs.get(a) or middle.get(a) or base.get(a))
        }

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


class Operation(_Record):
    """An operation a transaction submits or a contract body emits."""

    __slots__ = ()


class Transfer(Operation):
    __slots__ = ()
    _fields = ("dest", "amount", "param")
    dest: str
    amount: int
    param: Value

    def __new__(cls, dest: str, amount: int, param: Value) -> "Transfer":
        # Only arguments other than an exact address and int need the calls.
        if not (type(dest) is str and dest.isascii() and dest.isidentifier()):
            check_address(dest)
        if not (type(amount) is int and 0 <= amount <= MAX_MUTEZ):
            check_amount(amount)
        if not isinstance(param, Value):
            raise ValueError(f"transfer parameter is not a value: {param!r}")
        return _new_tuple(cls, (dest, amount, param))


class CreateContract(Operation):
    __slots__ = ()
    _fields = ("addr", "amount", "storage", "code_key", "config")
    addr: str
    amount: int
    storage: Value
    code_key: str
    config: Value

    def __new__(
        cls, addr: str, amount: int, storage: Value, code_key: str, config: Value
    ) -> "CreateContract":
        check_address(addr)
        check_amount(amount)
        if not isinstance(storage, Value):
            raise ValueError(f"created storage is not a value: {storage!r}")
        if not isinstance(config, Value):
            raise ValueError(f"created config is not a value: {config!r}")
        return _new_tuple(cls, (addr, amount, storage, code_key, config))


class AtomicBundle(Operation):
    __slots__ = ()
    _fields = ("ops",)
    ops: tuple[Operation, ...]

    def __new__(cls, ops: Iterable[Operation] = ()) -> "AtomicBundle":
        return _new_tuple(cls, (tuple(ops),))


class ContextBundle(Operation):
    __slots__ = ()
    _fields = ("ops",)
    ops: tuple[Operation, ...]

    def __new__(cls, ops: Iterable[Operation] = ()) -> "ContextBundle":
        return _new_tuple(cls, (tuple(ops),))


class Restricted(Operation):
    """Narrows the invocable address universe for the wrapped operations.

    A wrapper is either an allow list (`block` is None) or a block list
    (`allow` is None); nesting composes, as a call may reach an address only
    if every wrapper around it `permits` it. Construction normalises to one
    of the two: neither set means an empty block list, an allow list drops an
    empty block set, and an allow list with a non-empty block set is an error.
    Every listed entry must be an address token.
    """

    __slots__ = ()
    _fields = ("ops", "allow", "block")
    ops: tuple[Operation, ...]
    allow: Optional[frozenset[str]]
    block: Optional[frozenset[str]]

    def __new__(
        cls,
        ops: Iterable[Operation] = (),
        allow: Optional[Iterable[str]] = None,
        block: Optional[Iterable[str]] = None,
    ) -> "Restricted":
        # A bare string would otherwise list its one-letter addresses.
        if isinstance(allow, str) or isinstance(block, str):
            raise ValueError("a restriction wrapper lists addresses, not one string")
        addrs = frozenset(block or ())
        if allow is None:
            block = addrs
        elif addrs:
            raise ValueError("a restriction wrapper takes allow or block, not both")
        else:
            allow = addrs = frozenset(allow)
            block = None
        for addr in addrs:
            check_address(addr)
        return _new_tuple(cls, (tuple(ops), allow, block))

    def permits(self, dest: str) -> bool:
        """Whether this wrapper lets its members call `dest`."""
        if self.allow is None:
            return dest not in self.block
        return dest in self.allow


class EndInteractions(Operation):
    __slots__ = ()

    def __new__(cls) -> "EndInteractions":
        return _new_tuple(cls, ())


WRAPPER_OPS = (AtomicBundle, ContextBundle, Restricted)

# Each operation class, exactly, to the kind a trace records it as. No
# subclass of these is an operation the scheduler or the trace knows.
OP_KINDS = {
    Transfer: "transfer",
    CreateContract: "create",
    EndInteractions: "end_interactions",
    AtomicBundle: "atomic",
    ContextBundle: "context",
    Restricted: "restricted",
}


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


class ExecutionContext(NamedTuple):
    """Who emitted the operation (sender), who authored the transaction
    (source), and the transaction-scoped control state. `restrictions` are
    the `Restricted` wrappers the operation runs inside, outermost first."""

    sender: str
    source: str
    restrictions: tuple[Restricted, ...] = ()
    end_interactions_owner: Optional[str] = None
    level: int = 0


class PendingOp(NamedTuple):
    """A pending operation as a read of the queue yields it: who emitted it
    and the `Restricted` wrappers it runs inside, outermost first. `parent`
    is the trace node id of the emitting execution (None for externally
    submitted ops). The transaction's author, timestamp and
    end-of-interactions owner live with `run_transaction`."""

    op: Operation
    sender: str
    restrictions: tuple[Restricted, ...] = ()
    parent: Optional[int] = None


class CallContext(_Record):
    """Everything a contract body may observe about the chain.

    Bodies are deterministic functions of (CallContext, param, storage); the
    `view` and `pending_balance` methods are the only way to read other
    contracts. The environment and the queue of this call sit in the two
    hidden slots, which no field names and only the methods read, and are
    valid only while the call runs: the scheduler changes the queue once the
    call has returned.
    """

    __slots__ = ()
    _HIDDEN = 2
    _env = _tuplegetter(0, "The environment of this call.")
    _pending = _tuplegetter(1, "The pending queue of this call.")
    _fields = (
        "self_addr", "sender", "source", "amount", "self_balance", "level",
        "config", "features",
    )
    self_addr: str
    sender: str
    source: str
    amount: int
    self_balance: int
    level: int
    config: Value
    features: FeatureSet

    def __new__(
        cls,
        self_addr: str,
        sender: str,
        source: str,
        amount: int,
        self_balance: int,
        level: int,
        config: Value,
        features: FeatureSet,
    ) -> "CallContext":
        """A context over an empty chain, for calling a body directly. The
        executor builds its contexts over the environment and queue of the
        call."""
        return _new_tuple(
            cls,
            (
                Environment(), (), self_addr, sender, source, amount,
                self_balance, level, config, features,
            ),
        )

    def __reduce__(self) -> tuple:
        # The hidden slots are not derived from the fields, so a copy keeps them.
        return _new_tuple, (CallContext, self[:])

    def view(self, addr: str) -> Value:
        return view_storage(self._env, addr, self.features)

    def pending_balance(self, addr: str) -> int:
        return pending_balance(self._env, addr, self._pending, self.features)


def view_storage(env: Environment, addr: str, features: FeatureSet) -> Value:
    """Synchronous effect-free read of another contract's current storage."""
    if not features.views:
        raise ExecError(FEATURE_DISABLED, "views feature disabled")
    contract = env.get(addr)
    if contract is None:
        raise ExecError(UNKNOWN_ADDRESS, f"view of absent address @{addr}")
    return contract.storage


def _pending_debits(pending: Iterable[PendingOp], addr: str) -> int:
    ops = (p.op for p in pending if p.sender == addr)
    return sum(op.amount for _, op in walk_ops(ops) if isinstance(op, Transfer))


def pending_balance(
    env: Environment, addr: str, pending: Iterable[PendingOp], features: FeatureSet
) -> int:
    """Balance of `addr` minus its emitted-but-unexecuted outgoing transfers.

    Pending incoming transfers are not added, so an observer sees the
    compromised balance of a sender but not the receiver's pending credit.
    May be negative; returns a signed mutez count. `pending` is read when this
    is called: a contract body's `pending_balance` method sees the queue of
    the call its context was built for, and is valid only while that call
    runs.
    """
    if not features.pending_balance:
        raise ExecError(FEATURE_DISABLED, "pending_balance feature disabled")
    contract = env.get(addr)
    if contract is None:
        raise ExecError(UNKNOWN_ADDRESS, f"pending balance of absent address @{addr}")
    return contract.balance - _pending_debits(pending, addr)


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
