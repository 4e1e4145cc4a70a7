"""Scenario text format: parser, printer, and runner.

A scenario declares accounts/contracts plus scheduler settings, submits
transactions, and states expectations over the final chain, each of which
prints its own `expect` line and judges a run itself. The format is UTF-8
text, whitespace-insensitive with `#` line comments; see the repository
scenarios/ directory for committed fixtures.
"""

from __future__ import annotations

import dataclasses
import re
import sys
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

from . import registry
from .core import (
    AddressV,
    AmountError,
    AtomicBundle,
    BoolV,
    ContextBundle,
    Contract,
    CreateContract,
    DEFAULT_PARAM,
    EndInteractions,
    Environment,
    IDENTIFIER,
    IntV,
    ListV,
    MAX_MUTEZ,
    MutezV,
    NatV,
    Operation,
    PairV,
    Restricted,
    StringV,
    Transfer,
    UNIT_VALUE,
    Value,
    check_address,
    make_param,
    render_op,
    render_value,
    walk_ops,
)
from .features import FEATURE_NAMES, FeatureSet
from .scheduler import (
    DEFAULT_FUEL,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_block,
)
from .trace import TransactionTree


class ScenarioParseError(Exception):
    """Parse failure with a 1-based position at the first offending token."""

    def __init__(self, line: int, column: int, expected: str, found: str) -> None:
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


class SetupError(Exception):
    """The scenario parsed but cannot be materialized (bad code key, duplicate
    address, undeclared reference, bad config/storage), or a setting given
    for the run is invalid."""


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AccountDecl:
    addr: str
    balance: int


@dataclass(frozen=True, slots=True)
class ContractDecl:
    addr: str
    code_key: str
    config: Value
    storage: Value
    balance: int
    contextual: bool = False


Decl = Union[AccountDecl, ContractDecl]


@dataclass(frozen=True)
class ExpectBalance:
    addr: str
    relation: str  # "=" | "<" | ">"
    value: int

    def describe(self) -> str:
        return f"balance @{self.addr} {self.relation} {self.value}"

    def judge(self, env: Environment, trees: tuple[TransactionTree, ...]) -> tuple[bool, str]:
        contract = env.get(self.addr)
        if contract is None:
            return False, "address absent"
        balance = contract.balance
        ok = {"=": balance == self.value, "<": balance < self.value, ">": balance > self.value}
        return ok[self.relation], f"balance is {balance}"


@dataclass(frozen=True)
class ExpectStorage:
    addr: str
    value: Value

    def describe(self) -> str:
        return f"storage @{self.addr} = {render_value(self.value)}"

    def judge(self, env: Environment, trees: tuple[TransactionTree, ...]) -> tuple[bool, str]:
        contract = env.get(self.addr)
        if contract is None:
            return False, "address absent"
        return contract.storage == self.value, f"storage is {render_value(contract.storage)}"


@dataclass(frozen=True)
class ExpectOutcome:
    outcome: str  # "commit" | "revert"

    def describe(self) -> str:
        return self.outcome

    def judge(self, env: Environment, trees: tuple[TransactionTree, ...]) -> tuple[bool, str]:
        reverted = [t.reason for t in trees if not t.committed]
        ok = not reverted if self.outcome == "commit" else bool(reverted)
        return ok, f"reverted: {'; '.join(reverted)}" if reverted else "all committed"


@dataclass(frozen=True)
class ExpectTotal:
    value: int

    def describe(self) -> str:
        return f"total = {self.value}"

    def judge(self, env: Environment, trees: tuple[TransactionTree, ...]) -> tuple[bool, str]:
        # Balances summing past MAX_MUTEZ miss any total the grammar can state.
        try:
            total = env.total_balance()
        except AmountError:
            return False, f"total is out of range (above {MAX_MUTEZ})"
        return total == self.value, f"total is {total}"


# Each expectation gives its `expect` line (`describe`) and its verdict on the
# environment and trees a run left (`judge`, which returns `(ok, actual)`).
Expectation = Union[ExpectBalance, ExpectStorage, ExpectOutcome, ExpectTotal]


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario. `config` holds the declared strategy, features and
    fuel; `run_scenario` can override each of them for one run."""

    name: str
    decls: tuple[Decl, ...]
    transactions: tuple[SignedTransaction, ...]
    expectations: tuple[Expectation, ...]
    config: SchedulerConfig = SchedulerConfig()


# ---------------------------------------------------------------------------
# Scanner and parser
# ---------------------------------------------------------------------------

# One line of characters and the escapes \\ \" \n \t, without the closing quote.
_STRING = r'"(?:[^"\\\n]|\\[\\"nt])*'
_STRING_PREFIX = re.compile(_STRING)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}

# The layout before a token (blanks and newlines, each comment with the blanks
# after it) and the token itself: one match per token. `eof` matches at the
# end of the text and `error` any other character; after the layout, one of
# the two always matches, so the layout loop never backtracks. `\d` is a Unicode decimal digit, exactly what
# int() accepts. The alternatives start with disjoint characters, so only
# `eof` and `error` must come last; the rest are tried most frequent first.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:"
    + "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("ident", IDENTIFIER),
            ("nat", r"\d+"),
            ("punct", r"[{}\[\]()=<>,]"),
            ("address", "@" + IDENTIFIER),
            ("int", r"-\d+"),
            ("string", _STRING + '"'),
            ("eof", r"\Z"),
            ("error", "."),
        )
    )
    + ")"
)


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of text[offset]."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _describe(kind: str, text: str) -> str:
    if kind == "eof":
        return "end of input"
    if len(text) > 32:  # a parse error echoes at most 32 characters of a token
        text = text[:32] + "…"
    if kind == "address":
        return f"'@{text}'"
    if kind == "string":
        return f'string "{text}"'
    return f"'{text}'"


def _lex_error(text: str, i: int) -> ScenarioParseError:
    """The error for text[i], a character that starts no token."""
    c = text[i]
    if c == '"':
        j = _STRING_PREFIX.match(text, i).end()
        if text.startswith("\\", j):
            return ScenarioParseError(
                *_position(text, j), "valid escape sequence", f"'{text[j:j + 2]}'"
            )
        return ScenarioParseError(*_position(text, i), "closing '\"'", "end of line")
    expected = {"@": "address after '@'", "-": "a digit after '-'"}.get(c, "a token")
    return ScenarioParseError(*_position(text, i), expected, f"'{c}'")


_DECL_KEYWORDS = ("account", "contract", "strategy", "features", "fuel")

# Deepest bracket nesting accepted: `{` of transaction and wrapper blocks,
# `(pair` and `[`. Deeper input is a parse error at the opening bracket
# rather than a RecursionError in the recursive-descent parser.
MAX_NESTING = 100


class _Stream:
    """The current token of `source` as plain attributes: `kind` (ident, nat,
    int, string, address, punct, eof or error), `text` (an address without
    its `@`, a string unescaped) and the match `m` it came from. Each
    advance scans the next token with one match. A character that starts no
    token becomes an `error` token, which no expectation accepts, so its
    scan error is raised only when the parser fails at it: an error in the
    grammar before it is reported first."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.match = _TOKEN.match
        self.end = 0  # where the next token's layout starts
        self.depth = 0
        self.text = ""
        # One value per address written: values are immutable, and a long
        # list names few addresses many times.
        self.addresses: dict[str, AddressV] = {}
        self.advance()

    def advance(self) -> str:
        """Step past the current token, which is not `eof`; return its text."""
        text = self.text
        m = self.m = self.match(self.source, self.end)
        self.end = m.end()
        kind = self.kind = m.lastgroup
        token = m[kind]
        if kind == "address":
            token = token[1:]
        elif kind == "string":
            token = token[1:-1]
            if "\\" in token:
                token = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], token)
        self.text = token
        return text

    def start(self) -> int:
        """The current token's offset in `source`."""
        return self.m.start(self.kind)

    def fail(self, expected: str, at: Optional[int] = None, found: str = "") -> NoReturn:
        """Raise the error for the current token, or for `found` at offset
        `at`; a current `error` token raises its scan error instead."""
        if at is None:
            if self.kind == "error":
                raise _lex_error(self.source, self.start())
            at, found = self.start(), _describe(self.kind, self.text)
        raise ScenarioParseError(*_position(self.source, at), expected, found)

    def expect_ident(self, word: str) -> None:
        if self.kind != "ident" or self.text != word:
            self.fail(f"'{word}'")
        self.advance()

    def expect_kind(self, kind: str, expected: str) -> str:
        if self.kind != kind:
            self.fail(expected)
        return self.advance()

    def address(self) -> str:
        """The current token's address, stepping past it."""
        if self.kind != "address":
            self.fail("an address ('@name')")
        return self.advance()

    def expect_punct(self, ch: str) -> None:
        if self.kind != "punct" or self.text != ch:
            self.fail(f"'{ch}'")
        self.advance()

    def open(self, ch: str) -> None:
        if self.depth == MAX_NESTING and self.at_punct(ch):
            self.fail(f"at most {MAX_NESTING} nested brackets")
        self.expect_punct(ch)
        self.depth += 1

    def close(self, ch: str) -> None:
        self.expect_punct(ch)
        self.depth -= 1

    def at_ident(self, *words: str) -> bool:
        return self.kind == "ident" and self.text in words

    def at_punct(self, *chars: str) -> bool:
        return self.kind == "punct" and self.text in chars


def _number(ts: _Stream) -> int:
    """The value of the current nat or int token, not stepping past it."""
    try:
        return int(ts.text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        digits = len(ts.text.lstrip("-"))
        ts.fail(
            f"a number of at most {sys.get_int_max_str_digits()} digits",
            ts.start(),
            f"{digits} digits",
        )


def _parse_nat(ts: _Stream, what: str) -> int:
    """A NAT the grammar names (amount, balance, total, fuel): at most 2^64-1."""
    if ts.kind != "nat":
        ts.fail(what)
    n = _number(ts)
    if n > MAX_MUTEZ:
        ts.fail(f"{what} of at most {MAX_MUTEZ}")
    ts.advance()
    return n


def _parse_value(ts: _Stream) -> Value:
    kind = ts.kind
    if kind == "nat":
        n = _number(ts)
        ts.advance()
        return NatV(n)
    if kind == "address":
        addr = ts.advance()
        value = ts.addresses.get(addr)
        if value is None:
            value = ts.addresses[addr] = AddressV(addr)
        return value
    if kind == "int":
        i = _number(ts)
        ts.advance()
        return IntV(i)
    if kind == "string":
        return StringV(ts.advance())
    if kind == "ident":
        word = ts.text
        if word == "unit":
            ts.advance()
            return UNIT_VALUE
        if word == "true" or word == "false":
            ts.advance()
            return BoolV(word == "true")
        if word == "mutez":
            ts.advance()
            return MutezV(_parse_nat(ts, "a mutez amount"))
    elif kind == "punct":
        if ts.text == "(":
            ts.open("(")
            ts.expect_ident("pair")
            left = _parse_value(ts)
            right = _parse_value(ts)
            ts.close(")")
            return PairV(left, right)
        if ts.text == "[":
            start = ts.start()
            ts.open("[")
            items = _parse_values(ts, "]")
            ts.close("]")
            try:
                return ListV(tuple(items))
            except ValueError:
                ts.fail("homogeneous list elements", start, "mixed element types")
    ts.fail("a value")


def _parse_values(ts: _Stream, close: str) -> list[Value]:
    """`[value ("," value)*]` up to, not including, the punctuation `close`."""
    values: list[Value] = []
    if not ts.at_punct(close):
        values.append(_parse_value(ts))
        while ts.at_punct(","):
            ts.advance()
            values.append(_parse_value(ts))
    return values


def _parse_contract(ts: _Stream) -> tuple[str, str, Value, Value, int]:
    """`@A code K config v storage v balance N` of `contract` and `create`."""
    addr = ts.address()
    ts.expect_ident("code")
    code_key = ts.expect_kind("ident", "a code key")
    ts.expect_ident("config")
    config = _parse_value(ts)
    ts.expect_ident("storage")
    storage = _parse_value(ts)
    ts.expect_ident("balance")
    return addr, code_key, config, storage, _parse_nat(ts, "a balance (nat)")


def _parse_op(ts: _Stream) -> Operation:
    word = ts.text if ts.kind == "ident" else ""
    if word == "transfer":
        ts.advance()
        amount = _parse_nat(ts, "an amount (nat)")
        ts.expect_ident("to")
        dest = ts.address()
        param = DEFAULT_PARAM
        if ts.at_ident("call"):
            ts.advance()
            name = ts.expect_kind("ident", "an entrypoint name")
            ts.expect_punct("(")
            args = _parse_values(ts, ")")
            ts.expect_punct(")")
            param = make_param(name, *args)
        return Transfer(dest, amount, param)
    if word == "create":
        ts.advance()
        addr, code_key, config, storage, balance = _parse_contract(ts)
        return CreateContract(addr, balance, storage, code_key, config)
    if word in ("atomic", "context"):
        ts.advance()
        ops = _parse_block(ts)
        return AtomicBundle(ops) if word == "atomic" else ContextBundle(ops)
    if word in ("allow", "block"):
        ts.advance()
        ts.expect_punct("[")
        addrs: list[str] = []
        while ts.kind == "address":
            addrs.append(ts.advance())
        ts.expect_punct("]")
        ops = _parse_block(ts)
        if word == "allow":
            return Restricted(ops, allow=frozenset(addrs))
        return Restricted(ops, block=frozenset(addrs))
    if word == "end_interactions":
        ts.advance()
        return EndInteractions()
    ts.fail("an operation")


def _parse_block(ts: _Stream) -> tuple[Operation, ...]:
    ts.open("{")
    ops: list[Operation] = []
    while not ts.at_punct("}"):
        if ts.kind == "eof":
            ts.fail("an operation or '}'")
        ops.append(_parse_op(ts))
    ts.close("}")
    return tuple(ops)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioParseError at the first offending
    token in text order."""
    ts = _Stream(text)
    ts.expect_ident("scenario")
    name = ts.expect_kind("string", "a scenario name (string)")

    decls: list[Decl] = []
    settings: dict = {}  # SchedulerConfig fields; each declared at most once
    while ts.kind == "ident" and ts.text in _DECL_KEYWORDS:
        keyword = ts.text
        if keyword in settings:
            ts.fail(f"at most one {keyword} declaration")
        ts.advance()
        if keyword == "account":
            addr = ts.address()
            ts.expect_ident("balance")
            decls.append(AccountDecl(addr, _parse_nat(ts, "a balance (nat)")))
        elif keyword == "contract":
            fields = _parse_contract(ts)
            contextual = ts.at_ident("contextual")
            if contextual:
                ts.advance()
            decls.append(ContractDecl(*fields, contextual))
        elif keyword == "strategy":
            if not ts.at_ident("bfs", "dfs"):
                ts.fail("'bfs' or 'dfs'")
            settings["strategy"] = Strategy(ts.advance())
        elif keyword == "features":
            if not ts.at_ident(*FEATURE_NAMES):
                ts.fail("a feature name")
            names: list[str] = []
            while ts.at_ident(*FEATURE_NAMES):
                names.append(ts.advance())
            settings["features"] = FeatureSet.from_names(names)
        else:  # fuel
            if ts.kind == "nat" and _number(ts) < 1:
                ts.fail("a fuel bound of at least 1")
            settings["fuel"] = _parse_nat(ts, "a fuel bound (nat)")

    transactions: list[SignedTransaction] = []
    while ts.at_ident("transaction"):
        ts.advance()
        ts.expect_ident("from")
        author = ts.address()
        transactions.append(SignedTransaction(author, _parse_block(ts)))

    expectations: list[Expectation] = []
    while ts.at_ident("expect"):
        ts.advance()
        word = ts.text if ts.kind == "ident" else ""
        if word == "balance":
            ts.advance()
            addr = ts.address()
            if not ts.at_punct("=", "<", ">"):
                ts.fail("'=', '<', or '>'")
            rel = ts.advance()
            expectations.append(ExpectBalance(addr, rel, _parse_nat(ts, "a balance (nat)")))
        elif word == "storage":
            ts.advance()
            addr = ts.address()
            ts.expect_punct("=")
            expectations.append(ExpectStorage(addr, _parse_value(ts)))
        elif word in ("commit", "revert"):
            ts.advance()
            expectations.append(ExpectOutcome(word))
        elif word == "total":
            ts.advance()
            ts.expect_punct("=")
            expectations.append(ExpectTotal(_parse_nat(ts, "a total (nat)")))
        else:
            ts.fail("'balance', 'storage', 'commit', 'revert', or 'total'")

    if ts.kind != "eof":
        ts.fail("a declaration, transaction, expectation, or end of input")
    return Scenario(
        name,
        tuple(decls),
        tuple(transactions),
        tuple(expectations),
        SchedulerConfig(**settings),
    )


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def print_scenario(s: Scenario) -> str:
    """Scenario text that parses back to `s`. The settings follow the account
    and contract lines: `strategy` always, `features` when any are on, and
    `fuel` when it is not the default."""
    lines = [f"scenario {render_value(StringV(s.name))}"]
    for decl in s.decls:
        if isinstance(decl, AccountDecl):
            lines.append(f"account @{decl.addr} balance {decl.balance}")
            continue
        line = (
            f"contract @{decl.addr} code {decl.code_key}"
            f" config {render_value(decl.config)}"
            f" storage {render_value(decl.storage)} balance {decl.balance}"
        )
        if decl.contextual:
            line += " contextual"
        lines.append(line)
    lines.append(f"strategy {s.config.strategy.value}")
    enabled = s.config.features.enabled_names()
    if enabled:
        lines.append("features " + " ".join(enabled))
    if s.config.fuel != DEFAULT_FUEL:
        lines.append(f"fuel {s.config.fuel}")
    for tx in s.transactions:
        lines.append(f"transaction from @{tx.author} {{")
        lines.extend(render_op(op, 1) for op in tx.ops)
        lines.append("}")
    lines.extend("expect " + e.describe() for e in s.expectations)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def compile_op(op: Operation) -> Operation:
    """Identity: scenarios hold core operations already. Kept because the
    benchmark's set-up (perfbench/workloads.py) still calls it."""
    return op


def validate_scenario(s: Scenario) -> None:
    """Static checks: known code keys, no duplicate addresses, and every
    address referenced by an op declared or created earlier in the scenario."""
    known: set[str] = set()
    for decl in s.decls:
        if decl.addr in known:
            raise SetupError(f"duplicate address @{decl.addr}")
        known.add(decl.addr)
        if isinstance(decl, ContractDecl) and not registry.is_registered(decl.code_key):
            raise SetupError(f"unknown code key {decl.code_key!r} for @{decl.addr}")
    for tx in s.transactions:
        if tx.author not in known:
            raise SetupError(f"transaction author @{tx.author} is not declared")
        # Pre-order: a restriction's addresses are checked before its members.
        for _, op in walk_ops(tx.ops):
            refs: list[str] = []
            if isinstance(op, Transfer):
                refs = [op.dest]
            elif isinstance(op, Restricted):
                refs = sorted((op.allow or frozenset()) | (op.block or frozenset()))
            elif isinstance(op, CreateContract):
                known.add(op.addr)
            for addr in refs:
                if addr not in known:
                    raise SetupError(f"address @{addr} referenced before declaration")
    for e in s.expectations:
        if isinstance(e, (ExpectBalance, ExpectStorage)) and e.addr not in known:
            raise SetupError(f"expectation references unknown address @{e.addr}")


def build_environment(s: Scenario) -> Environment:
    """The declared accounts and contracts, gathered in one dict and wrapped
    once: Environment.updated would copy the whole dict per declaration."""
    accounts: dict[str, Contract] = {}
    for decl in s.decls:
        try:
            if isinstance(decl, AccountDecl):
                contract = registry.implicit_account(decl.balance)
            else:
                contract = registry.instantiate(
                    decl.code_key,
                    decl.config,
                    decl.storage,
                    decl.balance,
                    contextual=decl.contextual,
                )
        except (registry.RegistryError, ValueError) as err:
            raise SetupError(f"@{decl.addr}: {err}") from None
        accounts[check_address(decl.addr)] = contract
    return Environment(accounts)


def scenario_config(s: Scenario, **overrides) -> SchedulerConfig:
    """The scenario's settings with `overrides`, SchedulerConfig fields by
    name, replacing the declared ones."""
    try:
        return dataclasses.replace(s.config, **overrides)
    except ValueError as err:
        raise SetupError(str(err)) from None


@dataclass(frozen=True)
class ExpectationResult:
    expectation: Expectation
    ok: bool
    actual: str

    @property
    def label(self) -> str:
        return self.expectation.describe()


@dataclass(frozen=True)
class ScenarioOutcome:
    scenario: Scenario
    env_before: Environment
    env_after: Environment
    ts: int
    trees: tuple[TransactionTree, ...]
    results: tuple[ExpectationResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.results)


def run_scenario(s: Scenario, **overrides) -> ScenarioOutcome:
    """Materialize the scenario, run its transactions under its settings with
    `overrides` applied (see scenario_config), judge expectations."""
    validate_scenario(s)
    env_before = build_environment(s)
    cfg = scenario_config(s, **overrides)
    env_after, ts, trees = run_block(env_before, s.transactions, cfg, 0)
    trees = tuple(trees)
    results = tuple(ExpectationResult(e, *e.judge(env_after, trees)) for e in s.expectations)
    return ScenarioOutcome(
        scenario=s,
        env_before=env_before,
        env_after=env_after,
        ts=ts,
        trees=trees,
        results=results,
    )


# What a byte that is not UTF-8 reads as under the "surrogateescape" handler.
_UNDECODED = re.compile(r"[\udc80-\udcff]")


def load_scenario(path: str) -> Scenario:
    """Parse the UTF-8 file at `path`. A byte that is not UTF-8 is a parse
    error at its line and column, counted in characters."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    bad = _UNDECODED.search(text)
    if bad:
        found = f"byte 0x{ord(bad[0]) - 0xDC00:02x}"
        raise ScenarioParseError(*_position(text, bad.start()), "UTF-8 text", found)
    return parse_scenario(text)
