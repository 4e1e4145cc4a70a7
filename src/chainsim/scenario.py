"""Scenario text format: parser, printer, and runner.

A scenario declares accounts/contracts plus scheduler settings, submits
transactions, and states expectations over the final chain. The format is
whitespace-insensitive with `#` line comments; see the repository scenarios/
directory for committed fixtures.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from . import registry
from .core import (
    AddressV,
    AtomicBundle,
    BoolV,
    ContextBundle,
    Contract,
    CreateContract,
    EndInteractions,
    Environment,
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


@dataclass(frozen=True)
class ExpectStorage:
    addr: str
    value: Value


@dataclass(frozen=True)
class ExpectOutcome:
    outcome: str  # "commit" | "revert"


@dataclass(frozen=True)
class ExpectTotal:
    value: int


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

# Every token kind, the layout between tokens, and `error` for any other
# character. `\d` is a Unicode decimal digit, exactly what int() accepts.
# The alternatives start with disjoint characters, so only `error` must come
# last; the rest are tried most frequent first, which roughly halves the
# time spent matching.
_TOKEN = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in (
            ("skip", r"[ \t\r]+|#[^\n]*"),
            ("newline", r"\n"),
            ("ident", "[A-Za-z_][A-Za-z0-9_]*"),
            ("nat", r"\d+"),
            ("punct", r"[{}\[\]()=<>,]"),
            ("address", "@[A-Za-z_][A-Za-z0-9_]*"),
            ("int", r"-\d+"),
            ("string", _STRING + '"'),
            ("error", "."),
        )
    )
)


class Token(NamedTuple):
    kind: str  # ident | nat | int | string | address | punct | eof
    text: str
    line: int
    col: int


def _describe(tok: Token) -> str:
    if tok.kind == "eof":
        return "end of input"
    if tok.kind == "address":
        return f"'@{tok.text}'"
    if tok.kind == "string":
        return f'string "{tok.text}"'
    return f"'{tok.text}'"


def _lex_error(text: str, i: int, line: int, col: int) -> ScenarioParseError:
    """The error for text[i], a character that starts no token."""
    c = text[i]
    if c == '"':
        j = _STRING_PREFIX.match(text, i).end()
        if text.startswith("\\", j):
            found = f"'{text[j:j + 2]}'"
            return ScenarioParseError(line, col + j - i, "valid escape sequence", found)
        return ScenarioParseError(line, col, "closing '\"'", "end of line")
    expected = {"@": "address after '@'", "-": "a digit after '-'"}.get(c, "a token")
    return ScenarioParseError(line, col, expected, f"'{c}'")


_DECL_KEYWORDS = ("account", "contract", "strategy", "features", "fuel")

# Deepest bracket nesting accepted: `{` of transaction and wrapper blocks,
# `(pair` and `[`. Deeper input is a parse error at the opening bracket
# rather than a RecursionError in the recursive-descent parser.
MAX_NESTING = 100


class _Stream:
    """The tokens of `text`, each scanned when the parser first looks at it,
    so a scan error is reported only if the parse gets that far."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.matches = _TOKEN.finditer(text)
        self.line = 1
        self.line_start = 0  # offset of the current line's first character
        self.tok: Optional[Token] = None
        self.depth = 0

    def _scan(self) -> Token:
        for m in self.matches:
            kind = m.lastgroup
            if kind == "skip":
                continue
            if kind == "newline":
                self.line += 1
                self.line_start = m.end()
                continue
            col = m.start() - self.line_start + 1
            if kind == "error":
                raise _lex_error(self.text, m.start(), self.line, col)
            text = m.group()
            if kind == "string":
                text = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], text[1:-1])
            elif kind == "address":
                text = text[1:]
            return Token(kind, text, self.line, col)
        return Token("eof", "", self.line, len(self.text) - self.line_start + 1)

    def peek(self) -> Token:
        if self.tok is None:
            self.tok = self._scan()
        return self.tok

    def advance(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.tok = None
        return tok

    def fail(self, expected: str, tok: Optional[Token] = None) -> ScenarioParseError:
        tok = tok or self.peek()
        raise ScenarioParseError(tok.line, tok.col, expected, _describe(tok))

    def expect_ident(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            self.fail(f"'{word}'")
        return self.advance()

    def expect_kind(self, kind: str, expected: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(expected)
        return self.advance()

    def expect_punct(self, ch: str) -> Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.text != ch:
            self.fail(f"'{ch}'")
        return self.advance()

    def open(self, ch: str) -> None:
        tok = self.expect_punct(ch)
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"at most {MAX_NESTING} nested brackets", tok)

    def close(self, ch: str) -> None:
        self.expect_punct(ch)
        self.depth -= 1

    def at_ident(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text in words

    def at_punct(self, *chars: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text in chars


def _parse_nat(ts: _Stream, what: str) -> int:
    """A NAT the grammar names (amount, balance, total, fuel): at most 2^64-1."""
    tok = ts.expect_kind("nat", what)
    if int(tok.text) > MAX_MUTEZ:
        ts.fail(f"{what} of at most {MAX_MUTEZ}", tok)
    return int(tok.text)


def _parse_address(ts: _Stream) -> str:
    tok = ts.expect_kind("address", "an address ('@name')")
    return tok.text


def _parse_value(ts: _Stream) -> Value:
    tok = ts.peek()
    if tok.kind == "nat":
        ts.advance()
        return NatV(int(tok.text))
    if tok.kind == "int":
        ts.advance()
        return IntV(int(tok.text))
    if tok.kind == "string":
        ts.advance()
        return StringV(tok.text)
    if tok.kind == "address":
        ts.advance()
        return AddressV(tok.text)
    if tok.kind == "ident":
        if tok.text == "true":
            ts.advance()
            return BoolV(True)
        if tok.text == "false":
            ts.advance()
            return BoolV(False)
        if tok.text == "unit":
            ts.advance()
            return UNIT_VALUE
        if tok.text == "mutez":
            ts.advance()
            return MutezV(_parse_nat(ts, "a mutez amount"))
        ts.fail("a value")
    if ts.at_punct("("):
        ts.open("(")
        ts.expect_ident("pair")
        left = _parse_value(ts)
        right = _parse_value(ts)
        ts.close(")")
        return PairV(left, right)
    if ts.at_punct("["):
        ts.open("[")
        items = _parse_values(ts, "]")
        ts.close("]")
        try:
            return ListV(tuple(items))
        except ValueError:
            raise ScenarioParseError(
                tok.line, tok.col, "homogeneous list elements", "mixed element types"
            ) from None
    ts.fail("a value")
    raise AssertionError("unreachable")


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
    addr = _parse_address(ts)
    ts.expect_ident("code")
    code_key = ts.expect_kind("ident", "a code key").text
    ts.expect_ident("config")
    config = _parse_value(ts)
    ts.expect_ident("storage")
    storage = _parse_value(ts)
    ts.expect_ident("balance")
    return addr, code_key, config, storage, _parse_nat(ts, "a balance (nat)")


def _parse_op(ts: _Stream) -> Operation:
    tok = ts.peek()
    if tok.kind != "ident":
        ts.fail("an operation")
    if tok.text == "transfer":
        ts.advance()
        amount = _parse_nat(ts, "an amount (nat)")
        ts.expect_ident("to")
        dest = _parse_address(ts)
        param = make_param("default")
        if ts.at_ident("call"):
            ts.advance()
            name = ts.expect_kind("ident", "an entrypoint name").text
            ts.expect_punct("(")
            args = _parse_values(ts, ")")
            ts.expect_punct(")")
            param = make_param(name, *args)
        return Transfer(dest, amount, param)
    if tok.text == "create":
        ts.advance()
        addr, code_key, config, storage, balance = _parse_contract(ts)
        return CreateContract(addr, balance, storage, code_key, config)
    if tok.text in ("atomic", "context"):
        ts.advance()
        ops = _parse_block(ts)
        return AtomicBundle(ops) if tok.text == "atomic" else ContextBundle(ops)
    if tok.text in ("allow", "block"):
        ts.advance()
        ts.expect_punct("[")
        addrs: list[str] = []
        while ts.peek().kind == "address":
            addrs.append(_parse_address(ts))
        ts.expect_punct("]")
        ops = _parse_block(ts)
        if tok.text == "allow":
            return Restricted(ops, allow=frozenset(addrs))
        return Restricted(ops, block=frozenset(addrs))
    if tok.text == "end_interactions":
        ts.advance()
        return EndInteractions()
    ts.fail("an operation")
    raise AssertionError("unreachable")


def _parse_block(ts: _Stream) -> tuple[Operation, ...]:
    ts.open("{")
    ops: list[Operation] = []
    while not ts.at_punct("}"):
        if ts.peek().kind == "eof":
            ts.fail("an operation or '}'")
        ops.append(_parse_op(ts))
    ts.close("}")
    return tuple(ops)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioParseError at the first offending
    token in text order. Tokens are scanned as the parse reaches them."""
    ts = _Stream(text)
    ts.expect_ident("scenario")
    name = ts.expect_kind("string", "a scenario name (string)").text

    decls: list[Decl] = []
    settings: dict = {}  # SchedulerConfig fields; each declared at most once
    while ts.at_ident(*_DECL_KEYWORDS):
        tok = ts.advance()
        if tok.text in settings:
            ts.fail(f"at most one {tok.text} declaration", tok)
        if tok.text == "account":
            addr = _parse_address(ts)
            ts.expect_ident("balance")
            decls.append(AccountDecl(addr, _parse_nat(ts, "a balance (nat)")))
        elif tok.text == "contract":
            fields = _parse_contract(ts)
            contextual = False
            if ts.at_ident("contextual"):
                ts.advance()
                contextual = True
            decls.append(ContractDecl(*fields, contextual))
        elif tok.text == "strategy":
            if not ts.at_ident("bfs", "dfs"):
                ts.fail("'bfs' or 'dfs'")
            settings["strategy"] = Strategy(ts.advance().text)
        elif tok.text == "features":
            if not ts.at_ident(*FEATURE_NAMES):
                ts.fail("a feature name")
            names: list[str] = []
            while ts.at_ident(*FEATURE_NAMES):
                names.append(ts.advance().text)
            settings["features"] = FeatureSet.from_names(names)
        else:  # fuel
            fuel_tok = ts.peek()
            settings["fuel"] = _parse_nat(ts, "a fuel bound (nat)")
            if settings["fuel"] < 1:
                ts.fail("a fuel bound of at least 1", fuel_tok)

    transactions: list[SignedTransaction] = []
    while ts.at_ident("transaction"):
        ts.advance()
        ts.expect_ident("from")
        author = _parse_address(ts)
        transactions.append(SignedTransaction(author, _parse_block(ts)))

    expectations: list[Expectation] = []
    while ts.at_ident("expect"):
        ts.advance()
        tok = ts.peek()
        if tok.kind != "ident":
            ts.fail("'balance', 'storage', 'commit', 'revert', or 'total'")
        if tok.text == "balance":
            ts.advance()
            addr = _parse_address(ts)
            if not ts.at_punct("=", "<", ">"):
                ts.fail("'=', '<', or '>'")
            rel = ts.advance().text
            expectations.append(ExpectBalance(addr, rel, _parse_nat(ts, "a balance (nat)")))
        elif tok.text == "storage":
            ts.advance()
            addr = _parse_address(ts)
            ts.expect_punct("=")
            expectations.append(ExpectStorage(addr, _parse_value(ts)))
        elif tok.text in ("commit", "revert"):
            ts.advance()
            expectations.append(ExpectOutcome(tok.text))
        elif tok.text == "total":
            ts.advance()
            ts.expect_punct("=")
            expectations.append(ExpectTotal(_parse_nat(ts, "a total (nat)")))
        else:
            ts.fail("'balance', 'storage', 'commit', 'revert', or 'total'")

    if ts.peek().kind != "eof":
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
    for e in s.expectations:
        lines.append("expect " + describe_expectation(e))
    return "\n".join(lines) + "\n"


def describe_expectation(e: Expectation) -> str:
    if isinstance(e, ExpectBalance):
        return f"balance @{e.addr} {e.relation} {e.value}"
    if isinstance(e, ExpectStorage):
        return f"storage @{e.addr} = {render_value(e.value)}"
    if isinstance(e, ExpectOutcome):
        return e.outcome
    if isinstance(e, ExpectTotal):
        return f"total = {e.value}"
    raise TypeError(f"unknown expectation: {e!r}")


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
        return describe_expectation(self.expectation)


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


def _evaluate(
    e: Expectation, env: Environment, trees: tuple[TransactionTree, ...]
) -> ExpectationResult:
    if isinstance(e, ExpectBalance):
        contract = env.get(e.addr)
        if contract is None:
            return ExpectationResult(e, False, "address absent")
        ok = {
            "=": contract.balance == e.value,
            "<": contract.balance < e.value,
            ">": contract.balance > e.value,
        }[e.relation]
        return ExpectationResult(e, ok, f"balance is {contract.balance}")
    if isinstance(e, ExpectStorage):
        contract = env.get(e.addr)
        if contract is None:
            return ExpectationResult(e, False, "address absent")
        ok = contract.storage == e.value
        return ExpectationResult(e, ok, f"storage is {render_value(contract.storage)}")
    if isinstance(e, ExpectOutcome):
        committed = [t.committed for t in trees]
        if e.outcome == "commit":
            ok = all(committed)
        else:
            ok = any(not c for c in committed)
        reverted = [t.reason for t in trees if not t.committed]
        actual = "all committed" if all(committed) else f"reverted: {'; '.join(reverted)}"
        return ExpectationResult(e, ok, actual)
    if isinstance(e, ExpectTotal):
        total = env.total_balance()
        return ExpectationResult(e, total == e.value, f"total is {total}")
    raise TypeError(f"unknown expectation: {e!r}")


def run_scenario(s: Scenario, **overrides) -> ScenarioOutcome:
    """Materialize the scenario, run its transactions under its settings with
    `overrides` applied (see scenario_config), judge expectations."""
    validate_scenario(s)
    env_before = build_environment(s)
    cfg = scenario_config(s, **overrides)
    env_after, ts, trees = run_block(env_before, s.transactions, cfg, 0)
    results = tuple(_evaluate(e, env_after, tuple(trees)) for e in s.expectations)
    return ScenarioOutcome(
        scenario=s,
        env_before=env_before,
        env_after=env_after,
        ts=ts,
        trees=tuple(trees),
        results=results,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
