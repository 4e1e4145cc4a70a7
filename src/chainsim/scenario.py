"""Scenario text format: parser, printer, and runner.

A scenario declares accounts/contracts plus scheduler settings, submits
transactions, and states expectations over the final chain. The format is
whitespace-insensitive with `#` line comments; see the repository scenarios/
directory for committed fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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
)
from .executor import execute_operation
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
    address, undeclared reference, bad config/storage)."""


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccountDecl:
    addr: str
    balance: int


@dataclass(frozen=True)
class ContractDecl:
    addr: str
    code_key: str
    config: Value
    storage: Value
    balance: int
    contextual: bool = False


@dataclass(frozen=True)
class StrategyDecl:
    strategy: str  # "bfs" | "dfs"


@dataclass(frozen=True)
class FeaturesDecl:
    names: tuple[str, ...]


@dataclass(frozen=True)
class FuelDecl:
    fuel: int


Decl = Union[AccountDecl, ContractDecl, StrategyDecl, FeaturesDecl, FuelDecl]


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
    name: str
    decls: tuple[Decl, ...]
    transactions: tuple[SignedTransaction, ...]
    expectations: tuple[Expectation, ...]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_PUNCT = "{}[]()=<>,"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


@dataclass(frozen=True)
class Token:
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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(l: int, c: int, expected: str, found: str) -> ScenarioParseError:
        return ScenarioParseError(l, c, expected, found)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c == '"':
            i += 1
            col += 1
            chars: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise err(start_line, start_col, "closing '\"'", "end of line")
                ch = text[i]
                if ch == '"':
                    i += 1
                    col += 1
                    break
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in _ESCAPES:
                        raise err(line, col, "valid escape sequence", f"'{text[i:i+2]}'")
                    chars.append(_ESCAPES[text[i + 1]])
                    i += 2
                    col += 2
                    continue
                chars.append(ch)
                i += 1
                col += 1
            tokens.append(Token("string", "".join(chars), start_line, start_col))
            continue
        if c == "@":
            i += 1
            col += 1
            j = i
            if j >= n or text[j] not in _IDENT_START:
                raise err(start_line, start_col, "address after '@'", f"'{c}'")
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token("address", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c == "-":
            j = i + 1
            if j >= n or not text[j].isdigit():
                raise err(start_line, start_col, "a digit after '-'", f"'{c}'")
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("nat", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(Token("ident", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        raise err(start_line, start_col, "a token", f"'{c}'")
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_DECL_KEYWORDS = ("account", "contract", "strategy", "features", "fuel")

# Deepest bracket nesting accepted: `{` of transaction and wrapper blocks,
# `(pair` and `[`. Deeper input is a parse error at the opening bracket
# rather than a RecursionError in the recursive-descent parser.
MAX_NESTING = 100


class _Stream:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
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
    if tok.kind == "punct" and tok.text == "(":
        ts.open("(")
        ts.expect_ident("pair")
        left = _parse_value(ts)
        right = _parse_value(ts)
        ts.close(")")
        return PairV(left, right)
    if tok.kind == "punct" and tok.text == "[":
        ts.open("[")
        items: list[Value] = []
        if not (ts.peek().kind == "punct" and ts.peek().text == "]"):
            items.append(_parse_value(ts))
            while ts.peek().kind == "punct" and ts.peek().text == ",":
                ts.advance()
                items.append(_parse_value(ts))
        ts.close("]")
        try:
            return ListV(tuple(items))
        except ValueError:
            raise ScenarioParseError(
                tok.line, tok.col, "homogeneous list elements", "mixed element types"
            ) from None
    ts.fail("a value")
    raise AssertionError("unreachable")


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
            args: list[Value] = []
            if not (ts.peek().kind == "punct" and ts.peek().text == ")"):
                args.append(_parse_value(ts))
                while ts.peek().kind == "punct" and ts.peek().text == ",":
                    ts.advance()
                    args.append(_parse_value(ts))
            ts.expect_punct(")")
            param = make_param(name, *args)
        return Transfer(dest, amount, param)
    if tok.text == "create":
        ts.advance()
        addr = _parse_address(ts)
        ts.expect_ident("code")
        code_key = ts.expect_kind("ident", "a code key").text
        ts.expect_ident("config")
        config = _parse_value(ts)
        ts.expect_ident("storage")
        storage = _parse_value(ts)
        ts.expect_ident("balance")
        balance = _parse_nat(ts, "a balance (nat)")
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
    while not (ts.peek().kind == "punct" and ts.peek().text == "}"):
        if ts.peek().kind == "eof":
            ts.fail("an operation or '}'")
        ops.append(_parse_op(ts))
    ts.close("}")
    return tuple(ops)


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioParseError at the first offense."""
    ts = _Stream(tokenize(text))
    ts.expect_ident("scenario")
    name = ts.expect_kind("string", "a scenario name (string)").text

    decls: list[Decl] = []
    seen_strategy = False
    seen_fuel = False
    while ts.at_ident(*_DECL_KEYWORDS):
        tok = ts.advance()
        if tok.text == "account":
            addr = _parse_address(ts)
            ts.expect_ident("balance")
            decls.append(AccountDecl(addr, _parse_nat(ts, "a balance (nat)")))
        elif tok.text == "contract":
            addr = _parse_address(ts)
            ts.expect_ident("code")
            code_key = ts.expect_kind("ident", "a code key").text
            ts.expect_ident("config")
            config = _parse_value(ts)
            ts.expect_ident("storage")
            storage = _parse_value(ts)
            ts.expect_ident("balance")
            balance = _parse_nat(ts, "a balance (nat)")
            contextual = False
            if ts.at_ident("contextual"):
                ts.advance()
                contextual = True
            decls.append(ContractDecl(addr, code_key, config, storage, balance, contextual))
        elif tok.text == "strategy":
            if seen_strategy:
                raise ScenarioParseError(
                    tok.line, tok.col, "at most one strategy declaration", "'strategy'"
                )
            seen_strategy = True
            which = ts.peek()
            if which.kind != "ident" or which.text not in ("bfs", "dfs"):
                ts.fail("'bfs' or 'dfs'")
            ts.advance()
            decls.append(StrategyDecl(which.text))
        elif tok.text == "features":
            names: list[str] = []
            first = ts.peek()
            if first.kind != "ident" or first.text not in FEATURE_NAMES:
                ts.fail("a feature name")
            while ts.at_ident(*FEATURE_NAMES):
                names.append(ts.advance().text)
            decls.append(FeaturesDecl(tuple(names)))
        else:  # fuel
            if seen_fuel:
                raise ScenarioParseError(
                    tok.line, tok.col, "at most one fuel declaration", "'fuel'"
                )
            seen_fuel = True
            decls.append(FuelDecl(_parse_nat(ts, "a fuel bound (nat)")))

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
            rel = ts.peek()
            if rel.kind != "punct" or rel.text not in ("=", "<", ">"):
                ts.fail("'=', '<', or '>'")
            ts.advance()
            expectations.append(
                ExpectBalance(addr, rel.text, _parse_nat(ts, "a balance (nat)"))
            )
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
    return Scenario(name, tuple(decls), tuple(transactions), tuple(expectations))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def print_scenario(s: Scenario) -> str:
    lines = [f"scenario {render_value(StringV(s.name))}"]
    for decl in s.decls:
        if isinstance(decl, AccountDecl):
            lines.append(f"account @{decl.addr} balance {decl.balance}")
        elif isinstance(decl, ContractDecl):
            line = (
                f"contract @{decl.addr} code {decl.code_key}"
                f" config {render_value(decl.config)}"
                f" storage {render_value(decl.storage)} balance {decl.balance}"
            )
            if decl.contextual:
                line += " contextual"
            lines.append(line)
        elif isinstance(decl, StrategyDecl):
            lines.append(f"strategy {decl.strategy}")
        elif isinstance(decl, FeaturesDecl):
            lines.append("features " + " ".join(decl.names))
        elif isinstance(decl, FuelDecl):
            lines.append(f"fuel {decl.fuel}")
        else:
            raise TypeError(f"unknown decl: {decl!r}")
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


def _op_addr_refs(op: Operation):
    """(referenced addresses, created addresses) in surface order."""
    if isinstance(op, Transfer):
        yield ("ref", op.dest)
    elif isinstance(op, CreateContract):
        yield ("create", op.addr)
    elif isinstance(op, (AtomicBundle, ContextBundle)):
        for inner in op.ops:
            yield from _op_addr_refs(inner)
    elif isinstance(op, Restricted):
        for addr in sorted((op.allow or frozenset()) | (op.block or frozenset())):
            yield ("ref", addr)
        for inner in op.ops:
            yield from _op_addr_refs(inner)


def validate_scenario(s: Scenario) -> None:
    """Static checks: known code keys, no duplicate addresses, and every
    address referenced by an op declared or created earlier in the scenario."""
    known: set[str] = set()
    for decl in s.decls:
        if isinstance(decl, (AccountDecl, ContractDecl)):
            if decl.addr in known:
                raise SetupError(f"duplicate address @{decl.addr}")
            known.add(decl.addr)
        if isinstance(decl, ContractDecl) and not registry.is_registered(decl.code_key):
            raise SetupError(f"unknown code key {decl.code_key!r} for @{decl.addr}")
    for tx in s.transactions:
        if tx.author not in known:
            raise SetupError(f"transaction author @{tx.author} is not declared")
        for op in tx.ops:
            for what, addr in _op_addr_refs(op):
                if what == "ref":
                    if addr not in known:
                        raise SetupError(f"address @{addr} referenced before declaration")
                else:
                    known.add(addr)
    for e in s.expectations:
        if isinstance(e, (ExpectBalance, ExpectStorage)) and e.addr not in known:
            raise SetupError(f"expectation references unknown address @{e.addr}")


def build_environment(s: Scenario) -> Environment:
    """The declared accounts and contracts, gathered in one dict and wrapped
    once: Environment.updated would copy the whole dict per declaration."""
    accounts: dict[str, Contract] = {}
    for decl in s.decls:
        if not isinstance(decl, (AccountDecl, ContractDecl)):
            continue
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


def scenario_config(
    s: Scenario,
    strategy: Optional[Strategy] = None,
    features: Optional[FeatureSet] = None,
    fuel: Optional[int] = None,
    record_queue_states: bool = False,
) -> SchedulerConfig:
    declared_strategy = Strategy.BFS
    declared_features = FeatureSet()
    declared_fuel: Optional[int] = None
    for decl in s.decls:
        if isinstance(decl, StrategyDecl):
            declared_strategy = Strategy(decl.strategy)
        elif isinstance(decl, FeaturesDecl):
            declared_features = FeatureSet.from_names(decl.names)
        elif isinstance(decl, FuelDecl):
            declared_fuel = decl.fuel
    if fuel is None:
        fuel = declared_fuel if declared_fuel is not None else DEFAULT_FUEL
    try:
        return SchedulerConfig(
            strategy=strategy or declared_strategy,
            features=features if features is not None else declared_features,
            fuel=fuel,
            record_queue_states=record_queue_states,
        )
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


def run_scenario(
    s: Scenario,
    strategy: Optional[Strategy] = None,
    features: Optional[FeatureSet] = None,
    fuel: Optional[int] = None,
    record_queue_states: bool = False,
    execute=execute_operation,
) -> ScenarioOutcome:
    """Materialize the scenario, run its transactions, judge expectations."""
    validate_scenario(s)
    env_before = build_environment(s)
    cfg = scenario_config(s, strategy, features, fuel, record_queue_states)
    env_after, ts, trees = run_block(env_before, s.transactions, cfg, 0, execute)
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
