"""Declared entrypoints and contract bodies agree.

Bodies trust the executor's entrypoint check and read their parameter without
re-checking it. So every well-typed call to a declared entrypoint must reach
its body without crashing, and every other call must revert with
type_mismatch before anything moves.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from chainsim import registry
from chainsim.core import (
    AddressV,
    BoolV,
    ListV,
    MutezV,
    NatV,
    PairV,
    StringV,
    Transfer,
    TypeTag,
    UNIT_VALUE,
    Environment,
    value_typecheck,
)
from chainsim.executor import CONTRACT_CRASH, TYPE_MISMATCH
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim.scheduler import (
    Revert,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_transaction,
)

ALL_FEATURES = FeatureSet.from_names(FEATURE_NAMES)

# Every standard contract, configured as in the shipped scenarios.
CAST = (
    ("owner", "receiver", UNIT_VALUE, UNIT_VALUE, 100),
    ("vault", "bank", PairV(NatV(9), AddressV("bad")), UNIT_VALUE, 15),
    ("fixed", "fixed_bank", PairV(NatV(9), AddressV("client")), MutezV(0), 15),
    ("client", "good_client", AddressV("fixed"), UNIT_VALUE, 0),
    ("bad", "bad", AddressV("vault"), UNIT_VALUE, 0),
    ("a", "forwarder", UNIT_VALUE, NatV(100), 100),
    ("b", "forwarder", UNIT_VALUE, NatV(60), 60),
    ("payer", "payer", UNIT_VALUE, UNIT_VALUE, 10),
    (
        "c",
        "observer",
        PairV(AddressV("a"), PairV(AddressV("b"), PairV(NatV(160), NatV(25)))),
        BoolV(False),
        0,
    ),
    ("imp", "demonic", StringV("7"), UNIT_VALUE, 10),
)
ADDRS = tuple(addr for addr, *_ in CAST)


def _cast_env() -> Environment:
    env = Environment()
    for addr, code_key, config, storage, balance in CAST:
        env = env.updated({addr: registry.instantiate(code_key, config, storage, balance)})
    return env


def _entrypoints(addr: str):
    code_key = next(key for a, key, *_ in CAST if a == addr)
    return registry.resolve(code_key).entrypoints


CALLS = [(addr, name) for addr in ADDRS for name in sorted(_entrypoints(addr))]


def test_the_cast_covers_every_standard_contract():
    assert {defn.code_key for defn in registry.STANDARD_DEFS} == {key for _, key, *_ in CAST}


def _inhabitants(t: TypeTag) -> st.SearchStrategy:
    """Values of `t`, bounded: nats up to 20 (`rob(n, m)` emits n transfers),
    addresses from the cast, lists of up to 3 items."""
    if t.kind == "unit":
        return st.just(UNIT_VALUE)
    if t.kind == "nat":
        return st.integers(0, 20).map(NatV)
    if t.kind == "address":
        return st.sampled_from(ADDRS).map(AddressV)
    if t.kind == "pair":
        return st.builds(PairV, _inhabitants(t.args[0]), _inhabitants(t.args[1]))
    if t.kind == "list":
        return st.lists(_inhabitants(t.args[0]), max_size=3).map(ListV)
    raise AssertionError(f"no generator for {t.kind}")


_leaves = st.one_of(
    st.just(UNIT_VALUE),
    st.integers(0, 20).map(NatV),
    st.text(max_size=8).map(StringV),
    st.sampled_from(ADDRS).map(AddressV),
    st.booleans().map(BoolV),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.builds(PairV, inner, inner),
        st.sampled_from((NatV(1), AddressV("a"), UNIT_VALUE)).flatmap(
            lambda v: st.integers(0, 3).map(lambda n: ListV((v,) * n))
        ),
    ),
    max_leaves=6,
)


@pytest.mark.parametrize("dest, name", CALLS, ids=[f"{a}.{n}" for a, n in CALLS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_well_typed_call_reaches_the_body(dest, name, data):
    env = _cast_env()
    arg = data.draw(_inhabitants(_entrypoints(dest)[name]), label="arg")
    author = data.draw(st.sampled_from(ADDRS), label="author")
    amount = data.draw(st.integers(0, 20), label="amount")
    strategy = data.draw(st.sampled_from(list(Strategy)), label="strategy")
    tx = SignedTransaction(author, (Transfer(dest, amount, PairV(StringV(name), arg)),))
    cfg = SchedulerConfig(strategy=strategy, features=ALL_FEATURES)
    outcome, _, _ = run_transaction(env, tx, cfg, 0)
    if isinstance(outcome, Revert):
        assert outcome.kind not in (CONTRACT_CRASH, TYPE_MISMATCH), outcome.reason


def _ill_typed_params(dest: str) -> st.SearchStrategy:
    entrypoints = _entrypoints(dest)
    undeclared = st.builds(
        PairV, st.text(max_size=8).filter(lambda n: n not in entrypoints).map(StringV), _values
    )
    mistyped = st.sampled_from(sorted(entrypoints)).flatmap(
        lambda n: _values.filter(lambda v: not value_typecheck(v, entrypoints[n])).map(
            lambda v: PairV(StringV(n), v)
        )
    )
    unnamed = _values.filter(lambda v: not (isinstance(v, PairV) and isinstance(v.left, StringV)))
    return st.one_of(undeclared, mistyped, unnamed)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ill_typed_call_reverts_type_mismatch_and_moves_nothing(data):
    env = _cast_env()
    snapshot = copy.deepcopy(env)
    dest = data.draw(st.sampled_from(ADDRS), label="dest")
    param = data.draw(_ill_typed_params(dest), label="param")
    amount = data.draw(st.integers(0, 20), label="amount")
    tx = SignedTransaction("owner", (Transfer(dest, amount, param),))
    outcome, _, _ = run_transaction(env, tx, SchedulerConfig(features=ALL_FEATURES), 0)
    assert isinstance(outcome, Revert) and outcome.kind == TYPE_MISMATCH, outcome
    assert env == snapshot
