"""`run_transaction` against the reference semantics of `tests/reference.py`:
the same outcome, committed environment, trace nodes and queue states on
every fixture under both strategies and all 64 feature sets, and on
generated wrapper-heavy transactions over an on-chain cast."""

import dataclasses
import itertools
import random

import pytest

import reference
from chainsim import registry
from chainsim.core import (
    DEFAULT_PARAM,
    AddressV,
    AtomicBundle,
    ContextBundle,
    EndInteractions,
    NatV,
    Restricted,
    Transfer,
    UNIT_VALUE,
)
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim.harness import GenConfig, default_universe, gen_transaction
from chainsim.scenario import build_environment, parse_scenario
from chainsim.scheduler import (
    Commit,
    SchedulerConfig,
    SignedTransaction,
    Strategy,
    run_transaction,
)
from conftest import SCENARIO_DIR

ALL_FEATURE_SETS = [
    FeatureSet.from_names(names)
    for k in range(len(FEATURE_NAMES) + 1)
    for names in itertools.combinations(FEATURE_NAMES, k)
]


def _assert_same(env, tx, cfg, ts):
    """Run `tx` both ways and compare; return the outcome kind and the
    environment the next transaction of a block starts from."""
    cfg = dataclasses.replace(cfg, record_queue_states=True)
    outcome, _, tree = run_transaction(env, tx, cfg, ts)
    expected, nodes, queue_states = reference.run(env, tx, cfg, ts)
    assert [tuple(node) for node in tree.nodes] == nodes
    assert list(tree.queue_states) == queue_states
    if isinstance(outcome, Commit):
        assert expected == ("commit", outcome.env)
        return "commit", outcome.env
    assert expected == ("revert", outcome.kind, outcome.detail)
    return "revert", env


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.msc")), ids=lambda p: p.stem)
def test_fixtures_under_every_strategy_and_feature_set(path):
    s = parse_scenario(path.read_text(encoding="utf-8"))
    start = build_environment(s)
    for strategy, features in itertools.product(Strategy, ALL_FEATURE_SETS):
        cfg = dataclasses.replace(s.config, strategy=strategy, features=features)
        env = start
        for ts, tx in enumerate(s.transactions):
            env = _assert_same(env, tx, cfg, ts)[1]


def _cast():
    """The fuzz universe plus a contextual attacker and a contextual
    forwarder, with the `GenConfig` that draws calls fitting each."""
    env, gen_cfg = default_universe(3)
    extra = {
        "cbad": registry.instantiate("bad", AddressV("vault"), UNIT_VALUE, 30, contextual=True),
        "cfwd": registry.instantiate("forwarder", UNIT_VALUE, NatV(40), 40, contextual=True),
    }
    universe = gen_cfg.universe + tuple((a, c.code_key) for a, c in extra.items())
    cfg = GenConfig(seed=0, universe=universe)
    return env.updated(extra), cfg


def _nest(rng, ops, addrs, author, depth=0):
    """`ops` with runs of them wrapped (at most two wrappers deep), and
    `end_interactions` and self-calls of `author` put between them."""
    out = []
    i = 0
    while i < len(ops):
        roll = rng.random()
        if roll < 0.08:
            out.append(EndInteractions())
        elif roll < 0.16:
            out.append(Transfer(author, rng.randrange(3), DEFAULT_PARAM))
        if depth < 2 and roll > 0.55:
            k = rng.randrange(4)
            members = _nest(rng, ops[i:i + k], addrs, author, depth + 1)
            listed = frozenset(rng.sample(addrs, rng.randrange(5)))
            wrapper = rng.choice(["atomic", "context", "allow", "block"])
            if wrapper == "atomic":
                out.append(AtomicBundle(members))
            elif wrapper == "context":
                out.append(ContextBundle(members))
            else:
                out.append(Restricted(members, **{wrapper: listed}))
            i += k
        else:
            out.append(ops[i])
            i += 1
    return tuple(out)


def test_generated_transactions_with_wrappers_and_end_interactions():
    env, gen_cfg = _cast()
    gen_cfg = dataclasses.replace(gen_cfg, max_ops_per_tx=5)
    addrs = [addr for addr, _ in gen_cfg.universe]
    rng = random.Random(11)
    seen = set()
    for seed in range(2_000):
        tx = gen_transaction(seed, gen_cfg)
        if not tx.ops:
            continue
        tx = SignedTransaction(tx.author, _nest(rng, tx.ops, addrs, tx.author))
        features = rng.choice([ALL_FEATURE_SETS[-1]] * 3 + [rng.choice(ALL_FEATURE_SETS)])
        fuel = rng.choice([1, 2, 3, 5, 8, 10_000, 10_000, 10_000])
        for strategy in Strategy:
            cfg = SchedulerConfig(strategy=strategy, features=features, fuel=fuel)
            outcome, _ = _assert_same(env, tx, cfg, seed)
            seen.add(outcome)
    assert seen == {"commit", "revert"}
