import random

import pytest
from hypothesis import given, strategies as st

from chainsim.core import AddressV, NatV, Restricted, Transfer, make_param
from chainsim.executor import execute_operation
from chainsim.features import FEATURE_NAMES, FeatureSet
from chainsim.scheduler import Commit, SchedulerConfig, SignedTransaction, run_transaction


class TestFeatureSet:
    def test_from_names(self):
        fs = FeatureSet.from_names(["views", "bundles"])
        assert fs.views and fs.bundles
        assert not fs.restrictions
        assert fs.enabled_names() == ("views", "bundles")
        assert FeatureSet.from_names(FEATURE_NAMES).enabled_names() == FEATURE_NAMES
        assert FEATURE_NAMES == (
            "views", "pending_balance", "restrictions", "bundles", "contexts", "end_interactions"
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            FeatureSet.from_names(["warp_drive"])


# An operation's restrictions are the `Restricted` wrappers around it,
# outermost first; it may call an address only if every one permits it.
_UNIVERSE = tuple(f"a{i}" for i in range(8))


def _passing(restrictions: tuple) -> frozenset:
    return frozenset(a for a in _UNIVERSE if all(w.permits(a) for w in restrictions))


class TestNarrow:
    def test_allow_against_universe(self):
        r = (Restricted(allow=frozenset({"a0", "a1"})),)
        assert _passing(r) == {"a0", "a1"}

    def test_allow_intersects(self):
        r = (Restricted(allow=frozenset({"a0", "a1"})), Restricted(allow=frozenset({"a1", "a2"})))
        assert _passing(r) == {"a1"}

    def test_block_unions(self):
        r = (Restricted(block=frozenset({"a0"})), Restricted(block=frozenset({"a1"})))
        assert _passing(r) == frozenset(_UNIVERSE[2:])

    def test_no_change_without_args(self):
        parent = (Restricted(allow=frozenset({"a0", "a7"})), Restricted(block=frozenset({"a7"})))
        assert _passing(parent + (Restricted(),)) == _passing(parent) == {"a0"}

    def test_expansion_appends_the_wrapper(self, simple_env):
        # fwd's emitted transfer runs inside both wrappers, outermost first.
        inner = Restricted(
            (Transfer("fwd", 0, make_param("invoke", AddressV("bob"), NatV(1))),),
            block=frozenset({"alice"}),
        )
        outer = Restricted((inner,), allow=frozenset({"fwd", "bob"}))
        seen = []

        def spy(ectx, op, *rest):
            seen.append((ectx.sender, op.dest, ectx.restrictions))
            return execute_operation(ectx, op, *rest)

        cfg = SchedulerConfig(features=FeatureSet(restrictions=True))
        outcome, _, _ = run_transaction(
            simple_env, SignedTransaction("alice", (outer,)), cfg, 0, spy
        )
        assert isinstance(outcome, Commit)
        assert seen == [("alice", "fwd", (outer, inner)), ("fwd", "bob", (outer, inner))]


class TestPermits:
    def test_allow_member(self):
        r = Restricted(allow=frozenset({"vault"}))
        assert r.permits("vault")
        assert not r.permits("other")

    def test_blocked(self):
        r = Restricted(block=frozenset({"bad"}))
        assert not r.permits("bad")
        assert r.permits("good")

    def test_full_universe(self):
        assert Restricted().permits("v") and Restricted().permits("w")
        assert _passing(()) == frozenset(_UNIVERSE)


@given(st.integers(min_value=0, max_value=2**31))
def test_narrowing_chain_never_grows(seed):
    rng = random.Random(seed)
    restrictions = ()
    passing = _passing(restrictions)
    for _ in range(rng.randrange(1, 6)):
        if rng.random() < 0.5:
            subset = frozenset(rng.sample(_UNIVERSE, rng.randrange(0, len(_UNIVERSE))))
            restrictions += (Restricted(allow=subset),)
        else:
            subset = frozenset(rng.sample(_UNIVERSE, rng.randrange(0, 4)))
            restrictions += (Restricted(block=subset),)
        new_passing = _passing(restrictions)
        assert new_passing <= passing
        passing = new_passing
