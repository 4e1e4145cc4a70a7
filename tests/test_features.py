import random

import pytest
from hypothesis import given, strategies as st

from chainsim.core import Restricted, RestrictionState
from chainsim.features import FEATURE_NAMES, FeatureSet


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


class TestNarrow:
    def test_allow_against_universe(self):
        r = RestrictionState().narrowed(Restricted(allow=frozenset({"a", "b"})))
        assert r.allow == {"a", "b"}

    def test_allow_intersects(self):
        parent = RestrictionState(allow=frozenset({"a", "b"}))
        r = parent.narrowed(Restricted(allow=frozenset({"b", "c"})))
        assert r.allow == {"b"}

    def test_block_unions(self):
        parent = RestrictionState(block=frozenset({"x"}))
        r = parent.narrowed(Restricted(block=frozenset({"y"})))
        assert r.block == {"x", "y"}

    def test_no_change_without_args(self):
        parent = RestrictionState(allow=frozenset({"a"}), block=frozenset({"z"}))
        assert parent.narrowed(Restricted()) == parent


class TestPermits:
    def test_allow_member(self):
        r = RestrictionState(allow=frozenset({"vault"}))
        assert r.permits("vault")
        assert not r.permits("other")

    def test_blocked(self):
        r = RestrictionState(block=frozenset({"bad"}))
        assert not r.permits("bad")
        assert r.permits("good")

    def test_full_universe(self):
        assert RestrictionState().permits("v") and RestrictionState().permits("w")


_UNIVERSE = tuple(f"a{i}" for i in range(8))


def _passing(r: RestrictionState) -> frozenset:
    return frozenset(a for a in _UNIVERSE if r.permits(a))


@given(st.integers(min_value=0, max_value=2**31))
def test_narrowing_chain_never_grows(seed):
    rng = random.Random(seed)
    state = RestrictionState()
    passing = _passing(state)
    for _ in range(rng.randrange(1, 6)):
        if rng.random() < 0.5:
            subset = frozenset(rng.sample(_UNIVERSE, rng.randrange(0, len(_UNIVERSE))))
            state = state.narrowed(Restricted(allow=subset))
        else:
            subset = frozenset(rng.sample(_UNIVERSE, rng.randrange(0, 4)))
            state = state.narrowed(Restricted(block=subset))
        new_passing = _passing(state)
        assert new_passing <= passing
        passing = new_passing
