import random

import pytest
from hypothesis import given, strategies as st

from chainsim.core import RestrictionState
from chainsim.features import (
    FEATURE_NAMES,
    FeatureSet,
    end_mode_permits,
    narrow_restrictions,
    restrictions_permit,
)


class TestFeatureSet:
    def test_from_names(self):
        fs = FeatureSet.from_names(["views", "bundles"])
        assert fs.views and fs.bundles
        assert not fs.restrictions
        assert fs.enabled_names() == ("views", "bundles")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            FeatureSet.from_names(["warp_drive"])

    def test_all_on(self):
        assert FeatureSet.all_on().enabled_names() == FEATURE_NAMES


class TestNarrow:
    def test_allow_against_universe(self):
        r = narrow_restrictions(RestrictionState(), allow=frozenset({"a", "b"}))
        assert r.allow == {"a", "b"}

    def test_allow_intersects(self):
        parent = RestrictionState(allow=frozenset({"a", "b"}))
        r = narrow_restrictions(parent, allow=frozenset({"b", "c"}))
        assert r.allow == {"b"}

    def test_block_unions(self):
        parent = RestrictionState(block=frozenset({"x"}))
        r = narrow_restrictions(parent, block=frozenset({"y"}))
        assert r.block == {"x", "y"}

    def test_no_change_without_args(self):
        parent = RestrictionState(allow=frozenset({"a"}), block=frozenset({"z"}))
        assert narrow_restrictions(parent) == parent


class TestCheckAllowed:
    """A call is allowed when both the restriction state and the
    end-of-interactions mode permit it, as the executor checks."""

    def test_allow_member(self):
        r = RestrictionState(allow=frozenset({"vault"}))
        assert restrictions_permit(r, "vault")
        assert end_mode_permits(None, "anyone", "vault")

    def test_blocked(self):
        r = RestrictionState(block=frozenset({"bad"}))
        assert not restrictions_permit(r, "bad")

    def test_end_mode_owner_only(self):
        r = RestrictionState()
        assert restrictions_permit(r, "v") and end_mode_permits("v", "v", "v")
        assert restrictions_permit(r, "w") and not end_mode_permits("v", "v", "w")
        assert not end_mode_permits("v", "w", "v")


_UNIVERSE = tuple(f"a{i}" for i in range(8))


def _passing(r: RestrictionState) -> frozenset:
    return frozenset(a for a in _UNIVERSE if restrictions_permit(r, a))


@given(st.integers(min_value=0, max_value=2**31))
def test_narrowing_chain_never_grows(seed):
    rng = random.Random(seed)
    state = RestrictionState()
    passing = _passing(state)
    for _ in range(rng.randrange(1, 6)):
        if rng.random() < 0.5:
            subset = frozenset(rng.sample(_UNIVERSE, rng.randrange(0, len(_UNIVERSE))))
            state = narrow_restrictions(state, allow=subset)
        else:
            subset = frozenset(rng.sample(_UNIVERSE, rng.randrange(0, 4)))
            state = narrow_restrictions(state, block=subset)
        new_passing = _passing(state)
        assert new_passing <= passing
        passing = new_passing
