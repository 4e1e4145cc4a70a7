"""Feature flags plus the allow/block/end-of-interactions permission rules."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Optional

from .core import RestrictionState

FEATURE_NAMES = (
    "views",
    "pending_balance",
    "restrictions",
    "bundles",
    "contexts",
    "end_interactions",
)


@dataclass(frozen=True)
class FeatureSet:
    """Which optional platform features are switched on.

    A disabled feature makes the corresponding operation or capability fail;
    it is never silently ignored.
    """

    views: bool = False
    pending_balance: bool = False
    restrictions: bool = False
    bundles: bool = False
    contexts: bool = False
    end_interactions: bool = False

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "FeatureSet":
        flags = {}
        for name in names:
            if name not in FEATURE_NAMES:
                raise ValueError(f"unknown feature: {name!r}")
            flags[name] = True
        return cls(**flags)

    def enabled_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if getattr(self, f.name))


def narrow_restrictions(
    parent: RestrictionState,
    allow: Optional[frozenset[str]] = None,
    block: Optional[frozenset[str]] = None,
) -> RestrictionState:
    """Intersect allow sets (absent = full universe) and union block sets.

    The result is inherited by all descendants of the wrapped operations, so
    allow only ever shrinks and block only ever grows along any path.
    """
    if allow is None:
        new_allow = parent.allow
    elif parent.allow is None:
        new_allow = frozenset(allow)
    else:
        new_allow = parent.allow & frozenset(allow)
    new_block = parent.block | (frozenset(block) if block else frozenset())
    return RestrictionState(allow=new_allow, block=new_block)


def restrictions_permit(r: RestrictionState, dest: str) -> bool:
    if dest in r.block:
        return False
    return r.allow is None or dest in r.allow


def end_mode_permits(mode_owner: Optional[str], sender: str, dest: str) -> bool:
    if mode_owner is None:
        return True
    return sender == mode_owner and dest == mode_owner
