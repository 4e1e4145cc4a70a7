"""Feature flags: which optional platform features a run switches on."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable


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


FEATURE_NAMES = tuple(f.name for f in fields(FeatureSet))
