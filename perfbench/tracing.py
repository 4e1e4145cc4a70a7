"""Spans at layer boundaries, recorded from outside the library.

The traced pass wraps public entry points for its duration only:

- the ``execute=`` hook of ``run_transaction``/``fuzz``          -> executor
- ``registry.resolve``, so every contract body call is timed      -> registry
- ``Environment.updated``                                         -> core
- ``run_transaction`` as the benchmark or ``harness`` calls it    -> scheduler
- ``harness.gen_transaction``/``check_transaction`` and the
  ``validate_*`` functions as the ``harness`` module sees them    -> harness, trace

A span is (name, start, end, parent span, transaction id). Spans stay in
memory and are written out when the run ends. A layer's self time is its
spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from array import array
from typing import Callable

from chainsim import core, harness, registry
from chainsim.executor import ExecError, execute_operation

REVERT_KINDS = (
    "address_occupied",
    "contract_failure",
    "end_interactions_violation",
    "feature_disabled",
    "fuel_exhausted",
    "insufficient_balance",
    "overflow",
    "restriction_violation",
    "type_mismatch",
    "unknown_address",
    "unknown_code_key",
)


class Tracer:
    """Spans in flat integer arrays, which the garbage collector never scans,
    so tracing does not slow collections of the simulator's own objects."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")  # index of the enclosing span, or -1
        self.tx = array("q")
        self._open: list[int] = []
        self.current_tx = -1
        self.exec_errors = 0

    def span(self, name: str, fn: Callable, *args, **kwargs):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.tx.append(self.current_tx)
        self.end.append(0)
        self._open.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def transaction(self, name: str, fn: Callable) -> Callable:
        """Like wrap, but each call starts a new transaction id."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.current_tx += 1
            return self.span(name, fn, *args, **kwargs)

        return traced

    def execute(self, *args):
        """The execute= hook: one executor span per operation."""
        try:
            return self.span("executor", execute_operation, *args)
        except ExecError:
            self.exec_errors += 1
            raise

    # -- aggregation --------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        durations = [e - b for b, e in zip(self.start, self.end)]
        child_ns = [0] * len(durations)
        for parent, d in zip(self.parent, durations):
            if parent >= 0:
                child_ns[parent] += d
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in self.names}
        for name_id, d, c in zip(self.name, durations, child_ns):
            agg = out[self.names[name_id]]
            agg["calls"] += 1
            agg["total_s"] += d / 1e9
            agg["self_s"] += (d - c) / 1e9
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start_ns": self.start.tolist(),
                    "end_ns": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "tx": self.tx.tolist(),
                },
                fh,
                separators=(",", ":"),
            )


@contextlib.contextmanager
def instrument(tracer: Tracer, on_transaction: Callable):
    """Patch the layer boundaries for the duration of the block.

    `on_transaction(outcome, tree)` observes every run_transaction that
    the harness makes, so traced fuzz passes yield simulated statistics too.
    """
    saved = {
        (core.Environment, "updated"): core.Environment.updated,
        (registry, "resolve"): registry.resolve,
    }
    for name in (
        "gen_transaction",
        "check_transaction",
        "run_transaction",
        "validate_conservation",
        "validate_no_double_spend",
        "validate_replay",
        "validate_atomic_bundles",
    ):
        saved[(harness, name)] = getattr(harness, name)

    traced_defs: dict[str, registry.ContractDef] = {}
    plain_resolve = registry.resolve

    def resolve(code_key):
        traced = traced_defs.get(code_key)
        if traced is None:
            defn = plain_resolve(code_key)
            traced = dataclasses.replace(defn, body=tracer.wrap("registry.body", defn.body))
            traced_defs[code_key] = traced
        return traced

    plain_run = harness.run_transaction

    def run_tx(env, *args):
        result = tracer.span("scheduler", plain_run, env, *args)
        on_transaction(result[0], result[2])
        return result

    core.Environment.updated = tracer.wrap("core.env_update", core.Environment.updated)
    registry.resolve = resolve
    harness.gen_transaction = tracer.transaction("harness.gen", harness.gen_transaction)
    harness.check_transaction = tracer.wrap("harness.check", harness.check_transaction)
    harness.run_transaction = run_tx
    for name in ("conservation", "no_double_spend", "replay", "atomic_bundles"):
        attr = f"validate_{name}"
        setattr(harness, attr, tracer.wrap("trace.validate", getattr(harness, attr)))
    try:
        yield tracer
    finally:
        for (owner, attr), value in saved.items():
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer, loop_s: float, steps: int, reverts: dict, violations: int) -> dict:
    """Per-layer metrics from the spans of a traced run: its set-up plus its
    passes, which took `loop_s` seconds."""
    t = tracer.totals()

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    env_updates = get("core.env_update", "calls")
    exec_calls = get("executor", "calls")
    sched_self = get("scheduler", "self_s")
    exec_self = get("executor", "self_s")
    check_self = get("harness.check", "self_s")
    m = {
        "scenario.parse_s": (get("scenario.parse", "total_s"), "s"),
        "scenario.validate_s": (get("scenario.validate", "total_s"), "s"),
        "scenario.build_env_s": (get("scenario.build_env", "total_s"), "s"),
        "scenario.compile_s": (get("scenario.compile", "total_s"), "s"),
        "core.env_updates": (env_updates, "count"),
        "core.env_update_s": (get("core.env_update", "total_s"), "s"),
        "core.env_update_us": (
            get("core.env_update", "total_s") / env_updates * 1e6 if env_updates else 0.0,
            "us",
        ),
        "scheduler.self_s": (sched_self, "s"),
        "scheduler.steps": (steps, "count"),
        "scheduler.us_per_step": (sched_self / steps * 1e6 if steps else 0.0, "us"),
        "scheduler.reverts": (sum(reverts.values()), "count"),
        "executor.calls": (exec_calls, "count"),
        "executor.errors": (tracer.exec_errors, "count"),
        "executor.self_s": (exec_self, "s"),
        "executor.us_per_call": (exec_self / exec_calls * 1e6 if exec_calls else 0.0, "us"),
        "registry.body_calls": (get("registry.body", "calls"), "count"),
        "registry.body_s": (get("registry.body", "total_s"), "s"),
        "trace.to_json_s": (get("trace.to_json", "total_s"), "s"),
        "trace.validate_s": (get("trace.validate", "total_s"), "s"),
        "harness.gen_s": (get("harness.gen", "total_s"), "s"),
        "harness.check_self_s": (check_self, "s"),
        "harness.check_self_frac": (check_self / loop_s if loop_s else 0.0, "fraction"),
        "harness.violations": (violations, "count"),
    }
    for kind in REVERT_KINDS:
        m[f"scheduler.reverts.{kind}"] = (reverts.get(kind, 0), "count")
    return m
