import json
import subprocess
import sys

import pytest

from chainsim.scenario import MAX_NESTING
from conftest import GOLDEN_DIR, scenario_path


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "chainsim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestRun:
    def test_passing_scenario_exits_zero(self):
        proc = run_cli("run", str(scenario_path("vault_bfs_attack.msc")))
        assert proc.returncode == 0
        assert "balance @vault = 0: PASS" in proc.stdout

    def test_step_output_matches_golden(self):
        proc = run_cli("run", str(scenario_path("vault_bfs_attack.msc")), "--step")
        assert proc.returncode == 0
        assert proc.stdout == golden("vault_step.txt")

    def test_strategy_override_fails_expectations(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--strategy", "dfs"
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_missing_file_is_usage_error(self):
        proc = run_cli("run", "missing.msc")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_parse_error_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.msc"
        bad.write_text("scenario vault")
        proc = run_cli("run", str(bad))
        assert proc.returncode == 2
        assert "expected" in proc.stderr

    def test_unknown_strategy_flag(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--strategy", "zig"
        )
        assert proc.returncode == 2

    def test_trace_json_written(self, tmp_path):
        out = tmp_path / "trace.json"
        proc = run_cli(
            "run",
            str(scenario_path("vault_bfs_attack.msc")),
            "--trace",
            str(out),
        )
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        tree = payload[0]
        assert tree["outcome"] == "commit"
        assert tree["ts"] == 0
        node = tree["nodes"][0]
        assert {"id", "parent", "seq", "sender", "kind", "status", "deltas", "commits"} <= set(node)

    def test_feature_override(self):
        # stripping the contexts feature makes the fixture revert
        proc = run_cli(
            "run", str(scenario_path("context_frames.msc")), "--features", ""
        )
        assert proc.returncode == 1

    def test_fuel_override(self):
        proc = run_cli(
            "run", str(scenario_path("vault_bfs_attack.msc")), "--fuel", "2"
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout


class TestCompare:
    def test_divergent_strategies(self):
        proc = run_cli("compare", str(scenario_path("vault_bfs_attack.msc")))
        assert proc.returncode == 1
        assert proc.stdout == golden("vault_compare.txt")
        assert "DIVERGENT" in proc.stdout

    def test_identical_for_pure_deposit(self):
        proc = run_cli("compare", str(scenario_path("vault_deposit.msc")))
        assert proc.returncode == 0
        assert proc.stdout == golden("deposit_compare.txt")
        assert "IDENTICAL" in proc.stdout

    def test_single_strategy_is_usage_error(self):
        proc = run_cli(
            "compare", str(scenario_path("vault_deposit.msc")), "--strategies", "bfs"
        )
        assert proc.returncode == 2


class TestFuzz:
    def test_clean_fuzz_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("fuzz", "--seed", "7", "--iterations", "50", "--out", str(out))
        assert proc.returncode == 0
        assert "iterations=50 violations=0" in proc.stdout
        payload = json.loads(out.read_text())
        assert payload == {"iterations": 50, "violations": []}

    def test_zero_iterations_usage_error(self):
        proc = run_cli("fuzz", "--iterations", "0")
        assert proc.returncode == 2

    def test_unknown_invariant_usage_error(self):
        proc = run_cli("fuzz", "--iterations", "1", "--invariants", "nope")
        assert proc.returncode == 2

    def test_stdout_deterministic(self):
        a = run_cli("fuzz", "--seed", "3", "--iterations", "40")
        b = run_cli("fuzz", "--seed", "3", "--iterations", "40")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


def _position(proc, path) -> tuple[int, int]:
    """(line, col) of the parse error the CLI reported for `path`."""
    prefix = f"error: {path}:"
    assert proc.stderr.startswith(prefix), proc.stderr
    line, col = proc.stderr[len(prefix):].split(":")[:2]
    return int(line), int(col)


def _nth(text: str, needle: str, n: int) -> tuple[int, int]:
    """1-based (line, col) of the n-th occurrence of `needle` in `text`."""
    at = -1
    for _ in range(n):
        at = text.index(needle, at + 1)
    before = text[:at]
    return before.count("\n") + 1, at - before.rfind("\n")


TOO_BIG = str(2**64)  # one past the largest mutez amount

OUT_OF_RANGE = [
    f'scenario "x"\naccount @a balance 1\ntransaction from @a {{ transfer {TOO_BIG} to @a }}',
    f'scenario "x"\naccount @a balance {TOO_BIG}',
    f'scenario "x"\ncontract @c code receiver config unit storage unit balance {TOO_BIG}',
    f'scenario "x"\naccount @a balance 1\ntransaction from @a {{\n'
    f"  create @k code receiver config unit storage unit balance {TOO_BIG}\n}}",
    f'scenario "x"\naccount @a balance 1\nexpect storage @a = mutez {TOO_BIG}',
]


def _deep(kind: str, levels: int) -> str:
    """A scenario nesting `levels` brackets inside its one transaction block:
    atomic wrappers around a transfer, or pairs in a call argument (which a
    receiver rejects, so that transaction reverts)."""
    head = 'scenario "deep"\naccount @a balance 1\nfeatures bundles\ntransaction from @a {'
    if kind == "ops":
        body = " atomic {" * levels + " transfer 1 to @a" + " }" * levels
        return f"{head}{body} }}\nexpect commit\n"
    body = " transfer 1 to @a call f(" + "(pair " * levels + "1" + " 2)" * levels + ")"
    return f"{head}{body} }}\nexpect revert\n"


class TestParseBounds:
    @pytest.mark.parametrize("text", OUT_OF_RANGE)
    def test_out_of_range_literal_is_positioned_parse_error(self, tmp_path, text):
        path = tmp_path / "big.msc"
        path.write_text(text)
        proc = run_cli("run", str(path))
        assert proc.returncode == 2
        assert _position(proc, path) == _nth(text, TOO_BIG, 1)
        assert "at most 18446744073709551615" in proc.stderr

    @pytest.mark.parametrize("kind", ["ops", "value"])
    def test_nesting_at_the_bound_runs(self, tmp_path, kind):
        # The transaction block is the first level.
        path = tmp_path / "deep.msc"
        path.write_text(_deep(kind, MAX_NESTING - 1))
        trace = tmp_path / "trace.json"
        proc = run_cli("run", str(path), "--step", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(trace.read_text())[0]["nodes"]

    @pytest.mark.parametrize("kind", ["ops", "value"])
    @pytest.mark.parametrize("levels", [MAX_NESTING, 3000])
    def test_nesting_past_the_bound_is_parse_error(self, tmp_path, kind, levels):
        path = tmp_path / "deep.msc"
        text = _deep(kind, levels)
        path.write_text(text)
        proc = run_cli("run", str(path), "--step")
        assert proc.returncode == 2
        opening = "{" if kind == "ops" else "(pair"
        # With the transaction's own `{`, the first bracket past the bound.
        nth = MAX_NESTING + 1 if kind == "ops" else MAX_NESTING
        assert _position(proc, path) == _nth(text, opening, nth)
        assert f"at most {MAX_NESTING} nested brackets" in proc.stderr

