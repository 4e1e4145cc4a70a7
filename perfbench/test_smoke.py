"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

TINY = workloads.Sizes(
    fanout_entries=40,
    fanout_receivers=4,
    block_accounts=60,
    block_txs=30,
    fuzz_iterations=40,
    setup_repeats={"fanout": 2, "block": 2, "fuzz": 3},
    scaling_entries=(20, 80),
    scaling_accounts=(20, 200),
    scaling_txs=20,
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(workload, trace, tmp_path, expected=None):
    result = run.measure(
        workload, 5, 0.05, trace, sizes=TINY, expected=expected, out_dir=tmp_path
    )
    return result, run.report(result, {})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, section, tmp_path):
    result, final = _measure(workload, trace, tmp_path)
    assert result["failures"] == []
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in final["metrics"].items()}
    assert emitted == declared
    assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expected_digest_drives_error_rate_above_zero(workload, tmp_path):
    result, _ = _measure(workload, False, tmp_path)
    wrong = dict(result["statistics"], digest="0" * 64)
    _, final = _measure(workload, False, tmp_path, expected=wrong)
    assert not final["correct"]
    assert final["failed"] / final["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fuzz", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
