"""Smoke test of the benchmark at toy sizes; not part of the repo's tests.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload shape, untraced and traced, on a 100x40 corpus and
checks that the result line carries every metric BENCHMARK.json names,
with its unit, and that every output check passed.  Runs last 3 s, long
enough for several passes and, untraced, for eval workers.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "3", "--trace", str(trace), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_refuses_a_directory_without_sources(tmp_path):
    # only BENCHMARK.json and the benchmark's own files, no program
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bpr-m",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
