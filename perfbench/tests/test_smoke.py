"""Smoke test: every workload runs at a tiny size, passes its checks and
prints every metric of ``BENCHMARK.json`` with its unit.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(cwd: str, *args: str, timeout: float = 300):
    return subprocess.run(
        [sys.executable, RUN if cwd == ROOT
         else os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
             "--trace", str(trace), "--scale", "0.05")
    assert p.returncode == 0, p.stderr[-4000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, details["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    assert details["host"]["ray_num_cpus"] == 1
    assert len(details["host"]["host_probe_ms"]) == 3
    if trace:
        assert result["metrics"]["trace.layer_share"]["value"] >= 0.9


def test_digest_repeats():
    """Same seed, same top-k digest, traced or not."""
    digests = set()
    for trace in (0, 1):
        p = _run(ROOT, "--workload", "churn", "--seed", "4", "--seconds",
                 "1", "--trace", str(trace), "--scale", "0.05")
        assert p.returncode == 0, p.stderr[-4000:]
        digests.add(json.loads(p.stdout.strip().splitlines()[-2])["digest"])
    assert len(digests) == 1


def test_fails_without_package(tmp_path):
    """With only the benchmark's own files present it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(str(tmp_path), "--workload", "serve", "--seed", "1",
             "--seconds", "1", "--trace", "0", timeout=60)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
