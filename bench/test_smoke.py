"""Smoke test of the benchmark itself, kept out of the tier-1 suite:

    python -m pytest bench/test_smoke.py -q

Runs every workload, listed in BENCHMARK.json or not, for one second in
both modes, checks that each metric named in BENCHMARK.json is printed with
its unit, and checks that the output checker counts a deliberately wrong
result (injected here, around the job, never in the library) as a failed
job.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

WORKLOAD_NAMES = sorted(run.WORKLOADS)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, kind):
    p = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    report, result = (json.loads(line) for line in p.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    report = report["report"]
    assert report["fail_ratio"] == 0 and report["samples"] >= 1
    assert report["env"]["nproc"] >= 1
    listed = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert report["why"] == listed.get(workload)


def _wrong(workload: str, out):
    """Corrupt one field of a correct job output."""
    if workload == "deep_eval":
        report, result, *rest = out
        return (report, dataclasses.replace(result, approximation=result.approximation + 1), *rest)
    if workload == "identity_sweep":
        rows, series, *rest = out
        return (rows, series + 1, *rest)
    return dataclasses.replace(out, stdout=out.stdout * 2)  # two documents


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_wrong_result_counts_as_failure(workload, monkeypatch, capsys):
    cls = run.WORKLOADS[workload]
    real_run = cls.run

    def tampered(self, job, tr):
        out = real_run(self, job, tr)
        return _wrong(workload, out) if tr.job >= 0 else out  # spare the warm-up

    monkeypatch.setattr(cls, "run", tampered)
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""
    assert "semicf" in p.stderr
