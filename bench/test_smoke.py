"""Smoke test of the benchmark on tiny inputs; no timing asserts.

    python3 -m pytest -q bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from prescribed_ricci import cli  # noqa: E402

import run  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"sweep-so3": 4, "batch-mixed": 30, "probe-frames": 6}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.0, trace=trace,
                              size=TINY[name])
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == \
        {k: m["unit"] for k, m in result["metrics"].items()}
    assert result["correct"]
    assert result["attempted"] == result["details"]["items"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)


def _batch_records(tmp_path, jobs):
    jobs_path, out = tmp_path / "jobs.jsonl", tmp_path / "out.jsonl"
    workloads.write_jobs(jobs, jobs_path)
    cli.main(["--format", "json-lines", "--out", str(out), "batch",
              str(jobs_path)])
    return validate.read_records(out)


@pytest.mark.parametrize("corrupt", (lambda c: -c, lambda c: c * (1 + 1e-6)))
def test_batch_counts_a_corrupted_c(tmp_path, corrupt):
    jobs = workloads.batch_jobs(3, 30)
    records = _batch_records(tmp_path, jobs)
    before = validate.batch(records, jobs).summary()
    i = next(i for i, r in enumerate(records) if r.get("solutions"))
    sol = records[i]["solutions"][0]
    sol["c"] = corrupt(sol["c"])
    after = validate.batch(records, jobs).summary()
    assert after["failed"] == before["failed"] + 1
    assert after["unexpected"] >= 1


def test_sweep_counts_a_flipped_c(tmp_path):
    argv = workloads.sweep_argv(3, 4)
    out = tmp_path / "sweep.jsonl"
    cli.main(["--format", "json-lines", "--out", str(out)] + argv)
    records = validate.read_records(out)
    assert validate.sweep(records, argv, 3).summary()["failed"] == 0
    i = next(i for i, r in enumerate(records) if r.get("c"))
    records[i]["c"][0] = -records[i]["c"][0]
    after = validate.sweep(records, argv, 3).summary()
    assert after["failed"] == 1 and after["unexpected"] >= 1


def test_sweep_label_dispute_is_unexpected(tmp_path):
    argv = workloads.sweep_argv(3, 4)
    out = tmp_path / "sweep.jsonl"
    cli.main(["--format", "json-lines", "--out", str(out)] + argv)
    records = validate.read_records(out)
    records[0]["case_label"] = "SO3 (+,+,+)" \
        if records[0]["case_label"] != "SO3 (+,+,+)" else "SO3 (+,0,0)"
    after = validate.sweep(records, argv, 3, sample=0).summary()
    assert (after["failed"], after["unexpected"]) == (1, 1)


def test_probe_exception_is_an_unexpected_failure():
    items = workloads.probe_items(3, 2)
    reports = [{"error": "IndexError: boom"},
               {"kind": "Unique", "c_spread": 0.0, "violations": 0,
                "violation_cond": None}]
    summary = validate.probes(reports, items).summary()
    assert (summary["failed"], summary["unexpected"]) == (1, 1)


@pytest.mark.parametrize("row, cond, unexpected", (
    ("SL2 case (v)", 1e3, 0), ("E11 (0,0,-)", 3e2, 0),
    ("SL2 case (v)", 2.0, 1), ("E2 (+,-,-)", 1e3, 1)))
def test_family_probe_residual_is_known_only_when_ill_conditioned(
        row, cond, unexpected):
    items = [{"group": row.split()[0].lower(), "row": row}]
    reports = [{"kind": "FamilyFixedC", "c_spread": 0.0, "violations": 1,
                "violation_cond": cond}]
    summary = validate.probes(reports, items).summary()
    assert (summary["failed"], summary["unexpected"]) == (1, unexpected)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-so3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
