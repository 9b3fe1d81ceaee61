"""Runs one workload in a fresh process: an untimed first pass, then timed
passes until the time budget is spent, and writes a result file.

Usage: python3 bench/worker.py SPEC.json  (SPEC is written by run.py; the
library must be importable, run.py puts src/ on PYTHONPATH).

The first pass runs untraced; its outputs are what run.py validates, and
every timed pass must reproduce them.  Every timed pass is followed by a
run of the speed.py reference kernel (probe passes also pause for one
every PROBE_CHUNK items), and each pass is also reported at nominal
machine speed.  With "trace": 1 the timed phase alternates untraced and
traced passes and the result also carries the per-layer metrics.
"""
from __future__ import annotations

import filecmp
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
from prescribed_ricci import cli
from prescribed_ricci.diagonalize import diagonalize_so3
from prescribed_ricci.probe import probe

import spans
import speed

# probe items between reference-kernel runs inside a probe pass; the passes
# of the CLI workloads are single calls and get reference runs only around
# them
PROBE_CHUNK = 90

# the benchmark's own entry points; the tracer wraps them here, where the
# workload looks them up
ENTRY = types.SimpleNamespace(main=cli.main, probe=probe,
                              diagonalize_so3=diagonalize_so3)


def _cli_pass(argv, out_path):
    status = ENTRY.main(["--format", "json-lines", "--out", str(out_path)]
                        + argv)
    # 3 means a certificate failed; validation counts those per record
    if status not in (cli.EXIT_OK, cli.EXIT_CERT_FAILURE):
        raise RuntimeError(f"cli exited with status {status}")


def _probe_pass(items, samples, tracer, pause):
    reports = []
    for i, item in enumerate(items):
        if i and i % PROBE_CHUNK == 0:
            pause()
        tracer.item = i
        try:
            if item["group"] == "so3":
                T = ENTRY.diagonalize_so3(item["T_full"]).diagonal.T
            else:
                T = tuple(item["T"])
            rep = ENTRY.probe(item["group"], T, n=samples, rng=item["rng"])
        except Exception as exc:  # a probe that raises is a failed item
            reports.append({"error": f"{type(exc).__name__}: {exc}"})
            continue
        # the best-conditioned violating frame change tells validation
        # whether the violations fit the known ill-conditioning defect
        cond = min((float(np.linalg.cond(M)) for M in rep.violations),
                   default=None)
        reports.append({"kind": rep.base_kind, "c_spread": rep.c_spread,
                        "violations": len(rep.violations),
                        "violation_cond": cond})
    return reports


def _peak_rss_kb() -> int:
    """High-water resident set size of this process since it started.
    getrusage's ru_maxrss is not used: Linux carries the spawning
    parent's peak across exec into it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out_dir = Path(spec["out_dir"])
    first_out = out_dir / f"{spec['workload']}.first.jsonl"
    timed_out = out_dir / f"{spec['workload']}.timed.jsonl"
    tracer = spans.Tracer(ENTRY)
    if spec["workload"] == "probe-frames":
        items = json.loads(Path(spec["items"]).read_text(encoding="utf-8"))

        def run_pass(out_path, pause):
            return _probe_pass(items, spec["samples"], tracer, pause)
    else:
        def run_pass(out_path, pause):
            return _cli_pass(spec["argv"], out_path)

    first_payload = run_pass(first_out, lambda: None)

    refs = [speed.ref_seconds()]
    untraced, traced = [], []  # (wall seconds, seconds at nominal speed)
    repeatable = True

    def measure(out_path):
        """(wall, nominal) seconds of one pass, scaled by the mean of the
        reference runs around it and, where the pass loop is the
        benchmark's own, inside it (excluded from the pass time).  The
        pass's output is then compared with the first pass's, untimed."""
        nonlocal repeatable
        first_ref = len(refs) - 1
        paused = 0.0

        def pause():
            nonlocal paused
            t = time.perf_counter()
            refs.append(speed.ref_seconds())
            paused += time.perf_counter() - t

        t0 = time.perf_counter()
        payload = run_pass(out_path, pause)
        wall = time.perf_counter() - t0 - paused
        refs.append(speed.ref_seconds())
        around = refs[first_ref:]
        if first_payload is None:
            same = filecmp.cmp(first_out, out_path, shallow=False)
        else:
            same = payload == first_payload
        repeatable = repeatable and same
        return wall, wall * speed.factor(sum(around) / len(around))

    deadline = time.perf_counter() + spec["seconds"]
    while not untraced or time.perf_counter() < deadline:
        untraced.append(measure(timed_out))
        if spec["trace"]:
            tracer.item = 0
            tracer.install()
            try:
                traced.append(measure(timed_out))
            finally:
                tracer.uninstall()

    result = {
        "pass_seconds": [wall for wall, _ in untraced],
        "nominal_seconds": [nominal for _, nominal in untraced],
        "ref_seconds": refs,
        "peak_rss_kb": _peak_rss_kb(),
        "repeatable": repeatable,
        "first_output": str(first_out) if first_payload is None else None,
        "probe_reports": first_payload,
    }
    if spec["trace"]:
        bytes_out = first_out.stat().st_size if first_payload is None else 0
        result["layers"] = spans.layer_metrics(
            tracer.spans, traced, untraced, refs, bytes_out)
        tracer.write(out_dir / f"spans-{spec['workload']}.jsonl",
                     origin=tracer.spans[0][1] if tracer.spans else 0.0)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
