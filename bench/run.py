"""Benchmark of the prescribed-Ricci library, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep-so3, batch-mixed, probe-frames, or `all` for the three in
turn.  Run it from anywhere inside a checkout; it imports the library from
the checkout's src/.  One run

1. generates the workload's inputs from the seed (workloads.py);
2. with --trace 0, times set-up: fresh interpreters that import the
   library and its CLI and make one call;
3. runs the workload in a worker process (worker.py): an untimed first
   pass, then timed passes for S seconds, with spans recorded from outside
   the library on alternate passes when --trace 1 (spans.py);
4. validates the first pass's outputs, untimed (validate.py);
5. prints a readable summary, writes it with machine and Python details to
   bench/_out/, and prints one JSON object as its last line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_RUNS = 9
SETUP_CODE = ("import sys, prescribed_ricci, prescribed_ricci.cli as cli; "
              "sys.exit(cli.main(['--format', 'json-lines', '--out', "
              "sys.argv[1], 'solve', 'so3', '--T', '10,-1,-1']))")

# end-to-end metric name -> unit; each is reported for every workload
END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "ok_share": "ratio",
              "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]]
                                  if env.get("PYTHONPATH") else []))
    return env


def _launch(args) -> float:
    """Wall seconds of a child process that must exit with status 0."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(args, env=_env())
    # wait() with a timeout polls every few ms up to 50 ms, which would
    # quantize the measurement; a watchdog thread enforces the limit
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        status = proc.wait()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - t0
    if status:
        raise subprocess.CalledProcessError(status, args)
    return wall


def measure_setup(runs: int = SETUP_RUNS) -> list[tuple[float, float, float]]:
    """(wall, reference wall, nominal-speed) seconds of fresh interpreters
    that import the library and its CLI and solve one tensor through
    `cli.main`, as a CLI user pays on every invocation.  Each launch is
    followed by one of the speed.py start-up reference, and scaled by it.
    One pair first, untimed, so bytecode caches exist."""
    import speed
    args = [sys.executable, "-c", SETUP_CODE, str(OUT / "setup.jsonl")]
    ref_args = [sys.executable, "-c", speed.STARTUP_CODE]
    times = []
    for i in range(runs + 1):
        wall = _launch(args)
        ref = _launch(ref_args)
        if i:
            times.append((wall, ref, wall * speed.startup_factor(ref)))
    return times


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_info() -> dict:
    import numpy
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit()}


def prepare(name: str, seed: int, size=None) -> tuple[dict, object, int]:
    """Worker spec fields, the generated inputs and the item count.  `size`
    shrinks the workload (sweep steps, jobs or probe items) for tests."""
    import workloads
    if name == "sweep-so3":
        argv = workloads.sweep_argv(seed, size or workloads.SWEEP_STEPS)
        return {"argv": argv}, argv, len(workloads.sweep_points(argv))
    if name == "batch-mixed":
        jobs = workloads.batch_jobs(seed, size or workloads.BATCH_JOBS)
        path = OUT / "batch-mixed.jobs.jsonl"
        workloads.write_jobs(jobs, path)
        return {"argv": ["batch", str(path)]}, jobs, len(jobs)
    items = workloads.probe_items(seed, size or workloads.PROBE_ITEMS)
    path = OUT / "probe-frames.items.json"
    path.write_text(json.dumps(items), encoding="utf-8")
    return ({"items": str(path), "samples": workloads.PROBE_SAMPLES},
            items, len(items))


def validate_outputs(name: str, seed: int, inputs, result: dict):
    import validate
    if name == "sweep-so3":
        records = validate.read_records(result["first_output"])
        return validate.sweep(records, inputs, seed)
    if name == "batch-mixed":
        records = validate.read_records(result["first_output"])
        return validate.batch(records, inputs)
    return validate.probes(result["probe_reports"], inputs)


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size=None) -> dict:
    """Runs one workload and returns the result line's fields plus the
    details written to bench/_out/."""
    OUT.mkdir(exist_ok=True)
    spec, inputs, items = prepare(name, seed, size)
    result_path = OUT / f"{name}.worker.json"
    spec.update({"workload": name, "seconds": seconds, "trace": trace,
                 "out_dir": str(OUT), "result": str(result_path)})
    spec_path = OUT / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    setup = [] if trace else measure_setup()
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                   env=_env(), check=True, timeout=seconds + 150)
    result = json.loads(result_path.read_text(encoding="utf-8"))

    try:
        check = validate_outputs(name, seed, inputs, result).summary()
        well_formed = True
    except (ValueError, KeyError, TypeError) as exc:
        # records that do not even answer the inputs: every item failed
        check = {"attempted": items, "failed": items, "unexpected": items,
                 "error": f"{type(exc).__name__}: {exc}", "mix": {}}
        well_formed = False
    correct = (well_formed and check["unexpected"] == 0
               and result["repeatable"])

    if trace:
        import spans
        metrics = {k: {"value": result["layers"][k], "unit": unit}
                   for k, unit in spans.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": statistics.median(nominal for *_, nominal in setup),
            "items_per_s": statistics.median(
                items / s for s in result["nominal_seconds"]),
            "ok_share": 1.0 - check["failed"] / check["attempted"],
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in metrics.items()}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "items": items, "passes": len(result["pass_seconds"]),
        "pass_seconds": result["pass_seconds"],
        "nominal_pass_seconds": result["nominal_seconds"],
        "ref_seconds": result["ref_seconds"], "setup_seconds": setup,
        "wall_items_per_s": statistics.median(
            items / s for s in result["pass_seconds"]),
        # counted from the traced passes, so untraced runs stay untraced
        "cubic_calls_per_item": (result["layers"]["cubic.calls"] / items
                                 if trace else None),
        "repeatable": result["repeatable"], "validation": check,
        "machine": machine_info(), "metrics": metrics,
    }
    path = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(details, indent=1), encoding="utf-8")
    return {"correct": correct, "attempted": check["attempted"],
            "failed": check["failed"], "metrics": metrics,
            "details": details, "path": path}


def print_summary(run: dict) -> None:
    d = run["details"]
    v = d["validation"]
    print(f"{d['workload']}: seed {d['seed']}, {d['items']} items, "
          f"{d['passes']} timed passes, trace {d['trace']}")
    for name, m in run["metrics"].items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    speed = statistics.median(d["ref_seconds"])
    print(f"  {'wall_items_per_s':<34} {d['wall_items_per_s']:.6g} 1/s "
          f"(reference kernel {speed * 1e3:.1f} ms)")
    print(f"  {'failed_share':<34} {v['failed'] / v['attempted']:.6g} ratio "
          f"({v['failed']} of {v['attempted']}; unexpected "
          f"{v['unexpected']}; {v.get('error') or v['by_check']})")
    mix = ", ".join(f"{k} {s:.3f}" for k, s in v["mix"].items()
                    if k.startswith("kind "))
    if d["cubic_calls_per_item"] is not None:
        mix += f"; cubic calls/item {d['cubic_calls_per_item']:.3f}"
    print(f"  case mix: {mix}")
    print(f"  correct: {run['correct']}; details in {run['path']}")


def main(argv=None) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prescribed_ricci" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(run)
        runs.append(run)
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['details']['workload']}.{k}": m
                   for r in runs for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in runs),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
