"""Write the CLI's outputs and the probe reports on the benchmark inputs,
to compare two checkouts byte for byte.

    python3 scripts/cli_outputs.py OUTDIR SEED...

For each seed, runs the CLI of the checkout this script lives in on the
inputs `bench/workloads.py` generates for that seed: `batch` on
`batch_jobs(seed)` in json-lines and in text, `sweep` on `sweep_argv(seed)`
in both formats, and `certify --from` on the batch's json-lines records.
It then writes `SEED-probe.json`: the fields `tests/test_probe_golden.py`
pins (`report_record`) of `probe` on every `probe_items(seed)` item, an
SO3 item diagonalized first as `bench/worker.py` does.  Each command runs
in a fresh interpreter on the checkout's `src/` and leaves its output
file, its stderr (`.err`) and its exit code (`.code`) in OUTDIR, beside
the jobs file it read.  Run it in two checkouts; `diff -r` of the two
directories is empty when both write the same bytes, stderr and exit
codes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

# the CLI of this checkout, in a fresh interpreter
CLI = [sys.executable, "-c", "import sys; from prescribed_ricci.cli import "
       "main; sys.exit(main(sys.argv[1:]))"]
# `write_probe_reports(OUT, SEED)` of this script, in a fresh interpreter
PROBE = [sys.executable, "-c", f"import sys; sys.path.insert(0, "
         f"{str(ROOT / 'scripts')!r}); from cli_outputs import "
         f"write_probe_reports; write_probe_reports(*sys.argv[1:])"]


def write_probe_reports(out: str, seed: str) -> None:
    """Write the `report_record` of every `probe_items(seed)` item to out,
    as one JSON list; a probe that raises is a record of its error.  Runs
    in the interpreter `PROBE` starts, the one with `src/` on its path."""
    sys.path.insert(0, str(ROOT / "tests"))
    from prescribed_ricci.diagonalize import diagonalize_so3
    from test_probe_golden import report_record
    records = []
    for item in workloads.probe_items(int(seed)):
        T = (diagonalize_so3(item["T_full"]).diagonal.T
             if item["group"] == "so3" else item["T"])
        try:
            records.append(report_record(item["group"], list(T),
                                         item["rng"]))
        except Exception as exc:
            records.append({"group": item["group"], "T": list(T),
                            "error": f"{type(exc).__name__}: {exc}"})
    Path(out).write_text(json.dumps(records, indent=1) + "\n",
                         encoding="utf-8")


def commands(outdir: Path, seed: int) -> list:
    """(output name, argv) of each command for seed, in the order they
    run; writes the jobs file they read."""
    jobs = outdir / f"{seed}-jobs.jsonl"
    workloads.write_jobs(workloads.batch_jobs(seed), jobs)
    records = outdir / f"{seed}-batch.jsonl"
    sweep = workloads.sweep_argv(seed)

    def cli(name, args):
        fmt = "text" if name.endswith(".txt") else "json-lines"
        return name, CLI + ["--format", fmt, "--out", str(outdir / name)] + args

    return [cli(f"{seed}-batch.jsonl", ["batch", str(jobs)]),
            cli(f"{seed}-batch.txt", ["batch", str(jobs)]),
            cli(f"{seed}-sweep.jsonl", sweep),
            cli(f"{seed}-sweep.txt", sweep),
            cli(f"{seed}-certify-from.jsonl",
                ["certify", "--from", str(records)]),
            (f"{seed}-probe.json",
             PROBE + [str(outdir / f"{seed}-probe.json"), str(seed)])]


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0].startswith("-"):
        print("usage: python3 scripts/cli_outputs.py OUTDIR SEED...",
              file=sys.stderr)
        return 2
    outdir, seeds = Path(argv[0]), [int(s) for s in argv[1:]]
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    for seed in seeds:
        for name, argv in commands(outdir, seed):
            proc = subprocess.run(argv, env=env, stderr=subprocess.PIPE)
            (outdir / f"{name}.err").write_bytes(proc.stderr)
            (outdir / f"{name}.code").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
