"""Write the CLI's outputs on the benchmark inputs, to compare two checkouts
byte for byte.

    python3 scripts/cli_outputs.py OUTDIR SEED...

For each seed, runs the CLI of the checkout this script lives in on the
inputs `bench/workloads.py` generates for that seed: `batch` on
`batch_jobs(seed)` in json-lines and in text, `sweep` on `sweep_argv(seed)`
in both formats, and `certify --from` on the batch's json-lines records.
Each command leaves its output file, its stderr (`.err`) and its exit code
(`.code`) in OUTDIR, beside the jobs file it read.  Run it in two checkouts;
`diff -r` of the two directories is empty when both CLIs write the same
bytes, stderr and exit codes.
"""
from __future__ import annotations

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


def commands(outdir: Path, seed: int) -> list:
    """(output name, CLI arguments) of each command for seed, in the order
    they run; writes the jobs file they read."""
    jobs = outdir / f"{seed}-jobs.jsonl"
    workloads.write_jobs(workloads.batch_jobs(seed), jobs)
    records = outdir / f"{seed}-batch.jsonl"
    sweep = workloads.sweep_argv(seed)
    return [(f"{seed}-batch.jsonl", ["batch", str(jobs)]),
            (f"{seed}-batch.txt", ["batch", str(jobs)]),
            (f"{seed}-sweep.jsonl", sweep),
            (f"{seed}-sweep.txt", sweep),
            (f"{seed}-certify-from.jsonl",
             ["certify", "--from", str(records)])]


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
        for name, args in commands(outdir, seed):
            fmt = "text" if name.endswith(".txt") else "json-lines"
            proc = subprocess.run(
                CLI + ["--format", fmt, "--out", str(outdir / name)] + args,
                env=env, stderr=subprocess.PIPE)
            (outdir / f"{name}.err").write_bytes(proc.stderr)
            (outdir / f"{name}.code").write_text(f"{proc.returncode}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
