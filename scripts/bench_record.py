"""Write BENCH_<topic>.json from paired benchmark runs of two checkouts.

    python3 scripts/bench_record.py --topic batch \\
        --parent RUNS/parent --change RUNS/change \\
        --parent-commit SHA --change-commit SHA

Each directory holds copies of the `bench/_out/result-*.json` files that
`bench/run.py` (with `--trace 0`) wrote in one checkout; a file in one
directory and the file of the same name in the other are one pair of runs.
Run the pairs alternately, parent and change in turn, so both see the same
machine.  Per workload and end-to-end metric the record holds each side's
median and quartiles, the ratio of the medians and how many pairs the
change won (ties count for neither side), plus every run's values, the
seeds, the commits, and the machine and Python details of the runs.  It
also checks the two conditions a claimed gain must meet: the change won at
least nine tenths of the pairs, and its median is better than the parent's
by more than the distance between the parent's quartiles.  Writes
BENCH_<topic>.json at the repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _runs(directory: Path) -> dict:
    return {p.name: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(directory.glob("*.json"))}


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(parent: dict, change: dict, better: dict) -> dict:
    """Per workload: the seeds, the runs and, per metric, both sides'
    spreads, the ratio of the medians, the pairs the change won and
    whether a gain may be claimed."""
    missing = sorted(set(parent) ^ set(change))
    if missing:
        raise SystemExit(f"unpaired result files: {missing}")
    workloads: dict = {}
    for name in sorted(parent):
        p, c = parent[name], change[name]
        if (p["workload"], p["seed"]) != (c["workload"], c["seed"]):
            raise SystemExit(f"{name}: the pair ran different workloads")
        w = workloads.setdefault(p["workload"], {"seconds": p["seconds"],
                                                 "seeds": [], "runs": []})
        w["seeds"].append(p["seed"])
        w["runs"].append({
            "file": name, "seed": p["seed"],
            "parent": {k: m["value"] for k, m in p["metrics"].items()},
            "change": {k: m["value"] for k, m in c["metrics"].items()},
            "correct": [p["validation"]["unexpected"] == 0 and p["repeatable"],
                        c["validation"]["unexpected"] == 0 and c["repeatable"]]})
    for workload, w in workloads.items():
        if len(w["runs"]) < 2:
            raise SystemExit(f"{workload}: one pair of runs; the quartiles "
                             "need at least two pairs")
        w["seeds"] = sorted(set(w["seeds"]))
        w["metrics"] = {}
        for metric, direction in better.items():
            pv = [r["parent"][metric] for r in w["runs"]]
            cv = [r["change"][metric] for r in w["runs"]]
            sign = 1.0 if direction == "higher" else -1.0
            pm, cm = statistics.median(pv), statistics.median(cv)
            spread = _spread(pv)
            wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
            w["metrics"][metric] = {
                "better": direction, "parent": spread,
                "change": _spread(cv),
                "ratio_of_medians": cm / pm if pm else None,
                "change_wins": wins, "pairs": len(pv),
                "claim": {"wins_nine_tenths": 10 * wins >= 9 * len(pv),
                          "beyond_parent_iqr":
                              sign * (cm - pm) > spread["iqr"]}}
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--topic", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--change-commit", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = _runs(args.parent), _runs(args.change)
    if not parent:
        raise SystemExit(f"no result files in {args.parent}")
    first = next(iter(change.values()))
    record = {
        "topic": args.topic,
        "command": " ".join(spec["command"]) + " --workload W --seed S "
                   "--seconds N --trace 0",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the "
                     "runs of each side",
        "commits": {"parent": args.parent_commit
                    or next(iter(parent.values()))["machine"]["git_commit"],
                    "change": args.change_commit
                    or first["machine"]["git_commit"]},
        "machine": {k: v for k, v in first["machine"].items()
                    if k != "git_commit"},
        "workloads": summarize(parent, change, better),
    }
    out = ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
