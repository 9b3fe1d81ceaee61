"""Untimed validation of a workload's outputs; it decides what failed.

Every check goes back to the library through a route other than the one
that produced the record: records are parsed from the json-lines the CLI
wrote, claimed (v, c) pairs are re-certified with `verify.certify`, labels
are compared with `classify_signature`, and a seeded subsample of the sweep
is solved again.  The library's own thresholds are used unchanged (1e-9 in
`certify`, 1e-8 in `probe`).

A failure either belongs to one of the documented known defects (KNOWN,
see README.md) or is unexpected.  Both count in `failed`; an unexpected one
also makes the run incorrect.
"""
from __future__ import annotations

import json
import math
from collections import Counter

from prescribed_ricci import certify, classify_signature, solve

import workloads

KNOWN = {
    "so3-label-dispute": "SO3 record whose case_label classify_signature "
                         "disputes (scale-dependent tolerances, ROADMAP "
                         "item 1)",
    "family-probe-residual": "frame-change probe of an SL2 or E11 "
                             "FamilyFixedC family whose ill-conditioned "
                             "frame change pulls the oracle residual above "
                             "1e-8",
}
# generator rows of the family-probe-residual defect (the FamilyFixedC
# rows), and the condition number above which a violating frame change
# counts as ill-conditioned
FAMILY_PROBE_ROWS = ("SL2 case (v)", "SL2 case (vi)", "SL2 case (vii)",
                     "E11 (0,0,-)")
ILL_COND = 100.0

C_COUNT = {"NoSolution": 0, "Unique": 1, "TwoSolutions": 2,
           "FamilyFixedC": 1, "FamilyAnyC": 0}
RESOLVE_REL = 1e-12
PROBE_TOL = 1e-8
RESOLVE_SAMPLE = 500


class Report:
    """Failures found so far, one entry per failed check, and the case mix:
    every item counts once under a "kind ..." key and once under a
    "row ..." (generator row) or "label ..." key."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failures: list[dict] = []
        self.mix: Counter = Counter()

    def fail(self, item: int, check: str, detail: str, known=None):
        self.failures.append({"item": item, "check": check,
                              "detail": detail, "known": known})

    def summary(self) -> dict:
        failed_items = {f["item"] for f in self.failures}
        unknown = [f for f in self.failures if f["known"] is None]
        return {"attempted": self.attempted, "failed": len(failed_items),
                "unexpected": len(unknown),
                "by_check": dict(Counter(f["known"] or f["check"]
                                         for f in self.failures)),
                "known_defects": {f["known"]: KNOWN[f["known"]]
                                  for f in self.failures if f["known"]},
                "examples": (unknown or self.failures)[:5],
                "mix": {k: round(v / self.attempted, 6)
                        for k, v in sorted(self.mix.items())}}


def _finite_positive(values) -> bool:
    return all(isinstance(c, (int, float)) and not isinstance(c, bool)
               and math.isfinite(c) and c > 0 for c in values)


def _check_c(report, i, kind, cs):
    if len(cs) != C_COUNT.get(kind, -1) or not _finite_positive(cs):
        report.fail(i, "c-values", f"kind {kind} with c = {cs}")


def _check_label(report, i, group, T, label, known=None):
    """`known` names the defect a disagreement belongs to, if any."""
    expected = classify_signature(group, T)
    if expected != label:
        report.fail(i, "label", f"{group} T={T}: record says {label!r}, "
                    f"classify_signature says {expected!r}", known)


def read_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def sweep(records, argv, seed, sample=RESOLVE_SAMPLE) -> Report:
    points = workloads.sweep_points(argv)
    report = Report(len(points))
    if len(records) != len(points) + 1 or \
            records[-1].get("command") != "sweep-summary":
        raise ValueError(f"sweep wrote {len(records)} records for "
                         f"{len(points)} points plus a summary")
    for i, (rec, T) in enumerate(zip(records, points)):
        if rec.get("command") != "sweep-point" or tuple(rec["T"]) != T:
            raise ValueError(f"sweep record {i} is not point {T}: {rec}")
        report.mix[f"kind {rec['kind']}"] += 1
        report.mix[f"label {rec['case_label']}"] += 1
        _check_c(report, i, rec["kind"], rec.get("c", []))
        _check_label(report, i, "so3", T, rec["case_label"])
    for i in workloads.subsample(seed, len(points), sample):
        rec, T = records[i], points[i]
        out = solve("so3", T)
        cs = rec.get("c", [])
        lib = list(out.c_values())
        if (out.kind, out.case_label) != (rec["kind"], rec["case_label"]) or \
                len(lib) != len(cs) or \
                any(abs(a - b) > RESOLVE_REL * abs(b) for a, b in zip(cs, lib)):
            report.fail(i, "resolve", f"T={T}: record {rec['kind']} c={cs}, "
                        f"library {out.kind} c={lib}")
        for sol in out.solutions:
            if not certify("so3", sol.metric.v, sol.c, T).passed:
                report.fail(i, "certify", f"T={T}: re-solved c={sol.c}")
    return report


def batch(records, jobs) -> Report:
    report = Report(len(jobs))
    if len(records) != len(jobs):
        raise ValueError(f"batch wrote {len(records)} records for "
                         f"{len(jobs)} jobs")
    for i, (rec, job) in enumerate(zip(records, jobs)):
        if (rec.get("command"), rec.get("group"), rec.get("T")) != \
                (job["command"], job["group"], job["T"]):
            raise ValueError(f"batch record {i} does not answer job {job}")
        group, T = job["group"], tuple(job["T"])
        report.mix[f"row {job['row']}"] += 1
        # the scale-dependent SO3 labels are known here, at scales in
        # 1e+-6; on the sweep's unit-scale grid any dispute is unexpected
        known = "so3-label-dispute" if group == "so3" else None
        if rec["command"] == "classify":
            report.mix["kind classify"] += 1
            _check_label(report, i, group, T, rec["case_label"], known)
            continue
        report.mix[f"kind {rec['kind']}"] += 1
        claims = [(s["v"], s["c"]) for s in rec["solutions"]]
        cs = [c for _, c in claims]
        if rec["family"] is not None:
            fam = rec["family"]
            claims.append((fam["sample"]["v"], fam["sample"]["c"]))
            if fam["c_fixed"] is not None:
                cs.append(fam["c_fixed"])
        _check_c(report, i, rec["kind"], cs)
        for v, c in claims:
            cert = certify(group, v, c, T)
            if not cert.passed:
                report.fail(i, "certify", f"{group} T={T}: v={v} c={c} "
                            f"residuals {cert.residual_closed_form:.3g}, "
                            f"{cert.residual_oracle:.3g}")
        _check_label(report, i, group, T, rec["case_label"], known)
    return report


def probes(reports, items) -> Report:
    report = Report(len(items))
    if len(reports) != len(items):
        raise ValueError(f"{len(reports)} probe reports for {len(items)} "
                         f"items")
    for i, (rep, item) in enumerate(zip(reports, items)):
        report.mix[f"row {item['row']}"] += 1
        if "error" in rep:
            report.fail(i, "exception", f"{item['row']}: {rep['error']}")
            continue
        report.mix[f"kind {rep['kind']}"] += 1
        c_ok = rep["c_spread"] <= PROBE_TOL
        if not c_ok:
            report.fail(i, "c-spread", f"{item['row']}: c_spread "
                        f"{rep['c_spread']:.3g}")
        if rep["violations"]:
            # with c matching, a family violation can only be the
            # pulled-back oracle residual
            known = ("family-probe-residual"
                     if c_ok and rep["kind"] == "FamilyFixedC"
                     and item["row"] in FAMILY_PROBE_ROWS
                     and rep["violation_cond"] >= ILL_COND else None)
            report.fail(i, "violation", f"{item['row']}: "
                        f"{rep['violations']} violating frames, best "
                        f"conditioned {rep['violation_cond']:.3g}", known)
    return report
