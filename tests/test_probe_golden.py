"""Byte-for-byte probe reports.

`tests/golden/probe-reports.json` holds, for a fixed list of (group, T, rng)
inputs, every field of the `ProbeReport` that `probe(group, T, n=16, rng)`
returns: the counts and flags as they are, `c_spread` as `float.hex`, and
each violating frame change as the sha256 of its bytes.  The inputs cover
every solvable case row at scales 1, 1e-12 and 1e100, plus SL2 case (v) and
E11 (0,0,-) draws whose ill-conditioned frames violate `PROBE_TOL` (the
known defect of the float64 Koszul oracle), so a change to the sampler,
the re-solves or the oracle that moves a single bit shows here.

Re-record (only when a change is meant to move these bytes, and say why):

    PYTHONPATH=src python tests/test_probe_golden.py
"""
import hashlib
import json
from pathlib import Path

import pytest

from prescribed_ricci import probe

GOLDEN = Path(__file__).parent / "golden" / "probe-reports.json"

# one tensor per solvable case row of every group (SO3 also isotropic and
# with an equal pair), at unit scale
ROWS = [
    ("so3", (3.0, 2.0, 1.0)), ("so3", (1.0, 1.0, 1.0)),
    ("so3", (3.0, 1.0, 1.0)), ("so3", (2.0, 0.0, 0.0)),
    ("so3", (10.0, -1.0, -1.0)),
    ("sl2", (3.0, -1.0, -1.0)), ("sl2", (-1.0, 3.0, -1.0)),
    ("sl2", (-1.0, -2.0, 3.0)), ("sl2", (-3.0, -2.0, 1.0)),
    ("sl2", (-1.0, -1.0, 1.0)), ("sl2", (-2.0, 0.0, 0.0)),
    ("sl2", (0.0, -2.0, 0.0)),
    ("e2", (0.0, 0.0, 0.0)), ("e2", (2.0, -1.0, -1.0)),
    ("e2", (-1.0, 2.0, -1.0)),
    ("e11", (0.0, 0.0, -2.0)), ("e11", (2.0, -1.0, -1.0)),
    ("e11", (-1.0, 2.0, -1.0)),
    ("h3", (1.0, -1.0, -2.0)),
    ("r3", (0.0, 0.0, 0.0)),
]
SCALES = (1.0, 1e-12, 1e100)
# (group, T, rng) draws with violations: frame changes of condition
# number 260 to 2,300 on the two families of the known defect
VIOLATING = [
    ("sl2", (-1.0, -1.0, 1.0), 6), ("sl2", (-1.0, -1.0, 1.0), 26),
    ("sl2", (-2.5, -2.5, 2.5), 65), ("e11", (0.0, 0.0, -2.0), 31),
    ("e11", (0.0, 0.0, -0.7), 54), ("e11", (0.0, 0.0, -0.7), 105),
]
SAMPLES = 16


def inputs():
    cases = [(g, [s * t for t in T], 7) for s in SCALES for g, T in ROWS]
    cases += [(g, [s * t for t in T], r)
              for s in SCALES for g, T, r in VIOLATING]
    return cases


def report_record(group, T, rng) -> dict:
    rep = probe(group, tuple(T), n=SAMPLES, rng=rng)
    return {"group": group, "T": T, "rng": rng,
            "samples": rep.samples, "base_kind": rep.base_kind,
            "c_spread": float(rep.c_spread).hex(),
            "metric_match": rep.metric_match,
            "c_unconstrained": rep.c_unconstrained,
            "violations": [hashlib.sha256(M.tobytes()).hexdigest()
                           for M in rep.violations]}


def test_golden_covers_the_violating_rows():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(records) == len(inputs())
    assert sum(bool(r["violations"]) for r in records) >= len(VIOLATING)


@pytest.mark.parametrize("case", range(len(inputs())))
def test_probe_report_bytes(case):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    group, T, rng = inputs()[case]
    assert (expected["group"], expected["T"], expected["rng"]) == (group, T, rng)
    assert report_record(group, T, rng) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([report_record(*c) for c in inputs()],
                                 indent=1) + "\n", encoding="utf-8")
