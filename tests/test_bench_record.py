"""`scripts/bench_record.py` turns paired benchmark results into a record;
`summarize` is its arithmetic, checked here on synthetic results (nothing
is written to disk)."""
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BETTER = {"items_per_s": "higher", "setup_s": "lower"}


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield __import__("bench_record")
    sys.modules.pop("bench_record", None)


def result(workload, seed, items_per_s, setup_s):
    """The fields of a `bench/run.py` result file that `summarize` reads."""
    return {"workload": workload, "seed": seed, "seconds": 30,
            "metrics": {"items_per_s": {"value": items_per_s},
                        "setup_s": {"value": setup_s}},
            "validation": {"unexpected": 0}, "repeatable": True}


def runs(workload, values):
    return {f"result-{workload}-{seed}.json": result(workload, seed, *v)
            for seed, v in enumerate(values, start=1)}


def test_medians_wins_and_ratio(bench_record):
    parent = runs("sweep-so3", [(100.0, 1.0), (110.0, 1.2), (90.0, 0.8)])
    change = runs("sweep-so3", [(120.0, 0.9), (100.0, 1.3), (150.0, 0.7)])
    (name, w), = bench_record.summarize(parent, change, BETTER).items()
    assert name == "sweep-so3"
    assert w["seeds"] == [1, 2, 3] and len(w["runs"]) == 3
    items = w["metrics"]["items_per_s"]
    assert items["parent"]["median"] == 100.0
    assert items["change"]["median"] == 120.0
    assert items["ratio_of_medians"] == pytest.approx(1.2)
    assert items["change_wins"] == 2 and items["pairs"] == 3
    # lower is better for setup_s: the change won the first and last pair
    setup = w["metrics"]["setup_s"]
    assert setup["change"]["median"] == 0.9
    assert setup["change_wins"] == 2


def test_unpaired_files_exit(bench_record):
    parent = runs("sweep-so3", [(100.0, 1.0), (110.0, 1.2), (90.0, 0.8)])
    change = runs("sweep-so3", [(120.0, 0.9), (100.0, 1.3)])
    with pytest.raises(SystemExit, match="unpaired result files"):
        bench_record.summarize(parent, change, BETTER)


def test_mismatched_workloads_exit(bench_record):
    parent = runs("sweep-so3", [(100.0, 1.0), (110.0, 1.2)])
    change = {name: dict(r, workload="batch-mixed")
              for name, r in runs("sweep-so3", [(120.0, 0.9),
                                                (100.0, 1.3)]).items()}
    with pytest.raises(SystemExit, match="different workloads"):
        bench_record.summarize(parent, change, BETTER)


def test_single_pair_exits_naming_the_workload(bench_record):
    parent = {**runs("sweep-so3", [(100.0, 1.0), (110.0, 1.2)]),
              **runs("batch-mixed", [(50.0, 2.0)])}
    change = {**runs("sweep-so3", [(120.0, 0.9), (100.0, 1.3)]),
              **runs("batch-mixed", [(60.0, 1.8)])}
    with pytest.raises(SystemExit, match="batch-mixed: one pair of runs"):
        bench_record.summarize(parent, change, BETTER)


def test_claim_needs_nine_tenths_of_the_pairs(bench_record):
    # ten pairs: the change wins nine and ties one on items_per_s, and
    # wins eight and ties two on setup_s; ties count for neither side
    p = [(100.0 + k, 1.0) for k in range(10)]
    c = [(200.0, 0.5)] * 9 + [(109.0, 1.0)]
    c[0] = (c[0][0], 1.0)
    (w,) = bench_record.summarize(runs("batch-mixed", p),
                                  runs("batch-mixed", c), BETTER).values()
    items, setup = w["metrics"]["items_per_s"], w["metrics"]["setup_s"]
    assert (items["change_wins"], setup["change_wins"]) == (9, 8)
    assert items["claim"]["wins_nine_tenths"]
    assert not setup["claim"]["wins_nine_tenths"]


def test_claim_needs_a_gain_beyond_the_parent_iqr(bench_record):
    # parent quartiles 102.25 and 106.75 (IQR 4.5): a median gain of 4
    # wins every pair but stays inside the spread, a gain of 5 does not
    p = [(100.0 + k, 1.0) for k in range(10)]
    for gain, beyond in ((4.0, False), (5.0, True)):
        c = [(v + gain, s - gain / 10) for v, s in p]
        (w,) = bench_record.summarize(runs("batch-mixed", p),
                                      runs("batch-mixed", c), BETTER).values()
        items = w["metrics"]["items_per_s"]
        assert items["parent"]["iqr"] == pytest.approx(4.5)
        assert items["change_wins"] == 10
        assert items["claim"] == {"wins_nine_tenths": True,
                                  "beyond_parent_iqr": beyond}
    # lower is better for setup_s: a rise is never a gain, however large
    c = [(v, s + 1.0) for v, s in p]
    (w,) = bench_record.summarize(runs("batch-mixed", p),
                                  runs("batch-mixed", c), BETTER).values()
    assert w["metrics"]["setup_s"]["claim"] == {"wins_nine_tenths": False,
                                                "beyond_parent_iqr": False}
