"""The benchmark wraps library functions by name from outside the package
(`bench/spans.py`).  Every benchmark run builds its tracer, traced or not,
so a renamed or removed target breaks every run; this pins the targets."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("spans", "speed", "worker")
    yield tuple(__import__(name) for name in names)
    for name in names:
        sys.modules.pop(name, None)


def test_tracer_targets_resolve(bench_modules):
    spans, _, worker = bench_modules
    # built the way bench/worker.py builds it; a missing name raises here
    tracer = spans.Tracer(worker.ENTRY)
    assert len(tracer._patches) == 17
    for owner, attr, original, _ in tracer._patches:
        assert callable(original), attr
    tracer.install()
    try:
        for owner, attr, _, wrapper in tracer._patches:
            assert getattr(owner, attr) is wrapper, attr
    finally:
        tracer.uninstall()
    for owner, attr, original, _ in tracer._patches:
        assert getattr(owner, attr) is original, attr
