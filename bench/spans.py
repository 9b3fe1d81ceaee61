"""Span tracing installed from outside the library.

Each traced public function is replaced, in the namespace its caller looks
it up in, by a wrapper that records a span: (name, start, end, parent span,
item id, tag).  Nothing under src/ knows about this.  Spans stay in memory
and are written out once, at the end of the run; per-layer metrics are
computed from them afterwards.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

from prescribed_ricci import cli, solver, verify

import speed

# the package re-exports the function `probe` under the module's name
probe = importlib.import_module("prescribed_ricci.probe")

_clock = time.perf_counter


def _kind(outcome):
    return outcome.kind


def _cubic_tag(report):
    return (len(report.roots), sum(1 for m in report.multiplicities if m > 1))


def _certify_tag(cert):
    return (cert.passed, max(cert.residual_closed_form, cert.residual_oracle))


def _probe_tag(report):
    return len(report.violations)


class Tracer:
    """Records spans from the wrappers it installs; `item` is the id of the
    workload item in progress (set by the workload, or advanced by emits)."""

    def __init__(self, entry):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.item = 0
        targets = [
            (solver, "roots_in_interval", "cubic", _cubic_tag),
            (solver, "reconstruct_from_p", "solver.reconstruct", None),
            (cli, "solve", "solver.solve", _kind),
            (probe, "solve", "solver.solve", _kind),
            (cli, "classify_signature", "solver.classify", None),
            (cli, "certify", "verify.certify", _certify_tag),
            (verify, "residual", "verify.closed_form", None),
            (verify, "oracle_residual", "verify.oracle", None),
            (probe, "oracle_residual", "probe.oracle", None),
            (verify, "ricci_koszul", "curvature.koszul", None),
            (cli.Reporter, "emit", "cli.emit", None),
            (cli.Reporter, "flush", "cli.flush", None),
            (probe, "sample_diagonal_preserving_changes", "probe.sample", None),
            (probe, "check_milnor_frame", "groups.check_milnor_frame", None),
            (entry, "main", "cli.main", None),
            (entry, "probe", "probe", _probe_tag),
            (entry, "diagonalize_so3", "diagonalize", None),
        ]
        self._patches = []
        for owner, attr, name, tag in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original,
                                  self._wrap(original, name, tag)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name, tag_of):
        spans, stack = self.spans, self.stack
        advances_item = name == "cli.emit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            item = self.item
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, t0, _clock(), parent, item,
                              type(exc).__name__)
                raise
            finally:
                stack.pop()
            t1 = _clock()
            spans[idx] = (name, t0, t1, parent, item,
                          tag_of(result) if tag_of else None)
            if advances_item:
                self.item += 1
            return result

        return wrapper

    def write(self, path, origin: float) -> None:
        """One JSON list per span: name, start and end in microseconds from
        `origin`, parent span index (-1 for none), item id, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, item, tag in self.spans:
                fh.write(json.dumps([name, round((t0 - origin) * 1e6, 3),
                                     round((t1 - origin) * 1e6, 3),
                                     parent, item, tag]) + "\n")


KINDS = ("NoSolution", "Unique", "TwoSolutions", "FamilyFixedC", "FamilyAnyC")

# name -> unit for every per-layer metric `layer_metrics` reports
LAYER_METRICS = {
    "cubic.calls": "count", "cubic.ms": "ms", "cubic.us_per_call": "us",
    "cubic.roots_per_call": "count", "cubic.multiple_roots": "count",
    "cubic.time_share": "ratio",
    "solver.solve.calls": "count", "solver.solve.ms": "ms",
    "solver.solve.self_ms": "ms",
    **{f"solver.solve.us_per_call.{k}": "us" for k in KINDS},
    "solver.reconstruct.calls": "count", "solver.reconstruct.ms": "ms",
    "solver.reconstruct.rejected": "count",
    "solver.classify.calls": "count", "solver.classify.ms": "ms",
    "verify.certify.calls": "count", "verify.certify.ms": "ms",
    "verify.closed_form.ms": "ms", "verify.oracle.ms": "ms",
    "verify.failed": "count", "verify.max_residual": "ratio",
    "curvature.koszul.calls": "count", "curvature.koszul.ms": "ms",
    "cli.main.ms": "ms", "cli.self_ms": "ms", "cli.emit.calls": "count",
    "cli.emit.ms": "ms", "cli.flush.ms": "ms", "cli.bytes_out": "bytes",
    "probe.calls": "count", "probe.ms": "ms", "probe.self_ms": "ms",
    "probe.sample.ms": "ms", "probe.resolve.calls": "count",
    "probe.resolve.ms": "ms", "probe.oracle.ms": "ms",
    "probe.violations": "count",
    "groups.check_milnor_frame.calls": "count",
    "groups.check_milnor_frame.ms": "ms",
    "diagonalize.calls": "count", "diagonalize.ms": "ms",
    "trace.pass_ms": "ms", "trace.overhead_share": "ratio",
    "trace.speed_factor": "ratio",
}


def layer_metrics(spans, traced, untraced, refs, bytes_out: int) -> dict:
    """Per-layer metrics for one pass over the workload's items: counts and
    times are totals over the traced passes divided by their number.  A
    layer's self time is its duration minus that of its direct child spans
    (one thread, so children never overlap).  `traced` and `untraced` hold
    (wall, nominal-speed) seconds per pass, `refs` the reference kernel
    times of the run; times stay wall times, and trace.speed_factor says
    how fast the machine ran meanwhile (1 = nominal)."""
    passes = len(traced)
    dur = [t1 - t0 for _, t0, t1, _, _, _ in spans]
    child_s = [0.0] * len(spans)
    probe_children = {}
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_s[parent] += dur[i]
            if name == "solver.solve" and spans[parent][0] == "probe":
                probe_children.setdefault(parent, []).append(i)

    calls, total, self_t = {}, {}, {}
    for i, (name, *_rest) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child_s[i]

    def n(name):
        return calls.get(name, 0) / passes

    def ms(name):
        return total.get(name, 0.0) * 1e3 / passes

    def per_call_us(name):
        return total[name] * 1e6 / calls[name] if calls.get(name) else 0.0

    def tags(name):
        return [s[5] for s in spans if s[0] == name]

    cubic = [t for t in tags("cubic") if isinstance(t, tuple)]
    certs = [t for t in tags("verify.certify") if isinstance(t, tuple)]
    by_kind = {k: [] for k in KINDS}
    for i, s in enumerate(spans):
        if s[0] == "solver.solve" and s[5] in by_kind:
            by_kind[s[5]].append(dur[i])
    # the first solve under each probe span is the base solve; the rest
    # are the re-solves in transformed frames
    resolves = [i for kids in probe_children.values() for i in kids[1:]]
    pass_ms = statistics.median(wall for wall, _ in traced) * 1e3
    return {
        "cubic.calls": n("cubic"), "cubic.ms": ms("cubic"),
        "cubic.us_per_call": per_call_us("cubic"),
        "cubic.roots_per_call": (sum(r for r, _ in cubic) / len(cubic)
                                 if cubic else 0.0),
        "cubic.multiple_roots": sum(m for _, m in cubic) / passes,
        "cubic.time_share": ms("cubic") / pass_ms,
        "solver.solve.calls": n("solver.solve"),
        "solver.solve.ms": ms("solver.solve"),
        "solver.solve.self_ms": self_t.get("solver.solve", 0.0) * 1e3 / passes,
        **{f"solver.solve.us_per_call.{k}":
           (sum(v) * 1e6 / len(v) if v else 0.0) for k, v in by_kind.items()},
        "solver.reconstruct.calls": n("solver.reconstruct"),
        "solver.reconstruct.ms": ms("solver.reconstruct"),
        "solver.reconstruct.rejected":
            tags("solver.reconstruct").count("ValueError") / passes,
        "solver.classify.calls": n("solver.classify"),
        "solver.classify.ms": ms("solver.classify"),
        "verify.certify.calls": n("verify.certify"),
        "verify.certify.ms": ms("verify.certify"),
        "verify.closed_form.ms": ms("verify.closed_form"),
        "verify.oracle.ms": ms("verify.oracle"),
        "verify.failed": sum(1 for ok, _ in certs if not ok) / passes,
        "verify.max_residual": max((r for _, r in certs), default=0.0),
        "curvature.koszul.calls": n("curvature.koszul"),
        "curvature.koszul.ms": ms("curvature.koszul"),
        "cli.main.ms": ms("cli.main"),
        "cli.self_ms": self_t.get("cli.main", 0.0) * 1e3 / passes,
        "cli.emit.calls": n("cli.emit"), "cli.emit.ms": ms("cli.emit"),
        "cli.flush.ms": ms("cli.flush"), "cli.bytes_out": float(bytes_out),
        "probe.calls": n("probe"), "probe.ms": ms("probe"),
        "probe.self_ms": self_t.get("probe", 0.0) * 1e3 / passes,
        "probe.sample.ms": ms("probe.sample"),
        "probe.resolve.calls": len(resolves) / passes,
        "probe.resolve.ms": sum(dur[i] for i in resolves) * 1e3 / passes,
        "probe.oracle.ms": ms("probe.oracle"),
        "probe.violations": sum(t for t in tags("probe")
                                if isinstance(t, int)) / passes,
        "groups.check_milnor_frame.calls": n("groups.check_milnor_frame"),
        "groups.check_milnor_frame.ms": ms("groups.check_milnor_frame"),
        "diagonalize.calls": n("diagonalize"),
        "diagonalize.ms": ms("diagonalize"),
        "trace.pass_ms": pass_ms,
        "trace.overhead_share": (
            statistics.median(nominal for _, nominal in traced)
            / statistics.median(nominal for _, nominal in untraced) - 1.0),
        "trace.speed_factor": speed.NOMINAL_S / statistics.median(refs),
    }
