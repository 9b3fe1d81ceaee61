"""Command-line front end.

Subcommands: solve, certify, classify, sweep, oracle-ricci, plus batch for a
jobs file with one JSON job per line.  Output is either human-readable text
records or json-lines; numbers are printed with 17 significant digits so that
records round-trip exactly.  Exit codes: 0 success (NoSolution is a normal
answer), 2 malformed input, 3 certification failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .curvature import ricci_diagonal, ricci_koszul
from .diagonalize import symmetric_from_upper
from .groups import group_from_name, structure_constants
from .solver import classify_signature, solve, solve_many
from .verify import certify

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CERT_FAILURE = 3


class InputError(Exception):
    """Malformed input; the message names the offending field."""


# ---------------------------------------------------------------------------
# Serialization: deterministic records with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(value) -> str:
    # exact float and str first: they are nearly all a record holds
    kind = type(value)
    if kind is float:
        # JSON has no nan or inf
        return _fmt(value) if math.isfinite(value) else "null"
    if kind is str:
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join([f"{json.dumps(k)}:{_to_json(v)}"
                          for k, v in value.items()])
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_to_json(v) for v in value]) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _to_json(float(value))
    if value is None:
        return "null"
    return json.dumps(value)


def _flatten(record: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            if value and isinstance(value[0], dict):
                for i, item in enumerate(value):
                    lines.extend(_flatten(item, prefix=f"{name}[{i}]."))
            else:
                joined = ",".join(_fmt(v) if isinstance(v, (float, np.floating))
                                  else str(v) for v in value)
                lines.append(f"{name}: {joined}")
        elif isinstance(value, (bool, np.bool_)):
            lines.append(f"{name}: {'true' if value else 'false'}")
        elif isinstance(value, (float, np.floating)):
            lines.append(f"{name}: {_fmt(value)}")
        elif value is None:
            lines.append(f"{name}: none")
        else:
            lines.append(f"{name}: {value}")
    return lines


class Reporter:
    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path
        self.lines: list[str] = []

    def emit(self, record: dict):
        if self.fmt == "json-lines":
            self.lines.append(_to_json(record))
        else:
            self.lines.extend(_flatten(record))
            self.lines.append("")

    def flush(self):
        """Write the lines joined by newlines and ended by one, a line at a
        time, so the output is never copied whole."""
        if self.out_path:
            with open(self.out_path, "w", encoding="utf-8") as fh:
                self._write(fh)
        else:
            self._write(sys.stdout)

    def _write(self, fh):
        last = len(self.lines) - 1
        for i, line in enumerate(self.lines):
            fh.write(line)
            if i < last or (line and not line.endswith("\n")):
                fh.write("\n")


# ---------------------------------------------------------------------------
# Field parsing
# ---------------------------------------------------------------------------

def _parse_number(value, fieldname: str) -> float:
    """One finite number from command-line text or a JSON value."""
    if value is None:
        raise InputError(f"field {fieldname!r}: missing")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"field {fieldname!r}: non-numeric entry {value!r}")
    if not math.isfinite(x):
        raise InputError(f"field {fieldname!r}: non-finite entry {value!r}")
    return x


def _parse_numbers(value, fieldname: str, count: int = 3) -> tuple:
    """`count` finite numbers from a JSON list."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise InputError(f"field {fieldname!r}: expected a list of {count} "
                         f"numbers, got {value!r}")
    return tuple(_parse_number(p, fieldname) for p in value)


def _flag_numbers(text: str, fieldname: str, count: int = 3) -> tuple:
    """`count` finite numbers from comma-separated command-line text."""
    parts = [p for p in text.replace(" ", "").split(",") if p]
    if len(parts) != count:
        raise InputError(f"field {fieldname!r}: expected {count} "
                         f"comma-separated numbers, got {text!r}")
    return _parse_numbers(parts, fieldname, count)


def _parse_range(text: str, fieldname: str) -> tuple[float, float]:
    if ".." not in str(text):
        raise InputError(f"field {fieldname!r}: expected lo..hi, got {text!r}")
    lo, hi = (_parse_number(b, fieldname) for b in str(text).split("..", 1))
    if not lo < hi:
        raise InputError(f"field {fieldname!r}: need lo < hi, got {text!r}")
    return lo, hi


def _group_or_fail(name: str):
    try:
        return group_from_name(name)
    except ValueError as exc:
        raise InputError(f"field 'group': {exc}")


def _resolve_group(args):
    name = getattr(args, "group_flag", None) or args.group
    if name is None:
        raise InputError("field 'group': give the group positionally or via "
                         "--group (so3, sl2, e2, e11, h3, r3)")
    return _group_or_fail(name)


def _json_lines(path: str, fieldname: str):
    """(line number, object) for each job line of a json-lines file; blank
    lines and lines starting with # are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"field {fieldname!r}: cannot read {path!r}: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"field {fieldname!r}: line {lineno} is not "
                             f"valid JSON: {exc}")
        if not isinstance(obj, dict):
            raise InputError(f"field {fieldname!r}: line {lineno} is not a "
                             f"JSON object")
        yield lineno, obj


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------

def _solution_record(group, T, sol) -> dict:
    cert = certify(group, sol.metric.v, sol.c, T)
    return {"v": list(sol.metric.v), "c": sol.c,
            "residual": max(cert.residual_closed_form, cert.residual_oracle),
            "pass": cert.passed}


def _solve_record(group, T) -> dict:
    outcome = solve(group, T)
    record = {"command": "solve", "group": group.name.lower(), "T": list(T),
              "kind": outcome.kind, "case_label": outcome.case_label}
    record["solutions"] = [_solution_record(group, T, s) for s in outcome.solutions]
    if outcome.family is not None:
        fam = outcome.family
        record["family"] = {
            "constraint": fam.constraint if fam.constraint else "none",
            "c_fixed": fam.c,
            "sample": _solution_record(group, T, fam.sample),
        }
    else:
        record["family"] = None
    record["traces"] = [{"p": t.p, "q": t.q, "multiplicity": t.multiplicity}
                        for t in outcome.traces]
    if outcome.notes:
        record["notes"] = list(outcome.notes)
    return record


def _classify_record(group, T) -> dict:
    return {"command": "classify", "group": group.name.lower(), "T": list(T),
            "case_label": classify_signature(group, T)}


def _certify_record(group, T, v, c) -> dict:
    try:
        cert = certify(group, v, c, T)
    except ValueError as exc:
        raise InputError(f"field 'v': {exc}")
    return {"command": "certify", "group": group.name.lower(),
            "T": list(T), "v": list(v), "c": c,
            "residual_closed_form": cert.residual_closed_form,
            "residual_oracle": cert.residual_oracle,
            "normalized": cert.normalized, "pass": cert.passed}


def _passed(record: dict) -> bool:
    """Whether every certificate in a solve, classify or certify record
    passed."""
    checks = [record] + record.get("solutions", [])
    if record.get("family") is not None:
        checks.append(record["family"]["sample"])
    return all(r.get("pass", True) for r in checks)


def _job_T(job) -> tuple:
    return _parse_numbers(job.get("T"), "T")


# the jobs a batch file may hold, each built from its JSON fields
_BATCH_JOBS = {
    "solve": lambda group, job: _solve_record(group, _job_T(job)),
    "classify": lambda group, job: _classify_record(group, _job_T(job)),
    "certify": lambda group, job: _certify_record(
        group, _job_T(job), _parse_numbers(job.get("v"), "v"),
        _parse_number(job.get("c"), "c")),
}


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _run_solve(args, reporter) -> int:
    record = _solve_record(_resolve_group(args), _flag_numbers(args.T, "T"))
    reporter.emit(record)
    return EXIT_OK if _passed(record) else EXIT_CERT_FAILURE


def _run_certify(args, reporter) -> int:
    if args.from_file:
        return _certify_from_file(args, reporter)
    if args.T is None or args.v is None or args.c is None:
        raise InputError("field 'v'/'c'/'T': certify needs --T, --v and --c "
                         "(or --from FILE)")
    record = _certify_record(_resolve_group(args), _flag_numbers(args.T, "T"),
                             _flag_numbers(args.v, "v"),
                             _parse_number(args.c, "c"))
    reporter.emit(record)
    return EXIT_OK if record["pass"] else EXIT_CERT_FAILURE


def _certify_from_file(args, reporter) -> int:
    ok = True
    checked = 0
    for lineno, record in _json_lines(args.from_file, "from"):
        if record.get("command") != "solve":
            continue
        try:
            group = _group_or_fail(record.get("group", ""))
            T = _parse_numbers(record.get("T"), "T")
            claims = record.get("solutions", [])
            if not (isinstance(claims, list)
                    and all(isinstance(s, dict) for s in claims)):
                raise InputError("field 'solutions': expected a list of "
                                 "objects")
            family = record.get("family")
            if family is not None:
                if not (isinstance(family, dict)
                        and isinstance(family.get("sample"), dict)):
                    raise InputError("field 'family': expected null or an "
                                     "object with a 'sample' object")
                claims = claims + [family["sample"]]
            certs = [_certify_record(group, T,
                                     _parse_numbers(s.get("v"), "v"),
                                     _parse_number(s.get("c"), "c"))
                     for s in claims]
        except InputError as exc:
            raise InputError(f"{exc} on line {lineno}") from None
        for cert in certs:
            checked += 1
            ok = ok and cert["pass"]
            reporter.emit(cert)
    reporter.emit({"command": "certify-summary", "checked": checked,
                   "all_passed": ok})
    return EXIT_OK if ok else EXIT_CERT_FAILURE


def _run_classify(args, reporter) -> int:
    reporter.emit(_classify_record(_resolve_group(args),
                                   _flag_numbers(args.T, "T")))
    return EXIT_OK


def _grid_axis(fixed, rng_text, steps, name):
    if fixed is not None and rng_text is not None:
        raise InputError(f"field {name!r}: give either a fixed value or a range")
    if fixed is not None:
        return [_parse_number(fixed, name)]
    if rng_text is not None:
        lo, hi = _parse_range(rng_text, name)
        # half-open grid [lo, hi): lo + k*(hi-lo)/steps, k = 0..steps-1
        return [lo + k * (hi - lo) / steps for k in range(steps)]
    raise InputError(f"field {name!r}: sweep needs --{name} or --{name}-range")


def _run_sweep(args, reporter) -> int:
    group = _resolve_group(args)
    steps = args.steps
    if steps < 1:
        raise InputError("field 'steps': must be a positive integer")
    axes = [
        _grid_axis(args.T1, args.T1_range, steps, "T1"),
        _grid_axis(args.T2, args.T2_range, steps, "T2"),
        _grid_axis(args.T3, args.T3_range, steps, "T3"),
    ]
    counts: dict[str, int] = {}
    kind_counts: dict[str, int] = {}
    # the grid is walked twice, lazily: once for the records, once by the
    # solver, which takes it in chunks
    for T, outcome in zip(itertools.product(*axes),
                          solve_many(group, itertools.product(*axes))):
        label = outcome.case_label
        counts[label] = counts.get(label, 0) + 1
        kind_counts[outcome.kind] = kind_counts.get(outcome.kind, 0) + 1
        record = {"command": "sweep-point", "T": list(T),
                  "kind": outcome.kind, "case_label": label}
        c = outcome.c_values()
        if c:
            record["c"] = list(c)
        reporter.emit(record)
    reporter.emit({"command": "sweep-summary", "group": group.name.lower(),
                   "points": len(axes[0]) * len(axes[1]) * len(axes[2]),
                   "by_case": dict(sorted(counts.items())),
                   "by_kind": dict(sorted(kind_counts.items()))})
    return EXIT_OK


def _run_oracle_ricci(args, reporter) -> int:
    group = _resolve_group(args)
    if (args.v is None) == (args.g is None):
        raise InputError("field 'v'/'g': oracle-ricci needs exactly one of "
                         "--v v1,v2,v3 or --g six upper-triangle entries")
    record = {"command": "oracle-ricci", "group": group.name.lower()}
    if args.v is not None:
        v = _flag_numbers(args.v, "v")
        if min(v) <= 0:
            raise InputError("field 'v': metric components must be positive")
        record["v"] = list(v)
        record["ricci_closed_form"] = ricci_diagonal(group, v).tolist()
        gram = np.diag(v)
    else:
        record["g"] = list(_flag_numbers(args.g, "g", 6))
        gram = symmetric_from_upper(record["g"])
    try:
        record["ricci_koszul"] = ricci_koszul(structure_constants(group),
                                              gram).tolist()
    except ValueError as exc:
        raise InputError(f"field 'g': {exc}")
    reporter.emit(record)
    return EXIT_OK


def _run_batch(args, reporter) -> int:
    status = EXIT_OK
    for lineno, job in _json_lines(args.jobs, "jobs"):
        command = job.get("command")
        build = _BATCH_JOBS.get(command) if isinstance(command, str) else None
        if build is None:
            raise InputError(f"field 'command': line {lineno}: unknown "
                             f"command {job.get('command')!r}; expected one "
                             f"of {tuple(_BATCH_JOBS)}")
        try:
            record = build(_group_or_fail(job.get("group", "")), job)
        except InputError as exc:
            raise InputError(f"{exc} on line {lineno}") from None
        reporter.emit(record)
        if not _passed(record):
            status = EXIT_CERT_FAILURE
    return status


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prescribed-ricci",
        description="Solve, certify and classify the prescribed Ricci "
                    "curvature problem on 3D unimodular Lie groups.")
    parser.add_argument("--format", choices=("text", "json-lines"),
                        default="text", help="output record format")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write records to PATH instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_group(name, help):
        """A subcommand taking its group positionally or via --group."""
        p = sub.add_parser(name, help=help)
        p.add_argument("group", nargs="?", default=None)
        p.add_argument("--group", dest="group_flag", default=None)
        return p

    p = with_group("solve", "solve Ric(g) = c T for one tensor")
    p.add_argument("--T", required=True, help="T1,T2,T3")

    p = with_group("certify", "certify a claimed (v, c) or a solve record file")
    p.add_argument("--T", default=None, help="T1,T2,T3")
    p.add_argument("--v", default=None, help="v1,v2,v3")
    p.add_argument("--c", default=None, type=float)
    p.add_argument("--from", dest="from_file", default=None, metavar="FILE",
                   help="json-lines solve output to re-check")

    p = with_group("classify", "name the matched existence-condition row")
    p.add_argument("--T", required=True, help="T1,T2,T3")

    p = with_group("sweep", "classify a grid of tensors")
    for axis in ("T1", "T2", "T3"):
        p.add_argument(f"--{axis}", default=None)
        p.add_argument(f"--{axis}-range", dest=f"{axis}_range", default=None,
                       metavar="LO..HI")
    p.add_argument("--steps", type=int, default=10,
                   help="points per ranged axis; ranges are half-open [lo, hi)")

    p = with_group("oracle-ricci", "Ricci tensor of a given metric")
    p.add_argument("--v", default=None, help="diagonal metric v1,v2,v3")
    p.add_argument("--g", default=None,
                   help="full symmetric metric, 6 upper-triangle entries "
                        "g11,g12,g13,g22,g23,g33")

    p = sub.add_parser("batch", help="run jobs from a file, one JSON job per line")
    p.add_argument("jobs", metavar="FILE")

    return parser


_RUNNERS = {
    "solve": _run_solve,
    "certify": _run_certify,
    "classify": _run_classify,
    "sweep": _run_sweep,
    "oracle-ricci": _run_oracle_ricci,
    "batch": _run_batch,
}


_VALUE_FLAGS = {"--T", "--v", "--g", "--c", "--group", "--T1", "--T2", "--T3",
                "--T1-range", "--T2-range", "--T3-range", "--steps",
                "--out", "--format", "--from"}


def _fuse_values(argv: list[str]) -> list[str]:
    """Join value flags with their argument so values like -3,-2,1 survive
    argparse's leading-dash heuristics."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_values(list(argv)))
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_BAD_INPUT if exc.code not in (0,) else 0
    reporter = Reporter(args.format, args.out)
    try:
        status = _RUNNERS[args.command](args, reporter)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    reporter.flush()
    return status


if __name__ == "__main__":
    raise SystemExit(main())
