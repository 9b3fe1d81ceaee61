"""Command-line front end.

Subcommands: solve, certify, classify, sweep, oracle-ricci, plus batch for a
jobs file with one JSON job per line.  Every solve, classify and certify job
has one answer path, `_grouped_lines`, a chunk of parsed jobs at a time:
batch and certify --from in chunks of BATCH_CHUNK lines, and the one-tensor
solve, classify and certify commands as one-job chunks, whose errors lack
the ` on line N`.  Output is either human-readable text records or
json-lines; numbers are printed with 17 significant digits so that records
round-trip exactly.  Exit codes: 0 success (NoSolution is a normal answer),
2 malformed input, 3 certification failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import Counter

import numpy as np

from .curvature import DiagonalMetric, ricci_diagonal, ricci_koszul
from .diagonalize import symmetric_from_upper
from .groups import group_from_name, structure_constants
from .solver import (CHUNK, CubicSolveTrace, Family, Solution, SolveOutcome,
                     _columns, _constants, _outcomes)
from .verify import Certificate, Certificates, _check_metrics, certify_arrays
# solve, classify_signature and certify are imported only for bench/spans.py,
# which wraps them here by name; every command answers through `_columns`
from .solver import classify_signature, solve  # noqa: F401
from .verify import certify  # noqa: F401

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CERT_FAILURE = 3

# batch jobs read and answered together: the jobs of one group in a chunk
# share one `_columns` and one `certify_arrays` call, and the chunk bounds
# the memory this takes
BATCH_CHUNK = 512


class InputError(Exception):
    """Malformed input; the message names the offending field."""


# ---------------------------------------------------------------------------
# Serialization: deterministic records with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# encoded dict keys with their colon; the record builders use a fixed set
_KEYS: dict = {}


def _json_key(key) -> str:
    encoded = _KEYS[key] = json.dumps(key) + ":"
    return encoded


def _to_json(value) -> str:
    # exact float and str first: they are nearly all a record holds
    kind = type(value)
    if kind is float:
        # JSON has no nan or inf
        return _fmt(value) if math.isfinite(value) else "null"
    if kind is str:
        return json.dumps(value)
    if isinstance(value, dict):
        keys = _KEYS
        inner = ",".join([(keys.get(k) or _json_key(k)) + _to_json(v)
                          for k, v in value.items()])
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_to_json(v) for v in value]) + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # an int: records hold no other type


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
                joined = ",".join(_fmt(v) if isinstance(v, float) else str(v)
                                  for v in value)
                lines.append(f"{name}: {joined}")
        elif isinstance(value, bool):
            lines.append(f"{name}: {'true' if value else 'false'}")
        elif isinstance(value, float):
            lines.append(f"{name}: {_fmt(value)}")
        elif value is None:
            lines.append(f"{name}: none")
        else:
            lines.append(f"{name}: {value}")
    return lines


# finite floats whose `_fmt` text no record field holds, to mark the slots
# of a template: `%.17g` (which writes `_fmt`'s text) for _NUM, `%s` (numbers
# formatted beforehand) for _TEXT
_NUM, _TEXT = 1.0000000000000002e300, 2.0000000000000004e300


class Reporter:
    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path
        self.lines: list[str] = []
        # `%`-templates of record shapes, by a key naming the shape
        self.templates: dict = {}

    def render(self, record: dict) -> str:
        """A record's output: one json line, or its text lines each ended
        by a newline, the blank line between records coming from `flush`."""
        if self.fmt == "json-lines":
            return _to_json(record)
        return "".join([line + "\n" for line in _flatten(record)])

    def template(self, key, record: dict) -> str:
        """The rendered record as a `%`-template, kept under key: its _NUM
        and _TEXT numbers are its slots, in record order, any other `%` is
        escaped.  Fill it with finite numbers: JSON writes others as null."""
        tpl = self.templates[key] = self.render(record).replace(
            "%", "%%").replace(_fmt(_NUM), "%.17g").replace(_fmt(_TEXT), "%s")
        return tpl

    def emit(self, record: dict):
        self.lines.append(self.render(record))

    def flush(self):
        """Write the lines joined by newlines and ended by one, a line at a
        time, so the output is never copied whole."""
        if self.out_path:
            try:
                with open(self.out_path, "w", encoding="utf-8") as fh:
                    self._write(fh)
            except OSError as exc:
                raise InputError(f"field 'out': cannot write "
                                 f"{self.out_path!r}: {exc}")
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
    if args.group is None:
        raise InputError("field 'group': missing (so3, sl2, e2, e11, h3, r3)")
    return _group_or_fail(args.group)


def _json_lines(path: str, fieldname: str):
    """(line number, object) for each job line of a json-lines file, read
    a line at a time; blank lines and lines starting with # are skipped."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"field {fieldname!r}: cannot read {path!r}: {exc}")
    with fh:
        for lineno, line in enumerate(_read(fh, path, fieldname), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise InputError(f"field {fieldname!r}: line {lineno} is not "
                                 f"valid JSON: {exc}")
            if not isinstance(obj, dict):
                raise InputError(f"field {fieldname!r}: line {lineno} is not "
                                 f"a JSON object")
            yield lineno, obj


def _read(fh, path: str, fieldname: str):
    try:
        yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"field {fieldname!r}: cannot read {path!r}: {exc}")


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------

def _solution_record(sol, cert) -> dict:
    return {"v": list(sol.metric.v), "c": sol.c,
            "residual": max(cert.residual_closed_form, cert.residual_oracle),
            "pass": cert.passed}


def _solve_record(group, T, outcome, certs) -> dict:
    """The record of a solve outcome; `certs` certify its solutions, then
    its family sample."""
    record = {"command": "solve", "group": group.name.lower(), "T": list(T),
              "kind": outcome.kind, "case_label": outcome.case_label}
    record["solutions"] = [_solution_record(s, cert)
                           for s, cert in zip(outcome.solutions, certs)]
    if outcome.family is not None:
        fam = outcome.family
        record["family"] = {
            "constraint": fam.constraint if fam.constraint else "none",
            "c_fixed": fam.c,
            "sample": _solution_record(fam.sample, certs[-1]),
        }
    else:
        record["family"] = None
    record["traces"] = [{"p": t.p, "q": t.q, "multiplicity": t.multiplicity}
                        for t in outcome.traces]
    if outcome.notes:
        record["notes"] = list(outcome.notes)
    return record


def _classify_record(group, T, label: str) -> dict:
    return {"command": "classify", "group": group.name.lower(), "T": list(T),
            "case_label": label}


def _certify_record(group, T, v, c, cert) -> dict:
    return {"command": "certify", "group": group.name.lower(),
            "T": list(T), "v": list(v), "c": c,
            "residual_closed_form": cert.residual_closed_form,
            "residual_oracle": cert.residual_oracle,
            "normalized": cert.normalized, "pass": cert.passed}


def _solve_template(reporter, key, group, kind: str, label: str, n: int,
                    constraint, passes, mults) -> str:
    """The template of the solve records of one shape, kept under key: the
    kind and case label, n (v, c) slots, the family constraint, the `pass`
    of each claim and the multiplicity of each trace."""
    sol = Solution(DiagonalMetric((_NUM,) * 3), _NUM)
    if kind.startswith("Family"):
        shape = SolveOutcome(kind, label, family=Family(
            constraint, None if kind == "FamilyAnyC" else _NUM, sol))
    else:
        shape = SolveOutcome(kind, label, (sol,) * n, traces=tuple(
            [CubicSolveTrace(_NUM, _NUM, m) for m in mults]))
    return reporter.template(key, _solve_record(
        group, (_NUM,) * 3, shape,
        [Certificate(_NUM, _NUM, False, ok) for ok in passes]))


def _solve_lines(reporter, group, Ts, answers, certs) -> list:
    """The rendered solve record of each tensor of Ts, the first lanes of
    `answers`, whose claims (their (v, c) slots, lane by lane) `certs`
    certifies: `reporter.render(_solve_record(...))`, as the lane's numbers
    filled into the template of its shape, or, for a record with notes or
    a non-finite number, the record rendered whole."""
    size = len(Ts)
    n, mult = answers.n[:size], answers.mult[:size]
    live = np.arange(2) < n[:, None]
    res, passed = np.full(live.shape, np.nan), np.zeros(live.shape, bool)
    # max(closed form, oracle) as Python's max takes it, nan and all
    res[live] = np.where(certs.residual_oracle > certs.residual_closed_form,
                         certs.residual_oracle, certs.residual_closed_form)
    passed[live] = certs.passed
    # per lane, (v, c, residual) of each slot and (p, q) of each root
    claims = np.concatenate([answers.v[:size], answers.c[:size, :, None],
                             res[:, :, None]], axis=2)
    traces = np.stack([answers.p[:size], answers.q[:size]], axis=2)
    whole = ~((np.isfinite(claims).all(axis=2) | ~live).all(axis=1)
              & (np.isfinite(traces).all(axis=2) | (mult == 0)).all(axis=1))
    whole[[i for i in answers.notes if i < size]] = True
    # the shape: the row and n (in `answers.shape`), the pass bits and the
    # multiplicities
    code = (((answers.shape[:size] * 4 + passed[:, 0] + 2 * passed[:, 1]) * 3
             + mult[:, 0]) * 3 + mult[:, 1])
    lines, templates, first = [], reporter.templates, 0
    for i, (T, rendered, shape, k, ms, claim, trace) in enumerate(zip(
            Ts, whole.tolist(), code.tolist(), n.tolist(), mult.tolist(),
            claims.reshape(-1, 10).tolist(), traces.reshape(-1, 4).tolist())):
        first += k
        if rendered:
            own = [Certificate(*lane) for lane in zip(
                *[col[first - k:first].tolist() for col in certs])]
            lines.append(reporter.render(_solve_record(
                group, T, _outcomes(answers, np.array([i]))[0], own)))
            continue
        constraint = answers.constraint.get(i)
        key = ("solve", group.name, shape, constraint)
        kind = answers.kinds[i]
        # a closed form's slot has no root, so no trace
        traced = k if ms[0] else 0
        tpl = templates.get(key) or _solve_template(
            reporter, key, group, kind, answers.labels[i], k, constraint,
            passed[i, :k].tolist(), ms[:traced])
        # a FamilyFixedC record's c comes first after T, as `c_fixed`
        head = (*T, claim[3]) if kind == "FamilyFixedC" else T
        lines.append(tpl % (*head, *claim[:5 * k], *trace[:2 * traced]))
    return lines


# ---------------------------------------------------------------------------
# Jobs: parsed, then answered a chunk at a time, grouped by group
# ---------------------------------------------------------------------------

_BATCH_COMMANDS = ("solve", "classify", "certify")


def _claim(v: tuple, c: float) -> tuple:
    """A certify job's claim (v, c), once v passes `verify`'s check that a
    metric is positive and finite."""
    try:
        _check_metrics(np.array([v]))
    except ValueError as exc:
        raise InputError(f"field 'v': {exc}")
    return v, c


def _batch_job(lineno: int, job: dict) -> tuple:
    """(command, group, T, claim) of a job line, claim being (v, c) for a
    certify job and None otherwise."""
    command = job.get("command")
    if not (isinstance(command, str) and command in _BATCH_COMMANDS):
        raise InputError(f"field 'command': line {lineno}: unknown "
                         f"command {job.get('command')!r}; expected one "
                         f"of {_BATCH_COMMANDS}")
    try:
        group = _group_or_fail(job.get("group", ""))
        T = _parse_numbers(job.get("T"), "T")
        claim = None
        if command == "certify":
            claim = _claim(_parse_numbers(job.get("v"), "v"),
                           _parse_number(job.get("c"), "c"))
    except InputError as exc:
        raise InputError(f"{exc} on line {lineno}") from None
    return command, group, T, claim


def _grouped_lines(jobs: list, reporter, linenos=None) -> tuple[list, bool]:
    """The records of a chunk of parsed jobs (`_batch_job`) as `reporter`
    renders them, in input order, and whether every certificate passed.

    The jobs of each group are answered together: its solve and classify
    jobs by one `_columns` call, then the claims of its solve jobs and its
    certify jobs by one `certify_arrays` call; records are written from
    those arrays, with no outcome built for a record filled into a
    template (`_solve_lines`).  A job whose answer raises is found from its
    lane in `answers.errors`: the first such job of the chunk raises its
    error as malformed input, ended by ` on line N` when `linenos` gives
    the jobs' line numbers.  A certify job's v was checked when it was
    parsed, so `certify_arrays` raises nothing here."""
    by_group: dict = {}
    for i, job in enumerate(jobs):
        by_group.setdefault(job[1].name, []).append(i)
    answered, failed = [], {}
    for slots in by_group.values():
        group = jobs[slots[0]][1]
        solving = [i for i in slots if jobs[i][0] == "solve"]
        naming = [i for i in slots if jobs[i][0] == "classify"]
        claimed = [i for i in slots if jobs[i][0] == "certify"]
        # one columnar answer for the group's solve and classify jobs
        asked = solving + naming
        answers = _columns(group, [jobs[i][2] for i in asked])
        failed.update((asked[lane], exc)
                      for lane, exc in answers.errors.items())
        answered.append((group, solving, naming, claimed, answers))
    if failed:
        i = min(failed)
        where = f" on line {linenos[i]}" if linenos else ""
        raise InputError(f"field 'T': {failed[i]}{where}")
    lines = [""] * len(jobs)
    ok = True
    for group, solving, naming, claimed, answers in answered:
        for i, label in zip(naming, answers.labels[len(solving):]):
            key = ("classify", group.name, label)
            lines[i] = (reporter.templates.get(key) or reporter.template(
                key, _classify_record(group, (_NUM,) * 3, label))) % jobs[i][2]
        # the (v, c) slots of the solve jobs, then the certify jobs' claims,
        # certified by one call
        n = answers.n[:len(solving)]
        live = np.arange(2) < n[:, None]
        Ts = [jobs[i][2] for i in solving]
        certs = certify_arrays(
            group, np.concatenate([answers.v[:len(solving)][live], np.reshape(
                [jobs[i][3][0] for i in claimed], (-1, 3))]),
            np.concatenate([answers.c[:len(solving)][live],
                            [jobs[i][3][1] for i in claimed]]),
            np.concatenate([np.repeat(np.reshape(Ts, (-1, 3)), n, axis=0),
                            np.reshape([jobs[i][2] for i in claimed],
                                       (-1, 3))]))
        ok = ok and bool(certs.passed.all())
        m = int(live.sum())
        for i, line in zip(solving, _solve_lines(
                reporter, group, Ts, answers,
                Certificates(*[col[:m] for col in certs]))):
            lines[i] = line
        for i, cert in zip(claimed, zip(*[col[m:].tolist() for col in certs])):
            lines[i] = reporter.render(_certify_record(
                group, jobs[i][2], *jobs[i][3], Certificate(*cert)))
    return lines, ok


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _run_job(job: tuple, reporter) -> int:
    """A one-tensor command: its parsed job answered as a one-job chunk."""
    (line,), ok = _grouped_lines([job], reporter)
    reporter.lines.append(line)
    return EXIT_OK if ok else EXIT_CERT_FAILURE


def _run_tensor(args, reporter) -> int:
    """solve or classify of the tensor --T."""
    return _run_job((args.command, _resolve_group(args),
                     _flag_numbers(args.T, "T"), None), reporter)


def _run_certify(args, reporter) -> int:
    if args.from_file:
        if (args.T, args.v, args.c) != (None, None, None):
            raise InputError("field 'from': give either --from FILE or --T, "
                             "--v and --c")
        status, checked = _run_jobs(_claim_jobs(args.from_file), reporter)
        reporter.emit({"command": "certify-summary", "checked": checked,
                       "all_passed": status == EXIT_OK})
        return status
    if args.T is None or args.v is None or args.c is None:
        raise InputError("field 'v'/'c'/'T': certify needs --T, --v and --c "
                         "(or --from FILE)")
    group, T = _resolve_group(args), _flag_numbers(args.T, "T")
    return _run_job(("certify", group, T, _claim(
        _flag_numbers(args.v, "v"), _parse_number(args.c, "c"))), reporter)


def _claim_jobs(path: str):
    """(line number, certify job) per claim of each solve record of a
    json-lines file, its solutions then its family sample; a record's
    group, T and claim lists are checked here, its v and c by `_batch_job`."""
    for lineno, record in _json_lines(path, "from"):
        if record.get("command") != "solve":
            continue
        try:
            _group_or_fail(record.get("group", ""))
            _parse_numbers(record.get("T"), "T")
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
        except InputError as exc:
            raise InputError(f"{exc} on line {lineno}") from None
        for s in claims:
            yield lineno, {"command": "certify", "group": record["group"],
                           "T": record["T"], "v": s.get("v"), "c": s.get("c")}


def _grid_axis(fixed, rng_text, steps, name):
    if fixed is not None and rng_text is not None:
        raise InputError(f"field {name!r}: give either a fixed value or a range")
    if fixed is not None:
        return [_parse_number(fixed, name)]
    if rng_text is not None:
        lo, hi = _parse_range(rng_text, name)
        if math.isfinite((steps - 1) * (hi - lo)):  # half-open: [lo, hi)
            return [lo + k * (hi - lo) / steps for k in range(steps)]
        # k * (hi - lo) overflows: weigh the two ends, each term within them
        return [lo * (1 - k / steps) + hi * (k / steps) for k in range(steps)]
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
    # every point written is finite (solve raises on the others), so its
    # numbers are `_fmt`'s in both formats; each axis value is formatted once
    texts = map(",".join, itertools.product(*[list(map(_fmt, axis))
                                              for axis in axes]))
    points, templates = itertools.product(*axes), reporter.templates
    counts, kind_counts = Counter(), Counter()
    # the grid in chunks of `solve_many`, each answered and rendered at once
    while chunk := list(itertools.islice(points, CHUNK)):
        answers = _columns(group, chunk)
        if answers.errors:
            lane = min(answers.errors)
            raise InputError(f"field 'T': grid point {chunk[lane]}: "
                             f"{answers.errors[lane]}")
        kinds, labels, cs = _constants(answers)
        del answers  # freed before the next chunk is answered
        counts.update(labels)
        kind_counts.update(kinds)
        lines = []
        for T, kind, label, c in zip(itertools.islice(texts, len(chunk)),
                                     kinds, labels, cs):
            # the kind fixes the number of c values; T fills one `%s` slot
            tpl = templates.get((kind, label)) or reporter.template(
                (kind, label), {"command": "sweep-point", "T": [_TEXT],
                                "kind": kind, "case_label": label,
                                **({"c": [_NUM] * len(c)} if c else {})})
            lines.append(tpl % (T, *c))
        # one string per chunk, as in `batch`; records are written only
        # once the command has succeeded
        reporter.lines.append("\n".join(lines))
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
    return _run_jobs(_json_lines(args.jobs, "jobs"), reporter)[0]


def _run_jobs(jobs, reporter) -> tuple[int, int]:
    """Answer (line number, job) pairs in chunks of `BATCH_CHUNK`, each
    chunk's records appended to `reporter` as one string; return the exit
    status and the number of records.  A line that cannot be read or
    parsed ends its chunk: the jobs above it are answered first, and its
    error is raised only if none of theirs is."""
    status, count = EXIT_OK, 0
    while True:
        chunk, linenos, unread = [], [], None
        try:
            for lineno, job in itertools.islice(jobs, BATCH_CHUNK):
                chunk.append(_batch_job(lineno, job))
                linenos.append(lineno)
        except InputError as exc:
            unread = exc
        lines, ok = _grouped_lines(chunk, reporter, linenos)
        count += len(lines)
        if lines:
            # one string per chunk: `flush` puts the same newline between
            reporter.lines.append("\n".join(lines))
        if not ok:
            status = EXIT_CERT_FAILURE
        if unread is not None:
            raise unread
        if len(chunk) < BATCH_CHUNK:
            return status, count


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
        """A subcommand taking its group as the first positional argument."""
        p = sub.add_parser(name, help=help)
        p.add_argument("group", nargs="?", default=None)
        return p

    p = with_group("solve", "solve Ric(g) = c T for one tensor")
    p.add_argument("--T", required=True, help="T1,T2,T3")

    p = with_group("certify", "certify a claimed (v, c) or a solve record file")
    p.add_argument("--T", default=None, help="T1,T2,T3")
    p.add_argument("--v", default=None, help="v1,v2,v3")
    p.add_argument("--c", default=None)
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
    "solve": _run_tensor,
    "certify": _run_certify,
    "classify": _run_tensor,
    "sweep": _run_sweep,
    "oracle-ricci": _run_oracle_ricci,
    "batch": _run_batch,
}


_VALUE_FLAGS = {"--T", "--v", "--g", "--c", "--T1", "--T2", "--T3",
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
        reporter.flush()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return status


if __name__ == "__main__":
    raise SystemExit(main())
