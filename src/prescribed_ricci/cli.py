"""Command-line front end.

Subcommands: solve, certify, classify, sweep, oracle-ricci, plus batch for a
jobs file with one JSON job per line.  Every solve, classify and certify job
has one answer path, `_grouped_lines`, a chunk of parsed jobs at a time:
batch and certify --from in chunks of BATCH_CHUNK lines, and the one-tensor
solve, classify and certify commands as one-job chunks, whose errors lack
the ` on line N`.  Output is either human-readable text records or
json-lines; numbers are printed with 17 significant digits so that records
round-trip exactly.  Each chunk's records are written before the next
chunk is read.  A command that fails writes the records of every chunk
before the failing one, then the error on stderr; failing before its
first chunk, it leaves --out untouched and stdout empty.  Exit codes: 0
success (NoSolution is a normal answer), 2 malformed input, 3
certification failure.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .curvature import metric_components, ricci_diagonal, ricci_koszul
from .diagonalize import symmetric_from_upper
from .groups import group_from_name, structure_constants
from .solver import CHUNK, _columns, _constants
from .verify import certify_arrays
# solve, classify_signature and certify are imported only for bench/spans.py,
# which wraps them here by name; every command answers through `_columns`
from .solver import classify_signature, solve  # noqa: F401
from .verify import certify  # noqa: F401

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_CERT_FAILURE = 3

# batch jobs read and answered together: the jobs of one group in a chunk
# share one `_columns` call, one `certify_arrays` call for their solve
# slots and one for their certify claims, and the chunk bounds the memory
# this takes
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
        inner = ",".join([
            (keys.get(k) or keys.setdefault(k, json.dumps(k) + ":"))
            + _to_json(v) for k, v in value.items()])
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
    """Writes each item (a record, or a chunk's records joined by newlines)
    when given, one newline before every item but the first, to --out or
    stdout, opened at the first write."""

    def __init__(self, fmt: str, out_path: str | None):
        self.fmt = fmt
        self.out_path = out_path
        self.fh = self.last = None  # the output; the item written last
        # `%`-templates of record shapes, by a key naming the shape
        self.templates: dict = {}

    def render(self, record: dict) -> str:
        """A record's output: one json line, or its text lines each ended
        by a newline, the blank line between records coming from `write`."""
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
        self.write(self.render(record))

    def write(self, item: str):
        try:
            if self.fh is None:  # --out is cut to length in flush
                self.fh = sys.stdout if not self.out_path else open(
                    os.open(self.out_path, os.O_WRONLY | os.O_CREAT, 0o666),
                    "w", encoding="utf-8")
            else:
                self.fh.write("\n")
            self.fh.write(item)
            self.fh.flush()  # written whole; closing --out writes nothing
        except OSError as exc:
            if not self.out_path:
                raise
            raise InputError(f"field 'out': cannot write {self.out_path!r}: "
                             f"{exc}") from None
        self.last = item

    def flush(self, complete: bool = True):
        """End the output with a newline unless its last item is empty or
        ends in one; close --out, cut to what was written (truncating it on
        opening would wait for the writeback of a previous output).  A
        complete command that wrote nothing opens its output all the same;
        an incomplete one leaves it untouched."""
        if (complete and self.fh is None
                or self.last and not self.last.endswith("\n")):
            self.write("")
        if self.out_path and self.fh is not None:
            if os.path.isfile(self.out_path):
                self.fh.truncate()
            self.fh.close()


# ---------------------------------------------------------------------------
# Field parsing
# ---------------------------------------------------------------------------

def _parse_number(value, fieldname: str) -> float:
    """One finite number from command-line text or a JSON value."""
    if value is None:
        raise InputError(f"field {fieldname!r}: missing")
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise InputError(f"field {fieldname!r}: non-numeric entry {value!r}")
    except OverflowError:  # an int beyond the float range
        x = math.inf
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


def _json_lines(path: str, fieldname: str, out):
    """(line number, object) for each job line of a json-lines file other
    than --out, `out`, read a line at a time; blank lines and lines
    starting with # are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if out and os.path.exists(out) and os.path.samestat(
                    os.fstat(fh.fileno()), os.stat(out)):
                raise InputError(f"field 'out': {out!r} is the input file "
                                 f"{path!r}")
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:
                    raise InputError(f"field {fieldname!r}: line {lineno} is "
                                     f"not valid JSON: {exc}")
                if not isinstance(obj, dict):
                    raise InputError(f"field {fieldname!r}: line {lineno} is "
                                     f"not a JSON object")
                yield lineno, obj
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"field {fieldname!r}: cannot read {path!r}: {exc}")


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------

def _solve_record(group, T, kind: str, label: str, claims, constraint,
                  traces, note) -> dict:
    """A solve record from plain values: `claims`, (v, c, residual, pass)
    of each solution or of the family sample, and `traces`, (p, q,
    multiplicity) of each root; a family's constraint and a note, or None."""
    claims = [{"v": list(v), "c": c, "residual": res, "pass": ok}
              for v, c, res, ok in claims]
    family = None
    if kind.startswith("Family"):  # its one claim is the sample
        sample = claims.pop()
        family = {"constraint": constraint or "none",
                  "c_fixed": sample["c"] if kind == "FamilyFixedC" else None,
                  "sample": sample}
    record = {"command": "solve", "group": group.name.lower(), "T": list(T),
              "kind": kind, "case_label": label, "solutions": claims,
              "family": family, "traces": [
                  {"p": p, "q": q, "multiplicity": m} for p, q, m in traces]}
    if note is not None:
        record["notes"] = [note]
    return record


def _classify_record(group, T, label: str) -> dict:
    return {"command": "classify", "group": group.name.lower(), "T": list(T),
            "case_label": label}


def _certify_record(group, T, v, c, row) -> dict:
    return {"command": "certify", "group": group.name.lower(), "T": list(T),
            "v": list(v), "c": c, **dict(zip((
                "residual_closed_form", "residual_oracle", "normalized",
                "pass"), row))}


def _solve_lines(reporter, group, Ts, answers, certs) -> list:
    """The rendered solve record of each tensor of Ts, the first lanes of
    `answers`, whose (v, c) slots `certs` certifies in turn: `reporter.
    render(_solve_record(...))`, as the lane's numbers and note filled into
    the template of its shape, or, for a record with a non-finite number,
    the record whole."""
    size = len(Ts)
    n, mult = answers.n[:size], answers.mult[:size]
    live = np.arange(2) < n[:, None]
    res, passed = np.full(live.shape, np.nan), np.zeros(live.shape, bool)
    # a slot's residual: max(closed form, oracle) as Python's max takes it,
    # nan and all
    res[live] = np.where(certs.residual_oracle > certs.residual_closed_form,
                         certs.residual_oracle, certs.residual_closed_form)
    passed[live] = certs.passed
    # per lane, (v, c, residual) of each slot and (p, q) of each root
    claims = np.concatenate([answers.v[:size], answers.c[:size, :, None],
                             res[:, :, None]], axis=2)
    traces = np.stack([answers.p[:size], answers.q[:size]], axis=2)
    whole = ~((np.isfinite(claims).all(axis=2) | ~live).all(axis=1)
              & (np.isfinite(traces).all(axis=2) | (mult == 0)).all(axis=1))
    # the shape: the row and n (in `answers.shape`), the pass bits and the
    # multiplicities
    code = (((answers.shape[:size] * 4 + passed[:, 0] + 2 * passed[:, 1]) * 3
             + mult[:, 0]) * 3 + mult[:, 1])
    lines, templates, marks = [], reporter.templates, (_NUM,) * 10
    for i, (T, rendered, shape, k, ms, claim, trace) in enumerate(zip(
            Ts, whole.tolist(), code.tolist(), n.tolist(), mult.tolist(),
            claims.reshape(-1, 10).tolist(), traces.reshape(-1, 4).tolist())):
        constraint, note = answers.constraint.get(i), answers.notes.get(i)
        key = ("solve", group.name, shape, constraint, note is None)
        kind = answers.kinds[i]
        # a closed form's slot has no root, so no trace
        traced = k if ms[0] else 0
        if note is not None:  # the SL2 (vi)/(vii) note, the last field
            note = note()
        if rendered or key not in templates:
            # the record from the lane's numbers, or from markers for the
            # template of its shape
            t, cl, tr, nt = (T, claim, trace, note) if rendered else (
                marks[:3], marks, marks, note and _TEXT)
            record = _solve_record(
                group, t, kind, answers.labels[i],
                [(cl[j:j + 3], cl[j + 3], cl[j + 4], ok)
                 for j, ok in zip((0, 5), passed[i, :k].tolist())],
                constraint, [(tr[j], tr[j + 1], m)
                             for j, m in zip((0, 2), ms[:traced])], nt)
            if rendered:
                lines.append(reporter.render(record))
                continue
            reporter.template(key, record)
        # a FamilyFixedC record's c comes first after T, as `c_fixed`
        head = (*T, claim[3]) if kind == "FamilyFixedC" else T
        fill = (*head, *claim[:5 * k], *trace[:2 * traced])
        if note is not None:
            fill += (_to_json(note) if reporter.fmt == "json-lines" else note,)
        lines.append(templates[key] % fill)
    return lines


# ---------------------------------------------------------------------------
# Jobs: parsed, then answered a chunk at a time, grouped by group
# ---------------------------------------------------------------------------

_BATCH_COMMANDS = ("solve", "classify", "certify")


def _metric(v: tuple) -> tuple:
    """The `metric_components` of a certify claim's v or oracle-ricci --v."""
    try:
        return metric_components(v)
    except ValueError as exc:
        raise InputError(f"field 'v': {exc}")


def _claim(obj: dict) -> tuple:
    """(v, c) of a certify job, or of a claim of a solve record."""
    return (_metric(_parse_numbers(obj.get("v"), "v")),
            _parse_number(obj.get("c"), "c"))


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
        claim = _claim(job) if command == "certify" else None
    except InputError as exc:
        raise InputError(f"{exc} on line {lineno}") from None
    return command, group, T, claim


def _grouped_lines(jobs: list, reporter, linenos=None) -> tuple[list, bool]:
    """The records of a chunk of parsed jobs (`_batch_job`) as `reporter`
    renders them, in input order, and whether every certificate passed.

    One pass per group: its solve and classify jobs are answered by one
    `_columns` call, the (v, c) slots of its solve jobs certified by one
    `certify_arrays` call and its certify jobs' claims by another, and its
    records are written from those arrays, with no outcome built for a
    record filled into a template (`_solve_lines`).  A job whose answer
    raises is found from its lane in `answers.errors`; once one has, the
    later groups are only answered, and the chunk's first failing job
    raises its error as malformed input, ended by ` on line N` when
    `linenos` gives the jobs' line numbers.  Certifying the groups before
    it raises nothing: a certify job's claim was checked when it was
    parsed, and `_columns` checks every slot (`_check_slots`)."""
    by_group: dict = {}
    for i, job in enumerate(jobs):
        by_group.setdefault(job[1].name, []).append(i)
    lines, ok, failed = [""] * len(jobs), True, {}
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
        if failed:
            continue
        for i, label in zip(naming, answers.labels[len(solving):]):
            key = ("classify", group.name, label)
            lines[i] = (reporter.templates.get(key) or reporter.template(
                key, _classify_record(group, (_NUM,) * 3, label))) % jobs[i][2]
        # the solve jobs' (v, c) slots, each with its job's T
        Ts, n = [jobs[i][2] for i in solving], answers.n[:len(solving)]
        live = np.arange(2) < n[:, None]
        certs = certify_arrays(group, answers.v[:len(n)][live],
                               answers.c[:len(n)][live],
                               np.repeat(np.reshape(Ts, (-1, 3)), n, axis=0))
        for i, line in zip(solving, _solve_lines(reporter, group, Ts, answers,
                                                 certs)):
            lines[i] = line
        claims = certify_arrays(group, [jobs[i][3][0] for i in claimed],
                                [jobs[i][3][1] for i in claimed],
                                [jobs[i][2] for i in claimed])
        for i, row in zip(claimed, zip(*[col.tolist() for col in claims])):
            lines[i] = reporter.render(_certify_record(
                group, jobs[i][2], *jobs[i][3], row))
        ok = ok and bool(certs.passed.all() and claims.passed.all())
    if failed:
        i = min(failed)
        where = f" on line {linenos[i]}" if linenos else ""
        raise InputError(f"field 'T': {failed[i]}{where}")
    return lines, ok


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

def _run_job(job: tuple, reporter) -> int:
    """A one-tensor command: its parsed job answered as a one-job chunk."""
    (line,), ok = _grouped_lines([job], reporter)
    reporter.write(line)
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
        if args.group is not None:
            raise InputError("field 'group': certify --from reads each "
                             "claim's group from its record; give no group")
        status, checked = _run_jobs(_claim_jobs(args.from_file, args.out),
                                   reporter)
        reporter.emit({"command": "certify-summary", "checked": checked,
                       "all_passed": status == EXIT_OK})
        return status
    if args.T is None or args.v is None or args.c is None:
        raise InputError("field 'v'/'c'/'T': certify needs --T, --v and --c "
                         "(or --from FILE)")
    group, T = _resolve_group(args), _flag_numbers(args.T, "T")
    return _run_job(("certify", group, T, (_metric(_flag_numbers(
        args.v, "v")), _parse_number(args.c, "c"))), reporter)


def _claim_jobs(path: str, out):
    """(line number, parsed certify job) per claim of each solve record of
    a json-lines file, its solutions then its family sample: a record's
    group, T and claim lists parsed once, then each claim as it is drawn."""
    for lineno, record in _json_lines(path, "from", out):
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
            for s in claims:
                yield lineno, ("certify", group, T, _claim(s))
        except InputError as exc:
            raise InputError(f"{exc} on line {lineno}") from None


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
    axes = [_grid_axis(getattr(args, name), getattr(args, f"{name}_range"),
                       steps, name) for name in ("T1", "T2", "T3")]
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
        # one string per chunk, written before the next is answered
        reporter.write("\n".join(lines))
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
        v = _metric(_flag_numbers(args.v, "v"))
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
    return _run_jobs(((lineno, _batch_job(lineno, job)) for lineno, job
                      in _json_lines(args.jobs, "jobs", args.out)), reporter)[0]


def _run_jobs(jobs, reporter) -> tuple[int, int]:
    """Answer (line number, parsed job) pairs in chunks of `BATCH_CHUNK`,
    each chunk's records written as one string unless the chunk raises;
    return the exit status and the number of records.  A line that cannot
    be read or parsed as it is drawn ends its chunk: the jobs above it are
    answered first, and its error is raised only if none of theirs is."""
    status, count = EXIT_OK, 0
    while True:
        chunk, linenos, unread = [], [], None
        try:
            for lineno, job in itertools.islice(jobs, BATCH_CHUNK):
                chunk.append(job)
                linenos.append(lineno)
        except InputError as exc:
            unread = exc
        lines, ok = _grouped_lines(chunk, reporter, linenos)
        if unread is not None:
            raise unread
        count += len(lines)
        if lines:
            # one string per chunk: `write` puts the same newline between
            reporter.write("\n".join(lines))
        if not ok:
            status = EXIT_CERT_FAILURE
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


_RUNNERS = {"solve": _run_tensor, "certify": _run_certify,
            "classify": _run_tensor, "sweep": _run_sweep,
            "oracle-ricci": _run_oracle_ricci, "batch": _run_batch}


_VALUE_FLAGS = {"--T", "--v", "--g", "--c", "--T1", "--T2", "--T3",
                "--T1-range", "--T2-range", "--T3-range", "--steps",
                "--out", "--format", "--from"}


def _fuse_values(argv: list[str]) -> list[str]:
    """Join value flags with their argument so values like -3,-2,1 survive
    argparse's leading-dash heuristics."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _VALUE_FLAGS else None
        out.append(tok if value is None else f"{tok}={value}")
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
        try:
            status = _RUNNERS[args.command](args, reporter)
        except InputError:
            reporter.flush(complete=False)  # the chunks written end whole
            raise
        reporter.flush()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return status


if __name__ == "__main__":
    raise SystemExit(main())
