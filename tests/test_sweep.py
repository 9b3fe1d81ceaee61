"""`sweep` renders its points from the cubic kernel's columns through
templates; its output must be, byte for byte, the records built from the
outcomes of `solve_many` and rendered by `_to_json` / `_flatten`, which
still serve `solve` and `batch`."""
import itertools
import json

import pytest

from prescribed_ricci import cli, solve_many

from conftest import singular_steps

GROUPS = ("so3", "sl2", "e2", "e11", "h3", "r3")
SCALES = (1e-300, 1.0, 1e300)


def reference(fmt, group, axes, path):
    """The sweep's output built the way `solve` builds its records: one
    record dict per point, from one `solve_many` call over the grid,
    rendered by `Reporter.render`."""
    reporter = cli.Reporter(fmt, str(path))
    counts, kinds = {}, {}
    points = list(itertools.product(*axes))
    for T, out in zip(points, solve_many(group, points)):
        counts[out.case_label] = counts.get(out.case_label, 0) + 1
        kinds[out.kind] = kinds.get(out.kind, 0) + 1
        reporter.emit(point_record(T, out))
    reporter.emit({"command": "sweep-summary", "group": group,
                   "points": len(axes[0]) * len(axes[1]) * len(axes[2]),
                   "by_case": dict(sorted(counts.items())),
                   "by_kind": dict(sorted(kinds.items()))})
    reporter.flush()
    return path.read_bytes()


def point_record(T, out) -> dict:
    """The sweep record of the point T, built from its `solve` outcome."""
    record = {"command": "sweep-point", "T": list(T), "kind": out.kind,
              "case_label": out.case_label}
    if out.c_values():
        record["c"] = list(out.c_values())
    return record


def swept(fmt, group, flags, path):
    assert cli.main(["--format", fmt, "--out", str(path), "sweep", group]
                    + flags) == 0
    return path.read_bytes()


def grid(fixed, ranges, steps):
    """Sweep flags and the axes `sweep` walks for them: one fixed T1 or a
    T1 range, and T2 and T3 ranges."""
    names = ("T1", "T2", "T3")
    flags, axes = [f"--steps={steps}"], []
    for name, value in zip(names, (fixed,) + ranges):
        if isinstance(value, tuple):
            text = f"{value[0]!r}..{value[1]!r}"
            flags.append(f"--{name}-range={text}")
            axes.append(cli._grid_axis(None, text, steps, name))
        else:
            flags.append(f"--{name}={value!r}")
            axes.append([float(value)])
    return flags, axes


@pytest.mark.parametrize("fmt", ["json-lines", "text"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("group", GROUPS)
def test_sweep_equals_solve_records(group, scale, fmt, tmp_path,
                                    monkeypatch):
    # -2s..2s in 8 steps holds 0 and ties on every axis, so the grid meets
    # the family rows, the SL2 T1 = T2 rows and NoSolution regions; a
    # chunk of 100 puts chunk edges inside the grid
    monkeypatch.setattr(cli, "CHUNK", 100)
    r = (-2.0 * scale, 2.0 * scale)
    flags, axes = grid(r, (r, r), 8)
    assert swept(fmt, group, flags, tmp_path / "a") == reference(
        fmt, group, axes, tmp_path / "b")


@pytest.mark.parametrize("fmt", ["json-lines", "text"])
@pytest.mark.parametrize("scale", SCALES)
def test_sweep_equals_solve_records_on_the_so3_band(scale, fmt, tmp_path):
    # T1 in [8s, 12s) and T2, T3 in [-2s, 0): the two-solution band, its
    # unique edge through the double root (8, -1, -1)s and NoSolution, in
    # one chunk of the default size
    r = (-2.0 * scale, 0.0)
    flags, axes = grid((8.0 * scale, 12.0 * scale), (r, r), 8)
    out = swept(fmt, "so3", flags, tmp_path / "a")
    assert out == reference(fmt, "so3", axes, tmp_path / "b")
    assert b"two-solution subcase" in out and b"unique subcase" in out


def test_sweep_with_a_singular_polish_equals_solve_records(tmp_path,
                                                           monkeypatch):
    # a singular step matrix stops only its own lane's polish: the sweep's
    # chunks of 7 points and the reference's one chunk answer alike
    singular_steps(monkeypatch, lambda A: A[..., 0, 0] * 1e6 % 2 < 1)
    monkeypatch.setattr(cli, "CHUNK", 7)
    flags, axes = grid((8.0, 12.0), ((-2.0, 0.0), (-2.0, 0.0)), 6)
    assert swept("json-lines", "so3", flags, tmp_path / "a") == reference(
        "json-lines", "so3", axes, tmp_path / "b")


def test_sweep_error_names_the_grid_point(tmp_path, capsys):
    # c = 8 / |T| leaves the float range: malformed input, as for solve,
    # and nothing is written
    out = tmp_path / "out.jsonl"
    code = cli.main(["--out", str(out), "sweep", "so3", "--T1", "1e-310",
                     "--T2-range=-1e-311..0", "--T3-range=-1e-311..0",
                     "--steps", "2"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        "error: field 'T': grid point (1e-310, -1e-311, -1e-311): c = inf is "
        "outside the float range (|T|_inf ~ 8^-344)\n")


@pytest.mark.parametrize("chunk", [1, 2])
def test_sweep_error_is_found_from_its_lane(chunk, tmp_path, capsys,
                                            monkeypatch):
    # the second point of the grid raises: its chunk's one `_columns` call
    # names it from the lane, and no point is solved on its own; in chunks
    # of one point the first point's record is written first
    first = (0.0, -1e-311, -1e-311)
    (out,) = solve_many("so3", [first])
    written = cli.Reporter("text", None).render(point_record(first, out))

    def scalar(*args):
        raise AssertionError("scalar path used")

    monkeypatch.setattr(cli, "solve", scalar)
    monkeypatch.setattr(cli, "CHUNK", chunk)
    answered = []
    columns = cli._columns

    def counted(group, Ts):
        answered.append(len(Ts))
        return columns(group, Ts)

    monkeypatch.setattr(cli, "_columns", counted)
    code = cli.main(["sweep", "so3", "--T1-range=0..2e-310", "--T2=-1e-311",
                     "--T3=-1e-311", "--steps", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_BAD_INPUT,
                                    written if chunk == 1 else "")
    assert captured.err == (
        "error: field 'T': grid point (1e-310, -1e-311, -1e-311): c = inf is "
        "outside the float range (|T|_inf ~ 8^-344)\n")
    assert answered == ([1, 1] if chunk == 1 else [2])


def test_wide_range_grid_stays_finite(tmp_path):
    # hi - lo overflows: the grid weighs the two ends instead of writing
    # lo + 0 * inf = nan
    out = swept("json-lines", "so3", ["--T1-range=-1e308..1e308", "--T2=1",
                                      "--T3=1", "--steps=2"], tmp_path / "a")
    points = [json.loads(line)["T"] for line in out.splitlines()[:-1]]
    assert points == [[-1e308, 1.0, 1.0], [0.0, 1.0, 1.0]]
    # hi - lo is finite at 8e307 but 2 * (hi - lo) is not
    for big in (1.7976931348623157e308, 8e307):
        for steps in (1, 3, 7, 100):
            axis = cli._grid_axis(None, f"{-big!r}..{big!r}", steps, "T1")
            assert len(axis) == steps and axis[0] == -big
            assert all(a < b for a, b in zip(axis, axis[1:]))
            assert axis[-1] < big


@pytest.mark.parametrize("text", ["-2..0", "0.1..0.7", "-1e300..1e300",
                                  "-8e305..8e305", "1e-320..3e-320"])
def test_ordinary_grid_keeps_its_formula(text):
    # bench/validate.py recomputes each grid point as lo + k*(hi-lo)/steps
    lo, hi = map(float, text.split(".."))
    for steps in (1, 3, 100):
        assert cli._grid_axis(None, text, steps, "T2") == [
            lo + k * (hi - lo) / steps for k in range(steps)]
