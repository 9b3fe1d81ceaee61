"""`solver._columns` is the one answer of a chunk of tensors: `solve_many`
builds its outcomes from it, and `batch`, `sweep`, `classify_signature` and
`probe` read it without building any.  Lane by lane its numbers are the
outcome's, compared with `==`, and a lane that raises raises the outcome's
error at the outcome's place."""
import numpy as np
import pytest

from prescribed_ricci import (SL2, SO3, classify_signature, cli, probe, solve,
                              solve_many, solver)
from prescribed_ricci.solver import _columns

from conftest import ALL_GROUPS, INVALID_TENSORS, random_solvable
from test_solve_many import INADMISSIBLE


def lane(answers, i) -> dict:
    """Every field of lane i of the columns, as `outcome` writes them."""
    n = int(answers.n[i])
    traced = [(p, q, m) for p, q, m in zip(answers.p[i].tolist(),
                                           answers.q[i].tolist(),
                                           answers.mult[i].tolist()) if m]
    return {"kind": answers.kinds[i], "label": answers.labels[i],
            "v": answers.v[i, :n].tolist(), "c": answers.c[i, :n].tolist(),
            "traces": traced, "constraint": answers.constraint.get(i),
            "notes": int(i in answers.notes)}


def outcome(out) -> dict:
    claims = list(out.solutions) + ([out.family.sample] if out.family else [])
    fixed = out.family is not None and out.kind == "FamilyFixedC"
    assert out.family is None or out.family.c == (
        claims[0].c if fixed else None)
    return {"kind": out.kind, "label": out.case_label,
            "v": [list(s.metric.v) for s in claims],
            "c": [s.c for s in claims],
            "traces": [(t.p, t.q, t.multiplicity) for t in out.traces],
            "constraint": out.family and out.family.constraint,
            "notes": len(out.notes)}


def raised(answer):
    try:
        return answer(), None
    except Exception as exc:
        return None, (type(exc), str(exc))


def assert_columns_are_outcomes(group, Ts):
    """The columns of Ts equal the outcomes of `solve_many`, and of `solve`
    lane by lane, on every field up to the first lane that raises, which
    raises the same error in all three."""
    answers = _columns(group, Ts)
    outs = []
    error = raised(lambda: outs.extend(solve_many(group, Ts)))[1]
    first = min(answers.errors, default=None)
    assert len(outs) == (len(Ts) if first is None else first)
    for i, out in enumerate(outs):
        assert lane(answers, i) == outcome(out), (group.name, Ts[i])
        assert solve(group, Ts[i]) == out
    if first is not None:
        exc = answers.errors[first]
        assert error == (type(exc), str(exc))
        assert raised(lambda: solve(group, Ts[first]))[1] == error
    return answers


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_columns_are_the_outcomes_at_every_scale(group):
    # solvable shapes, Gaussian ones and ones with exact zeros, each scaled
    # by 10^U[-300, 300]
    gen = np.random.default_rng(31)
    Ts = []
    for _ in range(600):
        T = np.array(random_solvable(group, gen) if gen.random() < 0.6
                     else gen.normal(size=3))
        T[gen.random(3) < 0.1] = 0.0
        Ts.append(tuple((T * 10.0 ** gen.uniform(-300, 300)).tolist()))
    answers = assert_columns_are_outcomes(group, Ts)
    assert not answers.errors
    kinds = set(answers.kinds)
    assert "NoSolution" in kinds and len(kinds) > 1, kinds
    # 8^5 T has the T' of T, so its columns are T's mapped back by exact
    # powers of two (but T = 0 stays 0, and q only where neither side
    # under- or overflows)
    up = _columns(group, [tuple(np.array(T) * 8.0 ** 5) for T in Ts])
    assert (up.kinds, up.labels, up.notes.keys()) == (
        answers.kinds, answers.labels, answers.notes.keys())
    moved = np.array([any(T) for T in Ts])
    for field, scale in (("n", 1), ("mult", 1), ("v", 2.0 ** 5),
                         ("c", 8.0 ** -5), ("p", 8.0 ** 5)):
        np.testing.assert_array_equal(getattr(up, field)[moved],
                                      getattr(answers, field)[moved] * scale)
    normal = (abs(answers.q) > 1e-290) & (abs(answers.q) < 1e290)
    np.testing.assert_array_equal(up.q[normal],
                                  answers.q[normal] * 16.0 ** 5)


TINY = (1e-310, 1e-310, 1e-310)  # c = inf


@pytest.mark.parametrize("group, T", [
    (SO3, TINY), (SL2, (-1e-310, 0.0, 0.0)),
    *[(g, T) for g, T, _, _ in INADMISSIBLE],
    *[(SO3, T) for T in INVALID_TENSORS.values()]],
    ids=["c-range-cubic", "c-range-closed",
         *[f"inadmissible-{i}" for i in range(len(INADMISSIBLE))],
         *[f"malformed-{name}" for name in INVALID_TENSORS]])
def test_columns_raise_where_the_outcomes_raise(group, T):
    group = solver.as_group(group)
    good = [(10.0, -1.0, -1.0), (-2.0, 0.0, 0.0), (1.0, 1.0, 1.0)]
    answers = assert_columns_are_outcomes(group, good + [T] + good + [TINY])
    assert min(answers.errors) == len(good)


def test_notes_are_computed_only_where_shown(monkeypatch, tmp_path):
    # the SL2 (vi)/(vii) note's residuals take `ricci_diagonal` per lane:
    # only an outcome or a rendered record shows the note
    calls = []
    ricci = solver.ricci_diagonal
    monkeypatch.setattr(solver, "ricci_diagonal",
                        lambda *args: calls.append(args) or ricci(*args))
    zeros = [(-2.0, 0.0, 0.0), (0.0, -2.0, 0.0)]
    assert solver._constants(solver._columns(SL2, zeros))[1] == [
        "SL2 case (vi)", "SL2 case (vii)"]
    assert classify_signature(SL2, zeros[0]) == "SL2 case (vi)"
    assert probe(SL2, zeros[1], n=4).base_kind == "FamilyFixedC"
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "sweep", "sl2", "--T1-range=-2..1",
                     "--T2=0", "--T3=0", "--steps=3"]) == 0
    assert "SL2 case (vi)" in out.read_text()
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('{"command": "classify", "group": "sl2", "T": [-2, 0, 0]}'
                    '\n')
    assert cli.main(["--out", str(out), "batch", str(jobs)]) == 0
    assert calls == []
    assert len(solve(SL2, zeros[0]).notes) == 1
    assert len(calls) == 1
