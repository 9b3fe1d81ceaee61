import json
import warnings

import numpy as np
import pytest

from prescribed_ricci import (SolveOutcome, certify, classify_signature, cli,
                              solve, solver, verify)
from prescribed_ricci.cli import Reporter, main

from conftest import random_solvable


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def test_solve_symmetric_case(capsys):
    code, out = run(capsys, "--format", "json-lines", "solve", "so3", "--T", "1,1,1")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["kind"] == "Unique"
    assert abs(rec["solutions"][0]["c"] - 2.0) <= 1e-12
    assert rec["solutions"][0]["pass"] is True
    assert abs(rec["traces"][0]["p"] - 0.5) <= 1e-12


def test_solve_no_solution_is_success(capsys):
    code, out = run(capsys, "--format", "json-lines", "solve", "r3", "--T", "0,0,1")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["kind"] == "NoSolution"


def test_solve_text_format(capsys):
    code, out = run(capsys, "solve", "so3", "--T", "10,-1,-1")
    assert code == 0
    assert "kind: TwoSolutions" in out
    assert "case_label: SO3 (+,-,-) two-solution subcase" in out
    assert "solutions[1].c:" in out


def test_classify(capsys):
    code, out = run(capsys, "--format", "json-lines", "classify", "sl2",
                    "--T", "-3,-2,1")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["case_label"] == "SL2 case (iv)"


def test_certify_pass_and_fail(capsys):
    code, out = run(capsys, "--format", "json-lines", "certify", "sl2",
                    "--T", "-1,-1,1", "--v", "1,1,2", "--c", "8")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["pass"] is True

    code, out = run(capsys, "--format", "json-lines", "certify", "so3",
                    "--T", "1,1,1", "--v", "1,1,1", "--c", "1")
    assert code == 3
    (rec,) = jsonl(out)
    assert rec["pass"] is False

    # |c| * |T|_inf ~ 1e600 overflows, yet both residuals stay finite: Ric
    # is 2 against c*T ~ 1e600, so the normalized residual is 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "--format", "json-lines", "certify", "so3",
                        "--T", "1e300,1e300,1e300", "--v", "1,1,1",
                        "--c", "1e300")
    assert code == 3
    (rec,) = jsonl(out)
    assert rec["pass"] is False
    assert rec["residual_closed_form"] == pytest.approx(1.0, rel=1e-12)
    assert rec["residual_oracle"] == pytest.approx(1.0, rel=1e-12)


def test_round_trip_solve_then_certify(tmp_path, capsys):
    path = tmp_path / "solve.jsonl"
    code, _ = run(capsys, "--format", "json-lines", "--out", str(path),
                  "solve", "so3", "--T", "10,-1,-1")
    assert code == 0
    code, out = run(capsys, "--format", "json-lines", "certify",
                    "--from", str(path))
    assert code == 0
    records = jsonl(out)
    assert records[-1]["command"] == "certify-summary"
    assert records[-1]["all_passed"] is True
    assert records[-1]["checked"] == 2


def test_round_trip_family_sample(tmp_path, capsys):
    path = tmp_path / "fam.jsonl"
    code, _ = run(capsys, "--format", "json-lines", "--out", str(path),
                  "solve", "sl2", "--T", "-2,0,0")
    assert code == 0
    rec = jsonl(path.read_text())[0]
    assert rec["family"]["constraint"] == "v2=v1+v3"
    assert abs(rec["family"]["c_fixed"] - 4.0) <= 1e-12
    assert any("-T1/8" in n for n in rec.get("notes", []))
    code, out = run(capsys, "--format", "json-lines", "certify", "--from", str(path))
    assert code == 0


def test_sweep_deterministic_and_summarized(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["--format", "json-lines", "sweep", "so3", "--T1", "10",
            "--T2-range", "-2..0", "--T3-range", "-2..0", "--steps", "8"]
    code, _ = run(capsys, "--out", str(a), *args)
    assert code == 0
    code, _ = run(capsys, "--out", str(b), *args)
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    records = jsonl(a.read_text())
    summary = records[-1]
    assert summary["command"] == "sweep-summary"
    assert summary["points"] == 64
    assert sum(summary["by_kind"].values()) == 64
    # half-open grid never reaches T = 0
    for rec in records[:-1]:
        assert rec["T"][1] < 0 and rec["T"][2] < 0


def test_sweep_grid_is_half_open(capsys):
    code, out = run(capsys, "--format", "json-lines", "sweep", "e2",
                    "--T1", "1", "--T2-range", "-1..0", "--T3", "-1",
                    "--steps", "4")
    assert code == 0
    records = jsonl(out)
    t2s = [rec["T"][1] for rec in records if rec["command"] == "sweep-point"]
    assert t2s == [-1.0, -0.75, -0.5, -0.25]


def test_oracle_ricci_diagonal(capsys):
    code, out = run(capsys, "--format", "json-lines", "oracle-ricci", "h3",
                    "--v", "1,1,1")
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["ricci_closed_form"] == [2.0, -2.0, -2.0]
    assert np.allclose(rec["ricci_koszul"], np.diag([2.0, -2.0, -2.0]))


def test_oracle_ricci_full_gram(capsys):
    code, out = run(capsys, "--format", "json-lines", "oracle-ricci", "so3",
                    "--g", "1,0,0,1,0,1")
    assert code == 0
    (rec,) = jsonl(out)
    assert np.allclose(rec["ricci_koszul"], np.diag([2.0, 2.0, 2.0]))


def test_batch_jobs(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        '{"command": "solve", "group": "so3", "T": [1, 1, 1]}\n'
        '{"command": "classify", "group": "sl2", "T": [-3, -2, 1]}\n'
        '{"command": "certify", "group": "h3", "T": [1, -1, -1], '
        '"v": [1, 1, 1], "c": 2.0}\n')
    code, out = run(capsys, "--format", "json-lines", "batch", str(jobs))
    assert code == 0
    records = jsonl(out)
    assert [r["command"] for r in records] == ["solve", "classify", "certify"]


def test_malformed_inputs_name_the_field(tmp_path, capsys):
    code = main(["solve", "so3", "--T", "1,1"])
    err = capsys.readouterr().err
    assert code == 2 and "'T'" in err

    code = main(["solve", "xx3", "--T", "1,1,1"])
    err = capsys.readouterr().err
    assert code == 2 and "'group'" in err

    code = main(["solve", "--T", "1,1,1"])
    err = capsys.readouterr().err
    assert code == 2 and "'group'" in err

    # the group is positional only
    code = main(["solve", "--group", "so3", "--T", "1,1,1"])
    err = capsys.readouterr().err
    assert code == 2 and "--group" in err

    code = main(["sweep", "so3", "--T1", "1", "--T2-range", "2..1",
                 "--T3", "0", "--steps", "4"])
    err = capsys.readouterr().err
    assert code == 2 and "'T2'" in err

    jobs = tmp_path / "bad.jsonl"
    jobs.write_text('{"command": "solve", "group": "so3", "T": [1, 1]}\n')
    code = main(["batch", str(jobs)])
    err = capsys.readouterr().err
    assert code == 2 and "'T'" in err

    code = main(["oracle-ricci", "so3", "--v", "1,1,1", "--g", "1,0,0,1,0,1"])
    err = capsys.readouterr().err
    assert code == 2

    code = main(["certify", "so3", "--T", "1,1,1"])
    err = capsys.readouterr().err
    assert code == 2

    code = main(["nonsense"])
    assert code == 2


def test_unwritable_out_path_is_exit_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.txt"
    assert main(["--out", str(path), "solve", "so3", "--T", "1,2,3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err.startswith(
        f"error: field 'out': cannot write {str(path)!r}: [Errno 2] No such "
        "file or directory")


@pytest.mark.parametrize("flags", [["--T", "1,2,3"], ["--v", "1,1,1"],
                                   ["--c", "2"]])
def test_certify_from_rejects_a_claim_on_the_command_line(flags, capsys):
    assert main(["certify", "so3", "--from", "/dev/null"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: field 'from': give either --from FILE or "
                            "--T, --v and --c\n")


def test_certify_bad_metric_prints_plain_numbers(capsys):
    assert main(["certify", "so3", "--T", "1,1,1", "--v", "1,-1,1",
                 "--c", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: field 'v': metric components must be positive, got "
        "(1.0, -1.0, 1.0)\n")


def test_certify_c_is_parsed_like_T_and_v(capsys):
    code = main(["certify", "so3", "--T", "1,1,1", "--v", "1,1,1",
                 "--c", "abc"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip() == "error: field 'c': non-numeric entry 'abc'"


def test_unknown_flag_is_exit_2(capsys):
    assert main(["solve", "so3", "--T", "1,1,1", "--bogus", "1"]) == 2


MALFORMED = {
    "batch-certify-nonpositive-v": (
        "batch", '{"command": "certify", "group": "so3", "T": [1, 1, 1], '
                 '"v": [1, -1, 1], "c": 2}\n'),
    "batch-solve-non-numeric-T": (
        "batch", '{"command": "solve", "group": "so3", "T": ["a", 1, 1]}\n'),
    "batch-certify-two-component-T": (
        "batch", '{"command": "certify", "group": "so3", "T": [1, 1], '
                 '"v": [1, 1, 1], "c": 2}\n'),
    "certify-from-nonpositive-v": (
        "certify --from", '{"command": "solve", "group": "so3", '
                          '"T": [1, 1, 1], "solutions": '
                          '[{"v": [1, 0, 1], "c": 2}], "family": null}\n'),
    "certify-from-non-object-solution": (
        "certify --from", '{"command": "solve", "group": "so3", '
                          '"T": [1, 1, 1], "solutions": [1]}\n'),
    "certify-from-string-solutions": (
        "certify --from", '{"command": "solve", "group": "so3", '
                          '"T": [1, 1, 1], "solutions": "x"}\n'),
    "certify-from-null-solutions": (
        "certify --from", '{"command": "solve", "group": "so3", '
                          '"T": [1, 1, 1], "solutions": null}\n'),
    "certify-from-family-without-sample": (
        "certify --from", '{"command": "solve", "group": "so3", '
                          '"T": [1, 1, 1], "solutions": [], '
                          '"family": {"c_fixed": 2}}\n'),
    "batch-certify-huge-integer-c": (
        "batch", '{"command": "certify", "group": "so3", "T": [1, 1, 1], '
                 '"v": [1, 1, 1], "c": 1' + "0" * 400 + '}\n'),
    "batch-solve-T-as-text": (
        "batch", '{"command": "solve", "group": "so3", "T": "1,1,1"}\n'),
    "batch-command-not-a-string": (
        "batch", '{"command": ["solve"], "group": "so3", "T": [1, 1, 1]}\n'),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_input_is_exit_2(name, tmp_path, capsys):
    command, content = MALFORMED[name]
    path = tmp_path / "input.jsonl"
    path.write_text(content)
    code = main(command.split() + [str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert any(line.startswith("error: field") for line in err.splitlines()), err


@pytest.mark.parametrize("lines", [[], [""], ["a"], ["a", ""], ["a", "b"],
                                   ["a\n"], ["", ""]])
def test_flush_ends_the_joined_lines_with_one_newline(lines, tmp_path,
                                                      capsys):
    expected = "\n".join(lines)
    if expected and not expected.endswith("\n"):
        expected += "\n"
    reporter = Reporter("json-lines", None)
    reporter.lines = list(lines)
    reporter.flush()
    assert capsys.readouterr().out == expected
    path = tmp_path / "out.txt"
    reporter.out_path = str(path)
    reporter.flush()
    assert path.read_bytes() == expected.encode("utf-8")


def test_input_error_writes_no_records(tmp_path, capsys):
    # the first job succeeds, the second is malformed: nothing is printed
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('{"command": "solve", "group": "so3", "T": [1, 1, 1]}\n'
                    '{"command": "solve", "group": "so3", "T": [1, 1]}\n')
    out = tmp_path / "out.jsonl"
    assert main(["--format", "json-lines", "batch", str(jobs)]) == 2
    assert capsys.readouterr().out == ""
    assert main(["--out", str(out), "batch", str(jobs)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# batch: jobs grouped per group in chunks, output in input order
# ---------------------------------------------------------------------------

BATCH_LINES = [
    '{"command": "solve", "group": "so3", "T": [10, -1, -1]}',
    '# a comment, then a blank line',
    '',
    '{"command": "classify", "group": "sl2", "T": [-3, -2, 1]}',
    '{"command": "solve", "group": "sl2", "T": [-0.1, -0.1, 0.3]}',
    '{"command": "certify", "group": "so3", "T": [1, 1, 1], "v": [1, 1, 1], "c": 1}',
    '{"command": "solve", "group": "e11", "T": [0, 0, -2]}',
    '{"command": "solve", "group": "r3", "T": [0, 0, 1]}',
    '{"command": "solve", "group": "sl2", "T": [-2, 0, 0]}',
    '{"command": "certify", "group": "h3", "T": [1, -1, -1], "v": [1, 1, 1], "c": 2}',
    '{"command": "solve", "group": "e2", "T": [0, 0, 0]}',
    '{"command": "classify", "group": "so3", "T": [8e-200, -1e-200, -1e-200]}',
    '{"command": "solve", "group": "h3", "T": [3e150, -1e150, -2e150]}',
    '{"command": "solve", "group": "so3", "T": [1, 2, 3]}',
    '{"command": "solve", "group": "e2", "T": [2, -1, -1]}',
    '{"command": "solve", "group": "sl2", "T": [-1, -1, 1]}',
]


def batch_output(path, fmt, capsys):
    code = main(["--format", fmt, "batch", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def job_record(command, group, T, claim) -> tuple[dict, bool]:
    """A parsed job (`cli._batch_job`) answered on its own by the public
    one-tensor `solve`, `classify_signature` and `certify`, its record built
    by `cli`'s record builders; and whether each certificate passed."""
    if command == "classify":
        return cli._classify_record(group, T, classify_signature(group, T)), True
    if command == "certify":
        cert = certify(group, *claim, T)
        return cli._certify_record(group, T, *claim, cert), cert.passed
    outcome = solve(group, T)
    certs = [certify(group, s.metric.v, s.c, T) for s in outcome.solutions
             + ((outcome.family.sample,) if outcome.family else ())]
    return (cli._solve_record(group, T, outcome, certs),
            all(cert.passed for cert in certs))


@pytest.mark.parametrize("fmt", ["json-lines", "text"])
def test_batch_chunks_match_job_by_job(fmt, tmp_path, capsys, monkeypatch):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(BATCH_LINES) + "\n")
    monkeypatch.setattr(cli, "BATCH_CHUNK", 3)
    grouped = []
    answer = cli._grouped_lines

    def counting(jobs, reporter, linenos=None):
        grouped.append(len(jobs))
        return answer(jobs, reporter, linenos)

    monkeypatch.setattr(cli, "_grouped_lines", counting)
    code, out, _ = batch_output(path, fmt, capsys)
    assert grouped == [3, 3, 3, 3, 2]  # every chunk took the grouped path

    def job_by_job(jobs, reporter, linenos=None):
        records = [job_record(*job) for job in jobs]
        return ([reporter.render(r) for r, _ in records],
                all([ok for _, ok in records]))

    monkeypatch.setattr(cli, "_grouped_lines", job_by_job)
    expected = batch_output(path, fmt, capsys)[:2]
    assert (code, out) == expected
    assert code == 3  # the so3 certify job fails
    if fmt == "json-lines":
        assert [r["command"] for r in jsonl(out)] == [
            json.loads(line)["command"] for line in BATCH_LINES
            if line and not line.startswith("#")]


def forbid_one_tensor_calls(monkeypatch):
    """Make `cli`'s names of the one-tensor solve, classify_signature and
    certify raise when called."""
    def scalar(*args):
        raise AssertionError("scalar path used")

    for name in ("solve", "classify_signature", "certify"):
        monkeypatch.setattr(cli, name, scalar)


def test_batch_does_not_solve_one_tensor_at_a_time(tmp_path, capsys,
                                                   monkeypatch):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(BATCH_LINES) + "\n")

    forbid_one_tensor_calls(monkeypatch)
    # a record filled into a template builds no outcome: only the one with
    # notes, SL2 (-2, 0, 0), is rendered whole from its outcome
    built = []

    def recorded(**fields):
        built.append(fields["case_label"])
        return SolveOutcome(**fields)

    monkeypatch.setattr(solver, "SolveOutcome", recorded)
    assert batch_output(path, "json-lines", capsys)[0] == 3
    assert built == ["SL2 case (vi)"]
    # the one-tensor commands are one-job chunks of the same path
    for argv, code, whole in [
            (["solve", "sl2", "--T=-2,0,0"], 0, ["SL2 case (vi)"]),
            (["solve", "so3", "--T", "10,-1,-1"], 0, []),
            (["classify", "sl2", "--T=-3,-2,1"], 0, []),
            (["certify", "so3", "--T", "1,1,1", "--v", "1,1,1", "--c", "1"],
             3, [])]:
        built.clear()
        assert main(["--format", "json-lines"] + argv) == code
        assert len(jsonl(capsys.readouterr().out)) == 1
        assert built == whole


def test_failing_line_is_found_from_its_lane(tmp_path, capsys, monkeypatch):
    # lines 4 and 7 raise in the SL2 group, whose lanes put the solve jobs
    # (lines 2, 7) before the classify job (line 4), and line 5 in the SO3
    # group: the lowest failing line, 4, names itself, from one `_columns`
    # call per group and no job answered again
    inadmissible = [1, -1.5, -0.99999999]
    lines = [GOOD,
             '{"command": "solve", "group": "sl2", "T": [-1, -1, 1]}',
             '{"command": "certify", "group": "h3", "T": [1, -1, -1], '
             '"v": [1, 1, 1], "c": 2}',
             json.dumps({"command": "classify", "group": "sl2",
                         "T": inadmissible}),
             TINY_T,
             '{"command": "solve", "group": "so3", "T": [1, 2, 3]}',
             json.dumps({"command": "solve", "group": "sl2",
                         "T": inadmissible})]

    forbid_one_tensor_calls(monkeypatch)
    answered = []
    columns = cli._columns

    def counted(group, Ts):
        answered.append(group.name)
        return columns(group, Ts)

    monkeypatch.setattr(cli, "_columns", counted)
    err = batch_error(lines, tmp_path, capsys)
    assert err.startswith("error: field 'T': root p=")
    assert "is inadmissible" in err and err.endswith(" on line 4")
    assert sorted(answered) == ["H3", "SL2", "SO3"]


FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
          2.2250738585072014e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17, 123456789.0]


@pytest.mark.parametrize("fmt", ["json-lines", "text"])
def test_template_slots_write_what_render_writes(fmt):
    # `%.17g` is `_fmt` on every finite float, subnormals and the extremes
    # too; bit patterns drawn at random cover the rest
    bits = np.random.default_rng(5).integers(0, 2**63, size=20000,
                                             dtype=np.uint64)
    drawn = [x for x in bits.view(np.float64).tolist() if np.isfinite(x)]
    assert ["%.17g" % x for x in FLOATS + drawn] == [
        cli._fmt(x) for x in FLOATS + drawn]
    # a `%` in a string field survives; _TEXT takes numbers written before
    reporter = Reporter(fmt, None)

    def record(T, c, d):
        return {"command": "100% done", "T": T, "kind": "%s %% %.17g",
                "c": c, "family": {"constraint": "50%", "c_fixed": d}}

    tpl = reporter.template("key", record([cli._TEXT], [cli._NUM] * 2,
                                          cli._NUM))
    assert reporter.templates == {"key": tpl}
    for x, y, z in zip(FLOATS, FLOATS[1:], FLOATS[2:]):
        T = (z, x, y)
        assert tpl % (",".join(map(cli._fmt, T)), x, y, z) == reporter.render(
            record(list(T), [x, y], z))


def seeded_jobs() -> list:
    """2,400 seeded (line number, job) pairs over the six groups and three
    commands, solvable shapes and Gaussian ones, each T scaled log-uniform
    in 1e+-250."""
    gen = np.random.default_rng(12)
    groups = ("so3", "sl2", "e2", "e11", "h3", "r3")
    commands = ("solve", "solve", "classify", "solve", "certify")
    jobs = []
    for i in range(2400):
        name = groups[i % 6]
        T = (random_solvable(cli.group_from_name(name), gen)
             if gen.random() < 0.75 else gen.normal(size=3))
        scale = 10.0 ** gen.uniform(-250, 250)
        job = {"command": commands[i % 5], "group": name,
               "T": [float(t) * scale for t in T]}
        if job["command"] == "certify":
            job["v"] = (10.0 ** gen.uniform(-100, 100, size=3)).tolist()
            job["c"] = float(10.0 ** gen.uniform(-100, 100))
        jobs.append((i + 1, job))
    return jobs


@pytest.mark.parametrize("threshold", [None, 5e-16])
def test_grouped_lines_equal_job_records(threshold, monkeypatch):
    """On the seeded jobs every record `_grouped_lines` writes, filled into
    a template or rendered whole, is the record `job_record` builds for
    the job alone, rendered, in both formats.  A pass threshold of 5e-16
    fails some solutions of a solve record and passes others, so `pass`
    patterns vary within shapes."""
    if threshold is not None:
        monkeypatch.setattr(verify, "PASS_THRESHOLD", threshold)
    jobs = seeded_jobs()
    reporters = [Reporter(fmt, None) for fmt in ("json-lines", "text")]
    seen = {"notes": 0, "|q| = inf": 0, "failed": 0, "solve failed": 0}
    for start in range(0, len(jobs), cli.BATCH_CHUNK):
        chunk = [cli._batch_job(lineno, job)
                 for lineno, job in jobs[start:start + cli.BATCH_CHUNK]]
        records = [job_record(*job) for job in chunk]
        for reporter in reporters:
            assert cli._grouped_lines(chunk, reporter) == (
                [reporter.render(r) for r, _ in records],
                all([ok for _, ok in records]))
        for r, ok in records:
            seen["notes"] += "notes" in r
            seen["|q| = inf"] += any(abs(t["q"]) == np.inf
                                     for t in r.get("traces", ()))
            seen["failed"] += not ok
            seen["solve failed"] += r["command"] == "solve" and any(
                not s["pass"] for s in r["solutions"])
    assert seen["notes"] and seen["|q| = inf"] and seen["failed"], seen
    assert threshold is None or seen["solve failed"], seen
    for reporter in reporters:
        keys = {key[0] for key in reporter.templates}
        assert keys == {"solve", "classify"}


def batch_error(lines, tmp_path, capsys, chunk=None, monkeypatch=None):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    if chunk is not None:
        monkeypatch.setattr(cli, "BATCH_CHUNK", chunk)
    code, out, err = batch_output(path, "json-lines", capsys)
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    return line


GOOD = '{"command": "solve", "group": "so3", "T": [1, 1, 1]}'
TINY_T = '{"command": "solve", "group": "so3", "T": [1e-310, 1e-310, 1e-310]}'


@pytest.mark.parametrize("chunk", [None, 3, 4])
def test_batch_error_in_a_later_chunk_names_its_line(chunk, tmp_path, capsys,
                                                     monkeypatch):
    lines = [GOOD] * 7 + [TINY_T] + [GOOD] * 2
    err = batch_error(lines, tmp_path, capsys, chunk, monkeypatch)
    assert err.startswith("error: field 'T': c = inf is outside the float "
                          "range")
    assert err.endswith(" on line 8")


@pytest.mark.parametrize("chunk", [None, 2])
def test_batch_first_failing_line_wins(chunk, tmp_path, capsys, monkeypatch):
    # a malformed line above an out-of-range T: the malformed line's error
    malformed = '{"command": "classify", "group": "sl2", "T": [1, "x", 1]}'
    err = batch_error([GOOD, malformed, GOOD, TINY_T], tmp_path, capsys, chunk,
                      monkeypatch)
    assert err == ("error: field 'T': non-numeric entry 'x' on line 2")
    # an out-of-range T above a malformed line, a bad metric and a line that
    # is not JSON: the T's error
    bad_v = ('{"command": "certify", "group": "so3", "T": [1, 1, 1], '
             '"v": [1, -1, 1], "c": 1}')
    err = batch_error([GOOD, TINY_T, bad_v, malformed, "{oops"], tmp_path,
                      capsys, chunk, monkeypatch)
    assert err.startswith("error: field 'T': c = inf")
    assert err.endswith(" on line 2")
    err = batch_error([GOOD, bad_v, TINY_T], tmp_path, capsys, chunk,
                      monkeypatch)
    assert err.startswith("error: field 'v': metric components must be "
                          "positive")
    assert err.endswith(" on line 2")


@pytest.mark.parametrize("argv", [
    ["solve", "so3", "--T", "1e-310,1e-310,1e-310"],
    ["classify", "sl2", "--T=-1e-310,-2e-310,3e-310"],
    ["solve", "e11", "--T=0,0,-1e-310"],
])
def test_t_outside_the_float_range_is_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: field 'T': c = ")
    assert "outside the float range" in captured.err


def test_unreadable_job_files(tmp_path, capsys):
    good = (GOOD + "\n").encode()
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(good * 300 + b'{"command": "solve", "T": [1, \xff1]}\n'
                     + good)
    code, out, err = batch_output(path, "json-lines", capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: field 'jobs': cannot read {str(path)!r}: "
                          "'utf-8' codec can't decode byte 0xff")
    path.write_text(GOOD + '\n{"a": ' + "[" * 100000 + "]" * 100000 + "}\n")
    code, out, err = batch_output(path, "json-lines", capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: field 'jobs': line 2 is not valid JSON: "
                          "maximum recursion depth exceeded")
    code, out, err = batch_output(tmp_path / "missing.jsonl", "json-lines",
                                  capsys)
    assert code == 2 and err.startswith("error: field 'jobs': cannot read")


def test_certify_overflowing_claim_warns_nothing(capsys):
    # a metric that overflows both curvature routes fails with residuals
    # inf (json null) and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(capsys, "--format", "json-lines", "certify", "so3",
                        "--T", "1,1,1", "--v", "1e200,1e-100,1e-100",
                        "--c", "1")
    assert code == 3
    (rec,) = jsonl(out)
    assert rec["pass"] is False
    assert rec["residual_closed_form"] is None
    assert rec["residual_oracle"] is None


# ---------------------------------------------------------------------------
# certify --from: the claims of solve records as batch certify jobs
# ---------------------------------------------------------------------------

def certify_each_claim(path, fmt, out_path):
    """The parent form of `certify --from`: each claim of each solve record
    certified on its own by the one-lane `certify`, then the summary."""
    reporter = Reporter(fmt, str(out_path))
    ok = True
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["command"] != "solve":
            continue
        group = cli.group_from_name(rec["group"])
        T = tuple(map(float, rec["T"]))
        claims = rec["solutions"] + ([rec["family"]["sample"]]
                                     if rec["family"] else [])
        for s in claims:
            v, c = tuple(map(float, s["v"])), float(s["c"])
            record = cli._certify_record(group, T, v, c,
                                         cli.certify(group, v, c, T))
            ok = ok and record["pass"]
            reporter.emit(record)
    reporter.emit({"command": "certify-summary",
                   "checked": len(reporter.lines), "all_passed": ok})
    reporter.flush()
    return 0 if ok else 3


@pytest.mark.parametrize("threshold", [None, 5e-16])
def test_certify_from_equals_each_claim_certified(threshold, tmp_path,
                                                  capsys, monkeypatch):
    # the seeded jobs' batch output: notes, |q| = inf and, at 5e-16, failing
    # claims; its classify and certify records are skipped
    if threshold is not None:
        monkeypatch.setattr(verify, "PASS_THRESHOLD", threshold)
    jobs, solved = tmp_path / "jobs.jsonl", tmp_path / "solved.jsonl"
    jobs.write_text("".join(json.dumps(job) + "\n"
                            for _, job in seeded_jobs()))
    assert main(["--format", "json-lines", "--out", str(solved), "batch",
                 str(jobs)]) in (0, 3)
    for fmt in ("json-lines", "text"):
        ref = tmp_path / f"ref.{fmt}"
        code = certify_each_claim(solved, fmt, ref)
        assert (code == 0) == (threshold is None)
        for chunk in (512, 3):
            monkeypatch.setattr(cli, "BATCH_CHUNK", chunk)
            got = tmp_path / f"got.{fmt}.{chunk}"
            assert main(["--format", fmt, "--out", str(got), "certify",
                         "--from", str(solved)]) == code
            assert got.read_bytes() == ref.read_bytes()


def claim_record(sols=(), group="so3", T=(1, 1, 1), family=None):
    return json.dumps({"command": "solve", "group": group, "T": list(T),
                       "solutions": [{"v": v, "c": c} for v, c in sols],
                       "family": family})


GOOD_RECORD = claim_record([([1, 1, 1], 2.0)])
BAD_LAYOUT = ('{"command": "solve", "group": "so3", "T": [1, 1, 1], '
              '"solutions": "x"}')
NOT_POSITIVE = ("error: field 'v': metric components must be positive, got "
                "(1.0, {}, 1.0) on line 2")

PRECEDENCE = {
    # a bad v on line 2 beats the layout error on line 3
    "bad-v-before-layout": (
        [GOOD_RECORD, claim_record([([1, -1, 1], 2.0)]), BAD_LAYOUT],
        NOT_POSITIVE.format("-1.0")),
    "non-numeric-v-before-layout": (
        [GOOD_RECORD, claim_record([([1, "x", 1], 2.0)]), BAD_LAYOUT],
        "error: field 'v': non-numeric entry 'x' on line 2"),
    # the second claim of line 2 is bad
    "second-claim": (
        [GOOD_RECORD, claim_record([([1, 1, 1], 2.0), ([1, 0, 1], 2.0)]),
         GOOD_RECORD], NOT_POSITIVE.format("0.0")),
    "family-sample": (
        [GOOD_RECORD, claim_record([([1, 1, 1], 2.0)], family={
            "sample": {"v": [1, 1], "c": 2.0}}), GOOD_RECORD],
        "error: field 'v': expected a list of 3 numbers, got [1, 1] on "
        "line 2"),
    # the solutions are claimed before the family sample
    "solution-before-family-sample": (
        [GOOD_RECORD, claim_record([([1, 0, 1], 2.0)], family={
            "sample": {"v": [1, 1], "c": 2.0}})], NOT_POSITIVE.format("0.0")),
    # a NoSolution record has no claims, yet its group is checked
    "bad-group-no-solution": (
        [GOOD_RECORD, claim_record(group="xx3", T=(0, 0, 1))],
        "error: field 'group': unknown group 'xx3'; expected one of ['e11', "
        "'e2', 'h3', 'r3', 'sl2', 'so3'] on line 2"),
    # a bad claim beats a later line that is not JSON
    "bad-claim-before-non-json": (
        [GOOD_RECORD, claim_record([([1, -1, 1], 2.0)]), "{oops"],
        NOT_POSITIVE.format("-1.0")),
}


@pytest.mark.parametrize("chunk", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(PRECEDENCE))
def test_certify_from_first_failing_line_wins(name, chunk, tmp_path, capsys,
                                              monkeypatch):
    lines, expected = PRECEDENCE[name]
    path = tmp_path / "solved.jsonl"
    path.write_text("\n".join(lines) + "\n")
    if chunk is not None:
        monkeypatch.setattr(cli, "BATCH_CHUNK", chunk)
    code = main(["--format", "json-lines", "certify", "--from", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.splitlines() == [expected]


@pytest.mark.parametrize("fmt, summary", [
    ("json-lines",
     '{"command":"certify-summary","checked":0,"all_passed":true}\n'),
    ("text", "command: certify-summary\nchecked: 0\nall_passed: true\n")])
@pytest.mark.parametrize("content", [
    "", "# a comment\n\n",
    '{"command": "classify", "group": "so3", "T": [1, 1, 1]}\n'
    '{"command": "certify"}\n',
    claim_record(group="r3", T=(0, 0, 1)) + "\n" + claim_record() + "\n"],
    ids=["empty", "comments", "not-solve", "no-solution"])
def test_certify_from_without_claims_writes_the_summary(content, fmt, summary,
                                                        tmp_path, capsys):
    path = tmp_path / "solved.jsonl"
    path.write_text(content)
    assert main(["--format", fmt, "certify", "--from", str(path)]) == 0
    assert capsys.readouterr().out == summary


def test_certify_from_does_not_certify_one_claim_at_a_time(tmp_path, capsys,
                                                           monkeypatch):
    jobs, solved = tmp_path / "jobs.jsonl", tmp_path / "solved.jsonl"
    jobs.write_text("\n".join(BATCH_LINES) + "\n")
    assert main(["--format", "json-lines", "--out", str(solved), "batch",
                 str(jobs)]) == 3  # its so3 certify job fails

    def scalar(*args):
        raise AssertionError("scalar path used")

    monkeypatch.setattr(cli, "certify", scalar)
    code, out = run(capsys, "--format", "json-lines", "certify", "--from",
                    str(solved))
    assert code == 0
    assert jsonl(out)[-1] == {"command": "certify-summary", "checked": 10,
                              "all_passed": True}
