import json
import warnings

import numpy as np
import pytest

from prescribed_ricci.cli import Reporter, main


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
