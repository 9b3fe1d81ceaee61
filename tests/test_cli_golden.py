"""Byte-for-byte CLI transcripts.

Each `tests/golden/<name>.txt` file is the transcript of one list of CLI
invocations: a `$ argv` line, an `exit N` line, then the exact stdout.
`{golden}` in an argument stands for the `tests/golden/` directory, which
also holds the input files (`certify-from.jsonl`, `batch-jobs.jsonl`).
"""
from pathlib import Path

import pytest

from prescribed_ricci.cli import main

GOLDEN = Path(__file__).parent / "golden"

# one tensor per case row of every group, "none" rows included
SOLVE_T = [
    ("so3", "1,1,1"), ("so3", "2,0,0"), ("so3", "8,-1,-1"),
    ("so3", "10,-1,-1"), ("so3", "4,-1,-1"), ("so3", "-1,-1,-1"),
    ("sl2", "3,-1,-1"), ("sl2", "-1,3,-1"), ("sl2", "-1,-2,3"),
    ("sl2", "-3,-2,1"), ("sl2", "-1,-1,1"), ("sl2", "-2,0,0"),
    ("sl2", "0,-2,0"), ("sl2", "1,1,1"),
    ("e2", "0,0,0"), ("e2", "2,-1,-1"), ("e2", "-1,2,-1"), ("e2", "1,1,1"),
    ("e11", "0,0,-2"), ("e11", "2,-1,-1"), ("e11", "-1,2,-1"),
    ("e11", "1,1,1"),
    ("h3", "1,-1,-1"), ("h3", "1,1,1"),
    ("r3", "0,0,0"), ("r3", "0,0,1"),
]

JSONL = ["--format", "json-lines"]

CASES = {
    "solve-text": [["solve", g, "--T", T] for g, T in SOLVE_T],
    "solve-json-lines": [JSONL + ["solve", g, "--T", T] for g, T in SOLVE_T],
    "certify": [
        ["certify", "sl2", "--T", "-1,-1,1", "--v", "1,1,2", "--c", "8"],
        JSONL + ["certify", "so3", "--T", "1,1,1", "--v", "1,1,1", "--c", "1"],
        ["certify", "--from", "{golden}/certify-from.jsonl"],
        JSONL + ["certify", "--from", "{golden}/certify-from.jsonl"],
    ],
    "classify": [JSONL + ["classify", g, "--T", T] for g, T in SOLVE_T]
                + [["classify", "so3", "--T", "10,-1,-1"]],
    "sweep": [
        ["sweep", "so3", "--T1", "10", "--T2-range=-2..0",
         "--T3-range=-2..0", "--steps", "5"],
        JSONL + ["sweep", "so3", "--T1", "10", "--T2-range=-2..0",
                 "--T3-range=-2..0", "--steps", "5"],
    ],
    "oracle-ricci": [
        ["oracle-ricci", "sl2", "--v", "1,2,3"],
        JSONL + ["oracle-ricci", "h3", "--v", "1,1,1"],
        ["oracle-ricci", "so3", "--g", "2,0.3,0,1,0,1.5"],
        JSONL + ["oracle-ricci", "e11", "--g", "1,0.1,0.2,2,0.3,3"],
    ],
    "batch": [
        ["batch", "{golden}/batch-jobs.jsonl"],
        JSONL + ["batch", "{golden}/batch-jobs.jsonl"],
    ],
}


def transcript(invocations, capsys) -> str:
    chunks = []
    for argv in invocations:
        code = main([a.replace("{golden}", str(GOLDEN)) for a in argv])
        chunks.append(f"$ {' '.join(argv)}\nexit {code}\n"
                      f"{capsys.readouterr().out}")
    return "".join(chunks)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, capsys):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert transcript(CASES[name], capsys).encode("utf-8") == expected
