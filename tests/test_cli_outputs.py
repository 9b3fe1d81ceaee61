"""`scripts/cli_outputs.py` writes each command's output, stderr and exit
code for a seed, the probe reports included; run here for seed 1."""
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_outputs.py"
NAMES = ("batch.jsonl", "batch.txt", "sweep.jsonl", "sweep.txt",
         "certify-from.jsonl", "probe.json")


def test_every_command_runs_and_leaves_its_files(tmp_path):
    subprocess.run([sys.executable, str(SCRIPT), str(tmp_path), "1"],
                   check=True)
    assert (tmp_path / "1-jobs.jsonl").stat().st_size > 0
    for name in NAMES:
        out = tmp_path / f"1-{name}"
        assert out.stat().st_size > 0, name
        assert (tmp_path / f"1-{name}.code").read_text() == "0\n", name
        assert (tmp_path / f"1-{name}.err").read_bytes() == b"", name
    assert len(list(tmp_path.iterdir())) == 1 + 3 * len(NAMES)
