"""`sweep` and `batch` write each chunk's records before they answer the
next chunk: the memory a command takes is bounded by the chunk, not by the
output, and an unwritable --out fails at the first chunk."""
import gc
import json
import tracemalloc

from prescribed_ricci import cli

GROUPS = ("so3", "sl2", "e2", "e11", "h3", "r3")


def write_jobs(path, count):
    """count solve, classify and certify jobs over the six groups."""
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(count):
            job = {"command": ("solve", "classify", "solve", "certify")[i % 4],
                   "group": GROUPS[i % 6],
                   "T": [1.0 + i % 7, -(1.0 + i % 5) / 3, -(1.0 + i % 3) / 2]}
            if job["command"] == "certify":
                job["v"], job["c"] = [1.0, 1.0 + i % 2, 1.0], 1.0
            fh.write(json.dumps(job) + "\n")


def peak(argv) -> int:
    """The peak of the memory `cli.main(argv)` allocates, in bytes, from a
    collector that has just run: a full collection landing inside one run
    would raise its peak by the garbage it had not yet freed."""
    gc.collect()
    tracemalloc.start()
    try:
        assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CERT_FAILURE)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sweep_argv(out, steps):
    return ["--format", "json-lines", "--out", str(out), "sweep", "so3",
            "--T1", "10", "--T2-range=-2..0", "--T3-range=-2..0",
            "--steps", str(steps)]


def test_batch_memory_is_bounded_by_the_chunk(tmp_path):
    small, large = tmp_path / "small.jsonl", tmp_path / "large.jsonl"
    write_jobs(small, 1024)
    write_jobs(large, 10240)
    out = tmp_path / "out.jsonl"
    argv = ["--format", "json-lines", "--out", str(out), "batch"]
    cli.main(argv + [str(small)])  # imports and caches outside the peaks
    low = peak(argv + [str(small)])
    high = peak(argv + [str(large)])
    assert len(out.read_text().splitlines()) == 10240
    assert high <= 1.25 * low, (low, high)


def test_sweep_memory_is_bounded_by_the_chunk(tmp_path):
    out = tmp_path / "out.jsonl"
    cli.main(sweep_argv(out, 64))
    low = peak(sweep_argv(out, 64))
    high = peak(sweep_argv(out, 200))
    assert len(out.read_text().splitlines()) == 200 * 200 + 1
    assert high <= 1.25 * low, (low, high)


def test_unwritable_out_fails_at_the_first_chunk(tmp_path, capsys,
                                                 monkeypatch):
    # 90,000 points, 88 chunks: the output is opened when the first chunk
    # is written, so the command stops after one `_columns` call
    answered = []
    columns = cli._columns

    def counted(group, Ts):
        answered.append(len(Ts))
        return columns(group, Ts)

    monkeypatch.setattr(cli, "_columns", counted)
    path = tmp_path / "missing" / "x.jsonl"
    assert cli.main(sweep_argv(path, 300)) == cli.EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and not path.exists()
    assert captured.err.startswith(
        f"error: field 'out': cannot write {str(path)!r}: [Errno 2] No such "
        "file or directory")
    assert answered == [cli.CHUNK]


def test_out_is_cut_to_what_was_written(tmp_path, capsys, monkeypatch):
    # --out is opened without truncation (which would wait for the
    # writeback of the file's previous contents) and cut at the close
    fresh, reused = tmp_path / "fresh.jsonl", tmp_path / "reused.jsonl"
    assert cli.main(sweep_argv(fresh, 64)) == cli.EXIT_OK
    reused.write_text("x" * (3 * fresh.stat().st_size), encoding="utf-8")
    assert cli.main(sweep_argv(reused, 64)) == cli.EXIT_OK
    assert reused.read_bytes() == fresh.read_bytes()
    # a command that fails after its first chunk: the chunks written, whole
    jobs = tmp_path / "jobs.jsonl"
    write_jobs(jobs, 3)
    with open(jobs, "a", encoding="utf-8") as fh:
        fh.write("{oops\n")
    monkeypatch.setattr(cli, "BATCH_CHUNK", 2)
    argv = ["--format", "json-lines", "--out"]
    assert cli.main(argv + [str(fresh), "batch", str(jobs)]) == 2
    assert cli.main(argv + [str(reused), "batch", str(jobs)]) == 2
    assert capsys.readouterr().err.count("line 4 is not valid JSON") == 2
    assert reused.read_bytes() == fresh.read_bytes()
    assert len(fresh.read_text().splitlines()) == 2


def test_out_that_is_not_a_regular_file_is_written():
    assert cli.main(sweep_argv("/dev/null", 4)) == cli.EXIT_OK


def test_out_that_is_the_input_file_is_refused(tmp_path, capsys,
                                                monkeypatch):
    # records written to the file being read would overwrite the lines
    # not read yet: the command exits 2 before it answers a job
    answered, columns = [], cli._columns
    monkeypatch.setattr(cli, "_columns", lambda group, Ts: answered.append(
        len(Ts)) or columns(group, Ts))
    monkeypatch.setattr(cli, "BATCH_CHUNK", 2)
    jobs, records = tmp_path / "jobs.jsonl", tmp_path / "records.jsonl"
    write_jobs(jobs, 8)
    records.write_text("\n".join(json.dumps(
        {"command": "solve", "group": "so3", "T": [1.0, 1.0, 1.0],
         "solutions": [{"v": [1.0, 1.0, 1.0], "c": 2.0}]})
        for _ in range(8)) + "\n", encoding="utf-8")
    for path, command in ((jobs, ["batch", str(jobs)]),
                          (records, ["certify", "--from", str(records)])):
        link = tmp_path / f"link-{path.name}"
        link.hardlink_to(path)
        before = path.read_bytes()
        for out in (path, link):
            argv = ["--format", "json-lines", "--out", str(out)] + command
            assert cli.main(argv) == cli.EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: field 'out': {str(out)!r} is "
                                    f"the input file {str(path)!r}\n")
            assert path.read_bytes() == before
    assert answered == []
