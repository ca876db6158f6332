"""``scan`` and ``check`` evaluate their grid in blocks of ``cli._WRITE_BLOCK``
points: every output is the same for any block size, a command gives at
most one ``ConditioningWarning``, and the traced memory of a grid stays
bounded however many blocks it has.  A CSV ``scan`` of two or more blocks to
a file descriptor forks a child that writes every other block in its turn,
and a ``check`` of two or more blocks forks a child that sums up every other
block; each of their outputs is compared with the same run with ``os.fork``
removed, which stays in one process."""

import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from thermocurv import cli, potential_to_json
from thermocurv.catalog import GridAxis
from thermocurv.cli import evaluate_points, main
from thermocurv.jets import ConditioningWarning

from test_batch import MIXED

# 11 x 373 = 4096 + 7 points: at the default block size the last block holds
# 7 points, and at 43 it holds 18
TAIL_GRIDS = {
    "reissner-nordstrom": ["--grid", "S=0.5:10:11:log", "--grid", "Q=0.05:1.5:373"],
    "kerr": ["--grid", "S=1:10:11:log", "--grid", "J=0.05:0.45:373"],
    "quadratic-toy": ["--grid", "S=0.5:4:11", "--grid", "X=0.5:4:373"],
}


@pytest.fixture
def deadline():
    """Fails a test still running after 60 s, as a scan waiting for a child
    blocked on a full pipe would be, instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError("the scan did not return within 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def count_forks(monkeypatch) -> list:
    """The forks ``cli`` makes from now on, one item each."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outputs(capsys, tmp_path, catalog, grid):
    """The scan CSV, JSON and sidecar bytes and the check stdout."""
    found = []
    for fmt in ("csv", "json"):
        path = tmp_path / f"scan.{fmt}"
        assert main(["scan", "--catalog", catalog, *grid, "--format", fmt,
                     "--out", str(path)]) == 0
        found.append(path.read_bytes())
    found.append((tmp_path / "scan.csv.meta.json").read_bytes())
    assert main(["check", "--catalog", catalog, *grid]) == 0
    found.append(capsys.readouterr().out)
    return found


@pytest.mark.parametrize("catalog", sorted(TAIL_GRIDS))
@pytest.mark.parametrize("tail", [False, True])
def test_outputs_do_not_depend_on_the_block_size(catalog, tail, capsys, tmp_path, monkeypatch):
    grid = TAIL_GRIDS[catalog] if tail else []
    n = 11 * 373 if tail else 12 * 12 if catalog != "quadratic-toy" else 8 * 8
    with monkeypatch.context() as serial:   # the sizes bookkeeping sees this process only
        serial.delattr(os, "fork")
        sizes = []
        original = cli.evaluate_points
        serial.setattr(cli, "evaluate_points",
                       lambda spec, s, x, eps: sizes.append(len(s)) or original(spec, s, x, eps))
        expected = outputs(capsys, tmp_path, catalog, grid)
        assert sizes == ([4096, 7] if tail else [n]) * 3
        for block in (43, 100, n):
            serial.setattr(cli, "_WRITE_BLOCK", block)
            sizes.clear()
            assert outputs(capsys, tmp_path, catalog, grid) == expected, block
            # each of scan csv, scan json and check sees the same blocks
            third = sizes[:len(sizes) // 3]
            assert sizes == third * 3 and sum(third) == n and max(third) <= block
    for block in (43, 100, n):      # and with a forked child for every other block
        monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
        assert outputs(capsys, tmp_path, catalog, grid) == expected, block


def test_a_blocked_command_warns_once_for_all_its_blocks(tmp_path, monkeypatch, deadline):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(potential_to_json(MIXED)), encoding="utf-8")
    # S - 2 is zero on the middle row and below the conditioning floor on
    # the other four, so 240 of the 300 points are ill-conditioned
    grid = ["--grid", "S=1.9999999999995:2.0000000000005:5", "--grid", "X=0.25:3:60"]
    svals = GridAxis(1.9999999999995, 2.0000000000005, 5).values()
    s, x = np.repeat(svals, 60), np.tile(GridAxis(0.25, 3.0, 60).values(), 5)
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 37)

    def messages(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        return [str(w.message) for w in caught if w.category is ConditioningWarning]

    whole = messages(lambda: evaluate_points(MIXED, s, x))
    assert len(whole) == 1 and "division by small values at" in whole[0]
    warned_blocks = sum(bool(messages(lambda: evaluate_points(MIXED, s[a:a + 37], x[a:a + 37])))
                        for a in range(0, 300, 37))
    assert warned_blocks >= 3
    scan = ["scan", "--out", str(tmp_path / "scan.csv")]
    forks = count_forks(monkeypatch)
    for argv in (scan, ["check"]):
        assert messages(lambda: main([*argv, "--potential-file", str(path), *grid])) == whole
    assert len(forks) == 2      # each command's 8 blocks ran in two processes, and in one:
    monkeypatch.delattr(os, "fork")
    for argv in (scan, ["check"]):
        assert messages(lambda: main([*argv, "--potential-file", str(path), *grid])) == whole


# the tracemalloc peak of a grid of more than 10 blocks; measured at about
# 6.4 MB (scan) and 3.3 MB (check), against 26 MB for one whole-grid pass
PEAK_BOUND_MB = 13.0


@pytest.mark.parametrize("argv", [["scan", "--out", "{tmp}/rn.csv"], ["check"]])
def test_a_grid_of_many_blocks_has_a_bounded_memory_peak(argv, capsys, tmp_path):
    grid = ["--grid", "S=0.5:10:160:log", "--grid", "Q=0.05:1.5:300"]
    assert 160 * 300 > 10 * cli._WRITE_BLOCK
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--catalog", "reissner-nordstrom"]
    assert main([*argv, "--grid", "S=1:2:3", "--grid", "Q=0.1:0.2:3"]) == 0   # warm caches
    tracemalloc.start()
    try:
        assert main([*argv, *grid]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak / 1e6 < PEAK_BOUND_MB


def mixed_source(tmp_path) -> list[str]:
    """MIXED on a 60 x 40 grid whose rows fail in every way: 40 ``err:domain``
    (S <= 0), 97 ``err:overflow`` and 1,503 ``overflow:cells``."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(potential_to_json(MIXED)), encoding="utf-8")
    return ["--potential-file", str(path), "--grid", "S=-1:2200:60", "--grid", "X=0.25:3:40"]


# 4,103 points in 5 or 2 blocks, and MIXED's 2,400 in 3 or 2
@pytest.mark.parametrize("block", [1000, 2051])
@pytest.mark.parametrize("case", [*sorted(TAIL_GRIDS), "mixed"])
def test_a_split_scan_writes_the_bytes_of_one_process(case, block, capfd, tmp_path,
                                                      monkeypatch, deadline):
    source = mixed_source(tmp_path) if case == "mixed" else ["--catalog", case,
                                                             *TAIL_GRIDS[case]]
    monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
    path = tmp_path / "scan.csv"

    def run():      # the file, its sidecar and the same scan to stdout, a file descriptor
        assert main(["scan", *source, "--out", str(path)]) == 0
        assert main(["scan", *source]) == 0
        sidecar = tmp_path / "scan.csv.meta.json"
        return path.read_bytes(), sidecar.read_bytes(), capfd.readouterr()

    forks = count_forks(monkeypatch)
    split = run()
    assert len(forks) == 2
    assert_no_child_left()
    if case == "mixed":
        text = split[0].decode()
        assert all(token in text for token in ("err:domain", "err:overflow", "overflow:cells"))
    monkeypatch.delattr(os, "fork")
    assert run() == split


def test_a_split_scan_to_standard_output_is_the_file(capfd, tmp_path, monkeypatch, deadline):
    # 2 blocks, so a scan to a file descriptor forks; standard output takes the
    # bytes through its buffer, and a stream without one (an io.StringIO) takes
    # them decoded, in one process
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 200)
    argv = ["scan", "--catalog", "kerr", "--grid", "S=1:10:20:log", "--grid", "J=0.05:0.45:20"]
    forks = count_forks(monkeypatch)
    path = tmp_path / "scan.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert main(argv) == 0
    assert capfd.readouterr().out.encode() == path.read_bytes()
    assert len(forks) == 2
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(argv) == 0
    assert not hasattr(text, "buffer") and text.getvalue().encode() == path.read_bytes()
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("writes", [1, 2, 3])    # leaves at the first block, the child's, the next
def test_a_split_scan_leaves_no_child_when_its_reader_leaves(writes, tmp_path, monkeypatch,
                                                             deadline):
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1000)
    argv = ["scan", "--catalog", "kerr", *TAIL_GRIDS["kerr"]]
    path = tmp_path / "scan.csv"
    assert main([*argv, "--out", str(path)]) == 0
    lines = path.read_bytes().splitlines(keepends=True)
    # the header, the blocks before the one the reader leaves in, and half of that one:
    # a block of 1,000 rows is larger than a pipe holds, so its writer is still writing
    size = sum(map(len, lines[:1 + (writes - 1) * 1000 + 500]))
    read, write = os.pipe()
    reader = subprocess.Popen([sys.executable, "-c", f"import sys; sys.stdin.buffer.read({size})"],
                              stdin=read)
    os.close(read)      # the reader's end is its own, so the writer sees it leave
    stdout = io.TextIOWrapper(open(write, "wb"), encoding="ascii", newline="")
    forks = count_forks(monkeypatch)
    try:
        with contextlib.redirect_stdout(stdout):
            assert main(argv) == 0
    finally:
        with contextlib.suppress(BrokenPipeError):     # what the scan could not write
            stdout.close()
        assert reader.wait(timeout=60) == 0
    assert len(forks) == 1
    assert_no_child_left()
    with pytest.warns(ConditioningWarning, match="at 3 points"):   # no count was left open
        evaluate_points(MIXED, [2.0 + 1e-13, 2.0 - 1e-13, 2.0 + 2e-13, 3.0], [1.0] * 4)


def test_a_scan_whose_output_cannot_be_opened_forks_no_child(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1000)
    forks = count_forks(monkeypatch)
    out = tmp_path / "missing" / "scan.csv"
    assert main(["scan", "--catalog", "kerr", *TAIL_GRIDS["kerr"], "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not forks
    assert_no_child_left()


def test_a_command_that_cannot_fork_runs_in_one_process(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1000)
    argv = [["scan", "--catalog", "kerr", *TAIL_GRIDS["kerr"], "--out", str(tmp_path / "s.csv")],
            ["check", "--catalog", "kerr", *TAIL_GRIDS["kerr"]]]

    def run():      # the scan's file and the check's report
        assert [main(args) for args in argv] == [0, 0]
        return (tmp_path / "s.csv").read_bytes(), capsys.readouterr()

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    with monkeypatch.context() as serial:
        serial.delattr(os, "fork")
        expected = run()
    monkeypatch.setattr(os, "fork", fork)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    assert run() == expected
    assert fds is None or len(os.listdir("/proc/self/fd")) == len(fds)     # no pipe left open


def fail_the_child(fault: str, monkeypatch) -> None:
    """Blocks of 1,000 points, and a forked child that raises in its first block, exits
    with status 0 before its second, or exits nonzero after its last message."""
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1000)
    parent, original, exit_ = os.getpid(), cli.evaluate_points, os._exit

    child_blocks = []

    def evaluate(spec, s, x, eps):  # the child has 2 of the 5 blocks
        if os.getpid() != parent:
            child_blocks.append(len(s))
            if fault == "raises":
                raise MemoryError
            if fault == "exits-early" and len(child_blocks) == 2:   # a scan's first block sent
                exit_(0)
        return original(spec, s, x, eps)
    monkeypatch.setattr(cli, "evaluate_points", evaluate)
    if fault == "exits-nonzero":     # after its every message
        monkeypatch.setattr(os, "_exit", lambda code: exit_(code or 3))


FAULTS = ["raises", "exits-early", "exits-nonzero"]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failing_child_fails_the_scan(fault, capsys, tmp_path, monkeypatch, deadline):
    fail_the_child(fault, monkeypatch)
    path = tmp_path / "scan.csv"
    assert main(["scan", "--catalog", "kerr", *TAIL_GRIDS["kerr"], "--out", str(path)]) == 2
    assert "forked scan process" in capsys.readouterr().err
    assert path.exists() and not (tmp_path / "scan.csv.meta.json").exists()
    assert_no_child_left()


def test_a_child_that_cannot_write_says_why(capfd, tmp_path, monkeypatch, deadline):
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1000)
    parent, original = os.getpid(), cli._csv_chunks

    def chunks(c, flags):
        if os.getpid() != parent:
            raise OSError(28, "No space left on device")
        return original(c, flags)
    monkeypatch.setattr(cli, "_csv_chunks", chunks)
    path = tmp_path / "scan.csv"
    assert main(["scan", "--catalog", "kerr", *TAIL_GRIDS["kerr"], "--out", str(path)]) == 2
    assert capfd.readouterr().err.splitlines() == [
        "error: [Errno 28] No space left on device",
        "error: the forked scan process failed (wait status 256)"]
    assert not (tmp_path / "scan.csv.meta.json").exists()
    assert_no_child_left()


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failing_child_fails_the_check(fault, capfd, monkeypatch, deadline):
    fail_the_child(fault, monkeypatch)
    forks = count_forks(monkeypatch)
    assert main(["check", "--catalog", "kerr", *TAIL_GRIDS["kerr"]]) == 2
    captured = capfd.readouterr()
    assert captured.out == "" and len(forks) == 1      # no report
    assert captured.err.startswith("error: the forked check process failed")
    assert_no_child_left()


GRID_200 = {"kerr": ["--grid", "S=1:10:200:log", "--grid", "J=0.05:0.45:200"],
            "reissner-nordstrom": ["--grid", "S=0.5:10:200:log", "--grid", "Q=0.05:1.5:200"]}
# a reference that is inf at 2 of MIXED's checked points, both in block 17 of 43
# points, a child's: their residual is nan, and so is its maximum
NAN_REF = ["--ref-rm", "1e308 * exp(S - 705 - 1000*(X - 1)^2)"]
# undefined from S = 5 on: the first such point is in block 1 of 1,000, the child's
LATE_DOMAIN_ERROR = ["--grid", "S=0.5:10:50:log", "--grid", "Q=0.05:1.5:50",
                     "--ref-rm", "ln(5 - S)"]


# the default grids in blocks of 43 (4 and 2 blocks), the 200 x 200 grids in the
# default blocks (10), MIXED's 2,400 points in 56, 3 and 2 and RN's 2,500 in 3
@pytest.mark.parametrize("case, block", [*((name, 43) for name in sorted(TAIL_GRIDS)),
                                         *((name, 4096) for name in sorted(GRID_200)),
                                         ("mixed", 43), ("mixed", 1000), ("mixed", 2051),
                                         ("domain-error", 1000)])
def test_a_split_check_prints_the_bytes_of_one_process(case, block, capfd, tmp_path,
                                                       monkeypatch, deadline):
    if case == "mixed":
        argv = ["check", *mixed_source(tmp_path), *NAN_REF]
    elif case == "domain-error":
        argv = ["check", "--catalog", "reissner-nordstrom", *LATE_DOMAIN_ERROR]
    else:
        argv = ["check", "--catalog", case, *GRID_200.get(case, [])]
    monkeypatch.setattr(cli, "_WRITE_BLOCK", block)

    def run():      # the exit code, standard output and standard error
        return main(argv), *capfd.readouterr()

    forks = count_forks(monkeypatch)
    split = run()
    assert len(forks) == 1
    assert_no_child_left()
    # its child writes nothing, so a standard output without a file descriptor splits too
    with contextlib.redirect_stdout(text := io.StringIO()):
        assert main(argv) == split[0]
    assert (text.getvalue(), capfd.readouterr().err, len(forks)) == (*split[1:], 2)
    assert_no_child_left()
    if case == "mixed":
        assert split[0] == 1 and "FAIL  golden:RM                  max residual nan" in split[1]
    if case == "domain-error":
        assert split[:2] == (2, "") and split[2].startswith("error: ln undefined for value -0.1")
    monkeypatch.delattr(os, "fork")
    assert run() == split


