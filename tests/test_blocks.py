"""``scan`` and ``check`` evaluate their grid in blocks of ``cli._WRITE_BLOCK``
points: every output is the same for any block size, a command gives at
most one ``ConditioningWarning``, and the traced memory of a grid stays
bounded however many blocks it has."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from thermocurv import cli, potential_to_json
from thermocurv.catalog import GridAxis
from thermocurv.cli import evaluate_points, main
from thermocurv.jets import ConditioningWarning
from thermocurv.potentials import POINTWISE_MAX

from test_batch import MIXED

# 11 x 373 = 4096 + 7 points: at the default block size the tail would hold
# 7 points, and at 43 it would hold 18, both at most POINTWISE_MAX
TAIL_GRIDS = {
    "reissner-nordstrom": ["--grid", "S=0.5:10:11:log", "--grid", "Q=0.05:1.5:373"],
    "kerr": ["--grid", "S=1:10:11:log", "--grid", "J=0.05:0.45:373"],
    "quadratic-toy": ["--grid", "S=0.5:4:11", "--grid", "X=0.5:4:373"],
}


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
    sizes = []
    original = cli.evaluate_points
    monkeypatch.setattr(cli, "evaluate_points",
                        lambda spec, s, x, eps: sizes.append(len(s)) or original(spec, s, x, eps))
    expected = outputs(capsys, tmp_path, catalog, grid)
    assert sizes == [n] * 3     # at the default size, a tail of 7 joins the block
    for block in (43, 100, n):
        monkeypatch.setattr(cli, "_WRITE_BLOCK", block)
        sizes.clear()
        assert outputs(capsys, tmp_path, catalog, grid) == expected, block
        # each of scan csv, scan json and check sees the same blocks, all
        # above POINTWISE_MAX, so no point changes evaluation path
        third = sizes[:len(sizes) // 3]
        assert sizes == third * 3 and sum(third) == n
        assert min(third) > POINTWISE_MAX and max(third) <= block + POINTWISE_MAX


def test_a_blocked_command_warns_once_for_all_its_blocks(tmp_path, monkeypatch):
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
    for argv in (["scan", "--out", str(tmp_path / "scan.csv")], ["check"]):
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
