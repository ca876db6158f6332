"""CSV cells are made by integer arithmetic in numpy (``thermocurv._g17``):
each cell is byte for byte ``"%.17g" % v``, and each block is the text of the
``%`` writer in ``csv_oracle``, with no higher memory peak."""

import argparse
import math
import tracemalloc

import numpy as np
import pytest

from thermocurv import cli, get_entry
from thermocurv._g17 import csv_rows
from thermocurv.cli import COLUMNS, evaluate_points, main

from csv_oracle import csv_text
from test_batch import MIXED


def ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def random_bits(rng):
    """Every exponent, both signs, subnormals and nan with either sign bit; every
    other pattern takes an exponent of 1e-40..1e10, where the kernel does not
    fall back."""
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64, endpoint=False)
    exponents = rng.integers(1023 - 133, 1023 + 34, size=bits.size // 2).astype(np.uint64)
    bits[::2] = bits[::2] & np.uint64(2 ** 64 - 1 - (0x7FF << 52)) | exponents << np.uint64(52)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.5e-308]
    return np.concatenate([bits.view(np.float64), specials])


def log_uniform(rng):
    return 10 ** rng.uniform(-30, 30, 200_000) * rng.choice([-1.0, 1.0], 200_000)


def powers_of_ten(rng):
    return [sign * ulps(float(f"1e{k}"), steps) for k in range(-30, 31)
            for steps in range(-2, 3) for sign in (1, -1)]


def ties(rng):
    """Odd multiples of 2**-k whose 18 significant digits end in a 5: halfway
    between two 17-digit values."""
    found = []
    for k in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        for a in rng.integers(lo, hi, 200).tolist():
            a |= 1
            digits = str(a * 5 ** k)
            if a < hi and len(digits) == 18 and digits[-1] == "5":
                found += [a / 2 ** k, -a / 2 ** k]
    assert len(found) > 4000
    return found


def integers(rng):
    return [sign * float(centre + step) for centre in (2 ** 53, 10 ** 15, 10 ** 16, 10 ** 17)
            for step in range(-200, 201) for sign in (1, -1)]


@pytest.mark.parametrize("values", [random_bits, log_uniform, powers_of_ten, ties, integers])
def test_each_cell_is_python_percent_17g(values):
    cells = np.asarray(values(np.random.default_rng(25)), dtype=float)
    table = np.concatenate([cells, np.zeros(-cells.size % 17)]).reshape(-1, 17)
    text = csv_rows(table, [""] * len(table))
    row = "%.17g," * 17 + "\r\n"
    if text != "".join([row % tuple(values) for values in table.tolist()]):
        got = text.replace(",\r\n", ",").split(",")[:-1]
        wrong = [(v.hex(), g, "%.17g" % v) for v, g in zip(table.ravel().tolist(), got)
                 if g != "%.17g" % v]
        pytest.fail(f"{len(wrong)} cells differ, the first: {wrong[:5]}")


def grid_blocks(catalog, grid):
    entry = get_entry(catalog)
    svals, xvals = cli._grid_axes(argparse.Namespace(grid=grid), entry)
    return [block() for block in cli._grid_blocks(entry.spec, svals, xvals, 1e-10)]


GRIDS = {"reissner-nordstrom": ["S=0.5:10:200:log", "Q=0.05:1.5:200"],
         "kerr": ["S=1:10:200:log", "J=0.05:0.45:200"],
         "quadratic-toy": ["S=0.5:4:200", "X=0.5:4:200"]}


@pytest.mark.parametrize("catalog", sorted(GRIDS))
@pytest.mark.parametrize("large", [False, True])
def test_a_catalog_scan_block_is_the_oracle_text(catalog, large):
    blocks = grid_blocks(catalog, GRIDS[catalog] if large else [])
    assert len(blocks) == (10 if large else 1)
    for columns, flags in blocks:
        assert cli._csv_text(columns, flags) == csv_text(columns, flags)


def singular_point(key, s0, s1, x):
    """A point between ``s0`` and ``s1`` on the line where MIXED's ``key`` column
    changes sign, by bisection."""
    for _ in range(80):
        mid = 0.5 * (s0 + s1)
        c, _ = evaluate_points(MIXED, [s0, mid], [x, x])
        s0, s1 = (s0, mid) if np.sign(c[key][0]) != np.sign(c[key][1]) else (mid, s1)
    return s0


@pytest.mark.filterwarnings("ignore::thermocurv.jets.ConditioningWarning")  # at the lines
def test_mixed_rows_with_every_flag_token_are_the_oracle_text():
    s = [singular_point("M_SS", 2.1, 3.0, 0.25), singular_point("detGM", 1.5, 1.95, 0.1),
         singular_point("kappaS", 0.8, 1.0, 0.5)]
    x = [0.25, 0.1, 0.5]
    for lo, hi, n, xlo, xhi, m in ((-1, 2200, 60, 0.25, 3, 40), (0.05, 4, 80, -2, 3, 50)):
        grid = np.meshgrid(np.linspace(lo, hi, n), np.linspace(xlo, xhi, m), indexing="ij")
        s, x = [*s, *grid[0].ravel()], [*x, *grid[1].ravel()]
    columns, flags = evaluate_points(MIXED, s, x)
    tokens = {token for tag in flags for token in tag.split(";")}
    assert tokens >= {"neg:T", "err:domain", "err:overflow", "overflow:cells", "div:RM",
                      "div:RF", "div:CX", "div:CY", "div:alpha", "div:kappaT", "div:kappaS"}
    assert cli._csv_text(columns, flags) == csv_text(columns, flags)


@pytest.mark.parametrize("rows", [1, cli._FORMAT_ROWS - 1, cli._FORMAT_ROWS,
                                  cli._FORMAT_ROWS + 1, 3 * cli._FORMAT_ROWS + 1])
def test_a_block_of_any_row_count_is_the_oracle_text(rows):
    (columns, flags), = grid_blocks("kerr", ["S=1:10:64:log", "J=0.05:0.45:64"])
    columns = {key: value[:rows] for key, value in columns.items()}
    assert cli._csv_text(columns, flags[:rows]) == csv_text(columns, flags[:rows])


@pytest.mark.parametrize("catalog, at", [("kerr", "S=2,J=0.3"), ("reissner-nordstrom", "S=1,Q=0.5"),
                                         ("quadratic-toy", "S=1,X=2")])
def test_eval_csv_is_the_oracle_text(catalog, at, capsys):
    assert main(["eval", "--catalog", catalog, "--at", at, "--format", "csv"]) == 0
    point = dict(item.split("=") for item in at.split(","))
    columns, flags = evaluate_points(get_entry(catalog).spec, *([float(v)] for v in point.values()))
    assert capsys.readouterr().out == ",".join(COLUMNS) + "\r\n" + csv_text(columns, flags)


def test_a_block_peaks_no_higher_than_the_oracle_writer():
    columns, flags = grid_blocks("kerr", GRIDS["kerr"])[0]
    assert len(flags) == cli._WRITE_BLOCK == 4096
    peaks = []
    for write in (cli._csv_text, csv_text, cli._csv_text):     # the first call warms caches
        tracemalloc.start()
        try:
            write(columns, flags)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] <= peaks[1]
