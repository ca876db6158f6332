"""An independent oracle of ``cli._csv_text``: the writer that formatted each
block of a CSV ``scan`` with Python's ``%`` operator, one ``"%.17g"`` per cell,
before the cells were made with integer arithmetic in numpy.

It formats each distinct bit pattern of the S and X columns once, since a block
repeats them, and every other cell in one ``%`` row template.
"""

from __future__ import annotations

import numpy as np

from thermocurv.cli import COLUMNS


def csv_text(c, flags) -> str:
    """The CSV rows of one block, as csv.writer gives them: no cell needs quoting."""
    def axis_cells(values):     # a block repeats S and X: format each bit pattern once
        keys = values.view(np.int64).tolist()
        text = {k: "%.17g," % v for k, v in dict(zip(keys, values.tolist())).items()}
        return list(map(text.__getitem__, keys))
    row = "%s%s" + "%.17g," * (len(COLUMNS) - 3) + "%s\r\n"
    table = np.column_stack([c[name] for name in COLUMNS[2:-1]]).tolist()
    return "".join([row % (s, x, *cells, tag) for s, x, cells, tag in zip(
        axis_cells(c["S"]), axis_cells(c["X"]), table, flags)])
