"""Fixed-width text rendering for integer matrices and logical masks.

Integer-valued matrices print right-aligned in cells of width
max-digit-count + 3; masks print 0/1 in cells of width 3. The widths are
pinned so golden transcripts stay stable.
"""

from __future__ import annotations

import numpy as np

from .core import BoolMask, NumArray, _check_rank2
from .errors import ArgumentError


def format_int_matrix(a: NumArray) -> str:
    """Render an integer-valued rank-2 array, one text line per row."""
    _check_rank2(a, "format_int_matrix")
    v = a.view()
    if v.size and not np.all(np.isfinite(v) & (v == np.floor(v))):
        raise ArgumentError("matrix has non-integer entries; integer rendering only")
    cells = [[str(int(x)) for x in row] for row in v]
    width = max((len(c) for row in cells for c in row), default=1) + 3
    return "\n".join("".join(c.rjust(width) for c in row) for row in cells)


def format_mask(mask: BoolMask) -> str:
    """Render a logical mask as 0/1 cells of width 3."""
    _check_rank2(mask, "format_mask")
    v = mask.view()
    return "\n".join("".join(("1" if x else "0").rjust(3) for x in row) for row in v)
