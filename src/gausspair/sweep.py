"""The entanglement-degree surface over the symmetric-class ``(n, m)`` grid.

Each point's class travels from :func:`sweep_grid` to the writers as its code
in :data:`~gausspair.tmtss.SYMMETRIC_CLASSES`; only the CSV writer spells the
names.  numpy is imported inside the functions that need it.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import measures, tmtss
from .covariance import DEFAULT_TOL, _check_tol, _finite_numbers

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, init=False)
class SweepConfig:
    """Grid description for the entanglement-degree surface."""

    r: float = 1.0
    n_min: float = 0.5
    n_max: float = 3.5
    n_steps: int = 141
    m_min: float = 0.0
    m_max: float = 3.0
    m_steps: int = 121
    tol: float = DEFAULT_TOL

    def __init__(self, r=1.0, n_min=0.5, n_max=3.5, n_steps=141, m_min=0.0, m_max=3.0,
                 m_steps=121, tol=DEFAULT_TOL):
        r, n_min, n_max, m_min, m_max, tol = _finite_numbers(
            "sweep parameters", (float,) * 6, r, n_min, n_max, m_min, m_max, tol)
        # ints only, Python's or numpy's, not bool: 2.5 steps would fail
        # later in np.linspace, untyped
        for steps in (n_steps, m_steps):
            if isinstance(steps, bool) or not hasattr(steps, "__index__"):
                raise TypeError(f"grid steps must be ints, got {type(steps).__name__}")
        n_steps, m_steps = int(n_steps), int(m_steps)
        if r <= 0.0:
            raise ValueError("reference squeezing r must be positive")
        if n_steps < 2 or m_steps < 2:
            raise ValueError("grids need at least 2 steps per axis")
        # the padded CSV table holds 63 bytes a point, so its size must stay an
        # index-sized int; past that numpy fails untyped, not with MemoryError
        if n_steps * m_steps * 64 > sys.maxsize:
            raise ValueError("sweep grid is too large")
        if not (n_max > n_min and m_max > m_min):
            raise ValueError("grid maxima must exceed minima")
        if m_min < 0.0:
            raise ValueError("m must be nonnegative (phase removed)")
        tol = _check_tol(tol)
        measures.separable_distance(r)  # typed error where r over- or underflows
        self.__dict__.update(r=r, n_min=n_min, n_max=n_max, n_steps=n_steps, m_min=m_min,
                             m_max=m_max, m_steps=m_steps, tol=tol)  # past the frozen __setattr__

    def n_values(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.n_min, self.n_max, self.n_steps)

    def m_values(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.m_min, self.m_max, self.m_steps)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """The surface over the grid: ``codes[i, j]`` and ``degree[i, j]`` belong
    to the point ``(n[i], m[j])``.  ``codes`` indexes
    :data:`~gausspair.tmtss.SYMMETRIC_CLASSES` (0 is nonphysical), and
    ``degree`` is NaN where the point is nonphysical."""

    n: np.ndarray
    m: np.ndarray
    codes: np.ndarray
    degree: np.ndarray


def sweep_grid(cfg: SweepConfig) -> SweepResult:
    """Classify and score every grid point in one array pass.

    float64 overflow and invalid results raise ``FloatingPointError``, not
    a warning.
    """
    import numpy as np
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        n, m = cfg.n_values(), cfg.m_values()
        codes = tmtss.symmetric_class_codes(n[:, None], m, cfg.tol)  # (n_steps, m_steps)
        physical = codes > 0
        degree = np.full(codes.shape, np.nan)
        degree[physical] = measures.symmetric_degree(
            np.broadcast_to(n[:, None], codes.shape)[physical],
            np.broadcast_to(m, codes.shape)[physical], cfg.r)
    return SweepResult(n=n, m=m, codes=codes, degree=degree)


# 10^0 .. 10^22, each exact in float64
_POW10 = tuple(float(10 ** i) for i in range(23))
_CELL = 16  # bytes per formatted cell: "-1.00000000e+308" is the longest


def _sci_table(values) -> np.ndarray:
    """``f"{v:.8e}"`` for every float64 ``v``, as the rows of a NUL-padded
    ``(size, 16)`` uint8 table.

    Where ``k = floor(log10|v|)`` lies in [-14, 30], ``10^|8-k|`` is exact, so
    ``y = |v| 10^(8-k)`` carries one rounding of less than 6e-8 and
    ``rint(y)`` is the correctly rounded 9-digit mantissa unless ``y`` lies
    within 1e-6 of a half-integer or outside [1e8, 1e9) (a log10 miss).  Those
    values, zeros, subnormals, other exponents, inf and nan go through
    ``f"{v:.8e}"`` itself.  Positive rows start with a NUL, not a sign.
    """
    import numpy as np
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    with np.errstate(all="ignore"):  # log10 of 0, inf and nan
        k = np.floor(np.log10(a))
        fast = (k >= -14.0) & (k <= 30.0)
        k = np.where(fast, k, 0.0).astype(np.int64)
        pow10 = np.array(_POW10)
        y = a * pow10[np.maximum(8 - k, 0)] / pow10[np.maximum(k - 8, 0)]
        q = np.rint(y)
        fast &= (y >= 1e8) & (q < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 1e-6)
        q = np.where(fast, q, 0.0).astype(np.uint32)
    table = np.zeros((v.size, _CELL), np.uint8)
    table[:, 0] = np.where(np.signbit(v), ord("-"), 0)  # sets no FP flag; -0.0, -nan rows are slow
    table[:, 2] = ord(".")
    for col in (10, 9, 8, 7, 6, 5, 4, 3, 1):  # the mantissa's digits, last first
        rest = q // 10
        table[:, col] = q - 10 * rest + ord("0")
        q = rest
    table[:, 11] = ord("e")
    table[:, 12] = np.where(k < 0, ord("-"), ord("+"))
    k = np.abs(k)
    table[:, 13] = k // 10 + ord("0")
    table[:, 14] = k % 10 + ord("0")
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = [f"{x:.8e}" for x in v[slow].tolist()]
        table[slow] = np.array(cells, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return table


def _table(shape, *parts):
    # a bytearray holding a uint8 table of the given shape whose last axis
    # joins the parts: arrays broadcasting to shape + (width,), strings of
    # separator bytes, or the int width of a zero slot the caller fills; returns
    # the buffer and each part's slot, a view into it
    import numpy as np
    widths = [p if isinstance(p, int) else len(p) if isinstance(p, str) else p.shape[-1]
              for p in parts]
    row = sum(widths)
    buf = bytearray(math.prod(shape) * row)
    table = np.frombuffer(buf, np.uint8).reshape(*shape, row)
    slots, start = [], 0
    for part, width in zip(parts, widths):
        slot = table[..., start:start + width]
        if not isinstance(part, int):
            slot[...] = np.frombuffer(part.encode(), np.uint8) if isinstance(part, str) else part
        slots.append(slot)
        start += width
    return buf, slots


def _write(stream, *chunks) -> None:
    # ASCII bytes as they are to a binary stream, decoded for a text one
    text = isinstance(stream, io.TextIOBase)
    for chunk in chunks:
        stream.write(chunk.decode("ascii") if text else chunk)


def write_sweep_csv(result: SweepResult, stream) -> None:
    # '\n' endings, empty E column for nonphysical rows; stream is binary or text
    import numpy as np
    shape = result.degree.shape
    names = np.array(tmtss.SYMMETRIC_CLASSES, dtype="S")  # NUL-padded class names
    names = names.view(np.uint8).reshape(names.size, -1)
    buf, (*_, e_cells, _) = _table(shape, _sci_table(result.n)[:, None], ",",
                                   _sci_table(result.m), ",", names.take(result.codes, axis=0),
                                   ",", _CELL, "\n")
    physical = result.codes > 0
    e_cells[physical] = _sci_table(result.degree[physical])
    _write(stream, b"n,m,class,E\n", buf.translate(None, b"\0"))


def write_sweep_matrix(result: SweepResult, stream) -> None:
    # gnuplot nonuniform-matrix block: first row holds the m coordinates,
    # each following row is n followed by the E values (nan where nonphysical);
    # stream is binary or text
    import numpy as np
    rows, cols = result.degree.shape
    head = str(cols).encode()
    physical = result.codes > 0
    e_cells = _sci_table(result.degree[physical])  # before the table: its scratch arrays are the peak
    sep = np.full((cols + 1, 1), ord(" "), np.uint8)
    sep[-1] = ord("\n")
    buf, (cells, _) = _table((rows + 1, cols + 1), _CELL, sep)
    cells[0, 0, :len(head)] = list(head)
    cells[0, 1:] = _sci_table(result.m)
    cells[1:, 0] = _sci_table(result.n)
    grid = cells[1:, 1:]
    grid[physical] = e_cells
    grid[~physical, :3] = np.frombuffer(b"nan", np.uint8)
    _write(stream, buf.translate(None, b"\0"))
