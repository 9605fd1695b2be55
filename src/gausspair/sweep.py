"""The entanglement-degree surface over the symmetric-class ``(n, m)`` grid.

Each point's class travels from :func:`sweep_grid` to the writers as its code
in :data:`~gausspair.tmtss.SYMMETRIC_CLASSES`; only the CSV writer spells the
names.  numpy is imported inside the functions that need it.

Both writers run one block loop.  A call allocates one buffer that holds a
run of whole ``n`` rows, at most ``_BLOCK_POINTS`` grid points, or one row
where a row is wider.  For each block the buffer is set from a per-column
line template in one copy, each row's ``n`` cells, class names and degrees go
into their slots, the cells' NUL padding is stripped with ``translate`` and
the stripped bytes are written.  So a writer's memory is bounded by the
block, not by the grid: the buffer, one stripped block and the scratch of
formatting one block's degrees.

The formatter's cell is 16 bytes, NUL-padded.  The CSV line template is
narrower than four such cells: its ``n`` and ``m`` slots take the width of
the widest axis cell with its padding stripped (14 bytes on the default
grid), and the class name and degree share one slot, the degree cell
starting right after the longest physical ``name,``.  So the strip deletes
about 6 NULs a line on the default grid, not about 12.
"""

from __future__ import annotations

import functools
import io
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
        measures.separable_distance(r)  # typed error where r <= 0 or r over- or underflows
        if n_steps < 2 or m_steps < 2:
            raise ValueError("grids need at least 2 steps per axis")
        # the grid's arrays (8 bytes a point for the degrees) and a CSV block of
        # one row (at most 61 bytes a column) must stay index-sized; past that
        # numpy fails untyped, not with MemoryError
        if n_steps * m_steps * 64 > sys.maxsize:
            raise ValueError("sweep grid is too large")
        if not (n_max > n_min and m_max > m_min):
            raise ValueError("grid maxima must exceed minima")
        tmtss._symmetric_point(n_min, m_min)  # the grid's least m, by the point rule
        tol = _check_tol(tol)
        self.__dict__.update(r=r, n_min=n_min, n_max=n_max, n_steps=n_steps, m_min=m_min,
                             m_max=m_max, m_steps=m_steps, tol=tol)  # past the frozen __setattr__

    def n_values(self) -> np.ndarray:
        import numpy as np
        with measures._float64_errors():
            return np.linspace(self.n_min, self.n_max, self.n_steps)

    def m_values(self) -> np.ndarray:
        import numpy as np
        with measures._float64_errors():
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

    float64 failures raise :class:`~gausspair.errors.NumericDomainError`, not a
    warning: the axes and the degree guard their own arithmetic, and the
    classification between them cannot fail.  The points are scored by the
    kernel of :func:`~gausspair.measures.symmetric_degree` without its
    admission pass: :class:`SweepConfig` admitted the grid's bounds.
    """
    import numpy as np
    n, m = cfg.n_values(), cfg.m_values()
    # the bounds of tmtss.classify_symmetric, on the (n_steps, m_steps) grid
    physical = n[:, None] >= np.hypot(m, 0.5) - cfg.tol
    codes = np.add(physical, physical & (n[:, None] >= m + 0.5 - cfg.tol), dtype=np.uint8)
    degree = np.full(codes.shape, np.nan)
    degree[physical] = measures._symmetric_degrees(
        np.broadcast_to(n[:, None], codes.shape)[physical],
        np.broadcast_to(m, codes.shape)[physical], measures._reference_terms(cfg.r))
    return SweepResult(n=n, m=m, codes=codes, degree=degree)


_CELL = 16  # bytes per formatted cell: "-1.00000000e+308" is the longest


@functools.cache
def _sci_tables():
    # the fast path's constant tables, read-only and shared by every call,
    # indexed by k + 14 for k in [-14, 30], by the lead digit or by a 4-digit
    # group, built on first use so that importing this module does not import
    # numpy: the exact powers 10^max(8-k, 0) and 10^max(k-8, 0), "d." as
    # uint16, "e±kk" as uint32, "%04d" as uint32 for 0..9999, and the cell as
    # a structured row of its six fields
    import numpy as np
    ks = range(-14, 31)
    mul = np.array([float(10 ** max(8 - k, 0)) for k in ks])
    div = np.array([float(10 ** max(k - 8, 0)) for k in ks])
    lead = np.frombuffer(b"".join(b"%d." % d for d in range(10)), "<u2")
    exp = np.frombuffer(b"".join(b"e%+03d" % k for k in ks), "<u4")
    pair = np.frombuffer(b"".join(b"%02d" % d for d in range(100)), "<u2").astype(np.uint32)
    quad = np.bitwise_or.outer(pair, pair << 16).ravel()  # entry 100a + b: pair a, then pair b
    mul.flags.writeable = div.flags.writeable = quad.flags.writeable = False
    row = np.dtype([("sign", "u1"), ("lead", "<u2"), ("hi", "<u4"), ("lo", "<u4"),
                    ("exp", "<u4"), ("end", "u1")])
    return mul, div, lead, exp, quad, row


def _sci_table(values) -> np.ndarray:
    """``f"{v:.8e}"`` for every float64 ``v``, as the rows of a NUL-padded
    ``(size, 16)`` uint8 table.

    Where ``k = floor(log10|v|)`` lies in [-14, 30], ``10^|8-k|`` is exact, so
    ``y = |v| 10^(8-k)``, one multiplication and one division by table
    entries, carries one rounding of less than 6e-8, and ``q = rint(y)`` is
    the correctly rounded 9-digit mantissa unless ``y`` lies within 1e-6 of a
    half-integer (``|y - q| >= 0.5 - 1e-6``; both differences are exact for
    ``y >= 1e8``) or outside [1e8, 1e9) (a log10 miss).  Those values,
    zeros, subnormals, other exponents, inf and nan go through
    ``f"{v:.8e}"`` itself.

    A fast cell is one 16-byte row: the sign byte (a NUL where ``v`` is
    positive), ``"d."`` from a table by the lead digit ``q // 10^8``, the
    eight trailing digits as two 4-digit groups from a table of their
    ``"%04d"`` spellings, ``"e±kk"`` from a table by ``k``, and a NUL, so
    every byte is written.
    """
    import numpy as np
    mul, div, lead, exp, quad, row = _sci_tables()
    v = np.asarray(values, dtype=np.float64).ravel()
    y = np.abs(v)
    with np.errstate(all="ignore"):  # log10 of 0, inf and nan
        k = np.log10(y)
        np.floor(k, out=k)
        fast = (k >= -14.0) & (k <= 30.0)
        k += 14.0
        np.copyto(k, 14.0, where=~fast)  # slow rows take k = 0
        i = k.astype(np.intp)  # k + 14
        del k
        y *= mul.take(i)
        y /= div.take(i)
        fast &= y >= 1e8
        q = np.rint(y)
        y -= q
        fast &= (q < 1e9) & (np.abs(y, out=y) < 0.5 - 1e-6)
        del y
    q[~fast] = 0.0
    x = q.astype(np.intp)  # the mantissa, below 10^9
    del q
    table = np.empty(v.size, row)
    # signbit sets no FP flag; -0.0 and -nan rows are slow
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=table["sign"])
    table["exp"] = exp.take(i)
    table["end"] = 0
    d = x // 10**8
    table["lead"] = lead.take(d)
    x -= d * 10**8  # the tail, below 10^8
    d = x // 10**4
    table["hi"] = quad.take(d)
    x -= d * 10**4
    table["lo"] = quad.take(x)
    del x, d
    table = table.view(np.uint8).reshape(-1, _CELL)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = [f"{x:.8e}" for x in v[slow].tolist()]
        table[slow] = np.array(cells, dtype=f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    return table


# grid points in one block of the writers: a CSV block buffer is ~0.34 MB, a
# matrix one ~0.1 MB, and formatting a block's degrees takes ~0.3 MB of scratch
_BLOCK_POINTS = 6000


def _cells(values):
    # _sci_table's rows as one NUL-padded 16-byte string each
    return _sci_table(values).view(f"S{_CELL}")[:, 0]


def _write_blocks(stream, head: bytes, rows: int, template, fill) -> None:
    # writes head, then the rows through one buffer of whole rows, reused for
    # every block: each block starts as a copy of the row template, one
    # structured line per column, and fill(lines, start, stop) completes it
    # for rows start to stop - 1.  The NUL padding is stripped from the
    # buffer itself; a short last block leaves NULs behind it, so no slice is
    # copied.  A row wider than a block gets a block of its own.  stream is
    # binary or text.
    import numpy as np
    per_block = max(1, min(rows, _BLOCK_POINTS // max(template.size, 1)))
    buf = bytearray(per_block * template.nbytes)
    raw = np.frombuffer(buf, np.uint8).reshape(per_block, template.nbytes)
    table = raw.view(template.dtype)  # (per_block, columns)
    _write(stream, head)
    for start in range(0, rows, per_block):
        stop = min(start + per_block, rows)
        raw[:stop - start] = template.view(np.uint8)  # bytewise: one copy, not one per field
        fill(table[:stop - start], start, stop)
        raw[stop - start:] = 0
        _write(stream, buf.translate(None, b"\0"))  # freed before the next block is filled


def _write(stream, chunk: bytes) -> None:
    # ASCII bytes as they are to a binary stream, decoded for a text one
    stream.write(chunk.decode("ascii") if isinstance(stream, io.TextIOBase) else chunk)


def _axis_cells(values):
    # the cells of the axis values with their NUL padding stripped, as one
    # string each of the widest stripped cell's width: a cell is one run of
    # bytes behind at most one NUL, the sign byte of a positive fast cell
    import numpy as np
    table = _sci_table(values)
    lead = np.flatnonzero(table[:, 0] == 0)
    table[lead, :-1] = table[lead, 1:]
    table[lead, -1] = 0
    width = np.flatnonzero(table.any(axis=0))[-1] + 1
    return np.ascontiguousarray(table[:, :width]).view(f"S{width}")[:, 0]


def write_sweep_csv(result: SweepResult, stream) -> None:
    # '\n' endings, empty E column for nonphysical rows; stream is binary or text
    import numpy as np
    rows, cols = result.degree.shape
    axes = _axis_cells(np.concatenate((result.n, result.m)))  # n cells, then m cells
    # "name," by code; a physical line's degree cell starts right after the
    # longest physical "name,", so a nonphysical line, whose degree cell is
    # never written, keeps an empty E
    tails = np.array([name + "," for name in tmtss.SYMMETRIC_CLASSES], dtype="S")
    e_at = max(len(name) + 1 for name in tmtss.SYMMETRIC_CLASSES[1:])
    width = axes.itemsize
    tail_at = 2 * width + 2
    end_at = tail_at + max(tails.itemsize, e_at + _CELL)
    line = np.dtype({"names": ["n", "c1", "m", "c2", "tail", "e", "end"],
                     "formats": [axes.dtype, "S1", axes.dtype, "S1", tails.dtype, f"S{_CELL}",
                                 "S1"],
                     "offsets": [0, width, width + 1, 2 * width + 1, tail_at, tail_at + e_at,
                                 end_at],
                     "itemsize": end_at + 1})
    template = np.zeros(cols, line)
    template["c1"] = template["c2"] = b","
    template["m"] = axes[rows:]
    template["end"] = b"\n"

    def fill(lines, start, stop):
        lines["n"] = axes[start:stop, None]
        codes = result.codes[start:stop].ravel()
        lines = lines.reshape(-1)
        lines["tail"] = tails.take(codes)  # before "e": it overlaps the degree cell
        physical = np.flatnonzero(codes)
        lines["e"][physical] = _cells(result.degree[start:stop].ravel()[physical])

    _write_blocks(stream, b"n,m,class,E\n", rows, template, fill)


def write_sweep_matrix(result: SweepResult, stream) -> None:
    # gnuplot nonuniform-matrix block: first line holds the column count and
    # the m coordinates, each following line is n followed by the E values
    # (nan where nonphysical); stream is binary or text
    import numpy as np
    rows, cols = result.degree.shape
    axes = _cells(np.concatenate((result.n, result.m)))  # n cells, then m cells
    template = np.zeros(cols + 1, [("value", f"S{_CELL}"), ("sep", "S1")])
    template["sep"] = b" "
    template["sep"][-1] = b"\n"
    head = template.copy()
    head["value"][0] = str(cols).encode()
    head["value"][1:] = axes[rows:]
    template["value"][1:] = b"nan"

    def fill(lines, start, stop):
        lines["value"][:, 0] = axes[start:stop]
        physical = np.flatnonzero(result.codes[start:stop])
        # point p of the block is cell p + p // cols + 1 of its lines
        lines.reshape(-1)["value"][physical + physical // cols + 1] = _cells(
            result.degree[start:stop].ravel()[physical])

    _write_blocks(stream, head.tobytes().translate(None, b"\0"), rows, template, fill)
