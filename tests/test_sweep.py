"""The vectorised sweep kernel: pinned bytes, the per-point route, precision, validation."""

import hashlib
import io
import json
import math
import sys
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gausspair import (
    GaussianParams,
    NumericDomainError,
    classify_symmetric,
    cli,
    entanglement_degree,
    measures,
    sweep,
    symmetric_degree,
    tmtss,
)

from conftest import GOLDEN

# the grid of acceptance criterion 6 that holds the E = 0 and E = 1 anchors
ANCHORED_ARGS = [
    "--r", "1.0", "--n-min", repr(math.cosh(2.0) / 2), "--n-max", "3.5", "--n-steps", "3",
    "--m-min", "0.0", "--m-max", repr(math.sinh(2.0) / 2), "--m-steps", "2",
]

# a grid whose axis cells differ in width: n cells of 16 bytes (-1e-300) and 14,
# m cells of 15 (1e-300) and 14; its rows hold all three classes and degrees of
# both signs
MIXED_ARGS = [
    "--n-min", "-1e-300", "--n-max", "3", "--n-steps", "4",
    "--m-min", "1e-300", "--m-max", "2.7", "--m-steps", "4",
]


def _sweep_bytes(tmp_path, args):
    out = tmp_path / "sweep.out"
    assert cli.main(["sweep", *args, "--out", str(out)]) == 0
    return out.read_bytes()


def _csv(cfg):
    buf = io.StringIO()
    sweep.write_sweep_csv(sweep.sweep_grid(cfg), buf)
    return buf.getvalue()


def _labels(result):
    # the class names of the result's codes
    return np.array(tmtss.SYMMETRIC_CLASSES)[result.codes]


def _decimal_degree(n, m, r, digits=50):
    """E of (n, n, m_c=m) in ``digits``-digit decimal, factored so nothing large cancels."""
    with localcontext() as ctx:
        ctx.prec = digits
        n, m, two_r = Decimal(n), Decimal(m), 2 * Decimal(r)
        e_pos, e_neg = two_r.exp(), (-two_r).exp()
        big_m = (e_pos - e_neg) / 4
        f = 1 / ((n - m + e_neg / 2) * (n + m + e_pos / 2))
        sep_excess = 3 * big_m * big_m  # 4N^2 - M^2 = 1 + 3M^2
        f_sep = 1 / (1 + sep_excess)
        d_state = 2 * (1 - f) / (1 + f.sqrt())
        d_sep = 2 * (sep_excess / (1 + sep_excess)) / (1 + f_sep.sqrt())
        return 1 - d_state / d_sep


class TestGoldenBytes:
    def test_default_csv(self, tmp_path):
        digest = hashlib.sha256(_sweep_bytes(tmp_path, [])).hexdigest()
        assert digest == GOLDEN["default_csv"]

    def test_default_matrix(self, tmp_path):
        digest = hashlib.sha256(_sweep_bytes(tmp_path, ["--format", "matrix"])).hexdigest()
        assert digest == GOLDEN["default_matrix"]

    def test_anchored_csv(self, tmp_path):
        data = _sweep_bytes(tmp_path, ANCHORED_ARGS)
        assert hashlib.sha256(data).hexdigest() == GOLDEN["anchored_csv"]
        # the traced-out reference scores exactly 0, not a rounding residue
        assert data.split(b"\n")[1].endswith(b",separable,0.00000000e+00")

    def test_mixed_width_csv(self, tmp_path):
        data = _sweep_bytes(tmp_path, MIXED_ARGS)
        assert hashlib.sha256(data).hexdigest() == GOLDEN["mixed_csv"]
        rows = [row.split(b",") for row in data.split(b"\n")[1:-1]]
        assert {len(row[0]) for row in rows} == {16, 14}
        assert {len(row[1]) for row in rows} == {15, 14}
        assert {row[2] for row in rows} == {b"nonphysical", b"entangled", b"separable"}
        assert {row[3][:1] == b"-" for row in rows if row[3]} == {True, False}

    def test_mixed_width_matrix(self, tmp_path):
        data = _sweep_bytes(tmp_path, [*MIXED_ARGS, "--format", "matrix"])
        assert hashlib.sha256(data).hexdigest() == GOLDEN["mixed_matrix"]


grids = st.builds(
    lambda r, n_min, n_span, n_steps, m_min, m_span, m_steps: sweep.SweepConfig(
        r=r, n_min=n_min, n_max=n_min + n_span, n_steps=n_steps,
        m_min=m_min, m_max=m_min + m_span, m_steps=m_steps,
    ),
    r=st.floats(0.05, 5.0),
    n_min=st.floats(0.5, 2.0),
    n_span=st.floats(0.1, 3.0),
    n_steps=st.integers(2, 16),
    m_min=st.floats(0.0, 1.5),
    m_span=st.floats(0.1, 3.0),
    m_steps=st.integers(2, 16),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(grids)
def test_rows_match_per_point_route(cfg):
    """Each CSV row is what classify_symmetric + entanglement_degree give for its point.

    The per-point degree comes from a 4x4 determinant, the kernel's from the
    closed form.  Where the two differ in the ninth digit, the kernel must be
    the correctly rounded one by a 50-digit reference.
    """
    lines = _csv(cfg).split("\n")
    assert lines[0] == "n,m,class,E" and lines[-1] == ""
    rows = iter(lines[1:-1])
    for n in cfg.n_values().tolist():
        for m in cfg.m_values().tolist():
            label = classify_symmetric(n, m, cfg.tol)
            e = ""
            if label != "nonphysical":
                state = GaussianParams(n1=n, n2=n, m_c=m)
                e = f"{entanglement_degree(state, cfg.r, cfg.tol).degree:.8e}"
            want = f"{n:.8e},{m:.8e},{label},{e}"
            got = next(rows)
            if got != want:
                assert got.rsplit(",", 1)[0] == want.rsplit(",", 1)[0]
                assert got.rsplit(",", 1)[1] == f"{float(_decimal_degree(n, m, cfg.r)):.8e}"


def test_small_squeezing_matches_decimal_reference():
    # states at least 0.1 above the vacuum occupation, where F stays away
    # from 1 while the separable normalizer shrinks like r^2
    rng = np.random.default_rng(61)
    r = 10.0 ** rng.uniform(-4.0, -2.0, 400)
    n = rng.uniform(0.6, 3.5, r.size)
    m = rng.uniform(0.0, 1.0, r.size) * np.sqrt(n * n - 0.25)
    worst = 0.0
    for ri, ni, mi in zip(r.tolist(), n.tolist(), m.tolist()):
        want = _decimal_degree(ni, mi, ri)
        got = symmetric_degree(np.array([ni]), np.array([mi]), ri)[0]
        worst = max(worst, float(abs((Decimal(float(got)) - want) / want)))
    assert worst <= 1e-13


def test_large_squeezing_matches_decimal_reference():
    # E falls like sqrt(F) ~ exp(-r) here, so the check is absolute; the
    # factor n - m + (N - M) must not lose N - M = exp(-2r)/2 to cancellation
    rng = np.random.default_rng(62)
    r = rng.uniform(3.0, 30.0, 300)
    n = rng.uniform(0.6, 3.5, r.size)
    m = rng.uniform(0.0, 1.0, r.size) * np.sqrt(n * n - 0.25)
    worst = max(
        abs(float(_decimal_degree(ni, mi, ri)) - float(symmetric_degree(ni, mi, ri)))
        for ri, ni, mi in zip(r.tolist(), n.tolist(), m.tolist())
    )
    assert worst <= 1e-13


def test_scalar_and_array_forms_agree():
    n = np.linspace(0.6, 3.5, 30)
    m = 0.5 * np.sqrt(n * n - 0.25)
    array = symmetric_degree(n, m, 0.7)
    assert [symmetric_degree(a, b, 0.7) for a, b in zip(n.tolist(), m.tolist())] == array.tolist()


def test_grid_is_scored_without_a_second_admission(monkeypatch):
    # SweepConfig admitted the grid's bounds, so sweep_grid scores its
    # classified points by symmetric_degree's kernel, with no pass that admits
    # them again, and to the same bits
    def admit(n, m):
        raise AssertionError("sweep_grid admitted its points again")

    cfg = sweep.SweepConfig(n_steps=7, m_steps=5)
    with monkeypatch.context() as patch:
        patch.setattr(measures, "_symmetric_points", admit)
        result = sweep.sweep_grid(cfg)
    physical = result.codes != 0
    n, m = np.meshgrid(result.n, result.m, indexing="ij")
    want = symmetric_degree(n[physical], m[physical], cfg.r)
    assert result.degree[physical].tobytes() == want.tobytes()


class TestColumns:
    def test_shapes_labels_and_nan_mask(self):
        cfg = sweep.SweepConfig(n_steps=9, m_steps=7)
        result = sweep.sweep_grid(cfg)
        assert result.n.tolist() == cfg.n_values().tolist()
        assert result.m.tolist() == cfg.m_values().tolist()
        labels = _labels(result)
        assert labels.shape == result.degree.shape == (9, 7)
        for i, n in enumerate(result.n.tolist()):
            for j, m in enumerate(result.m.tolist()):
                label = classify_symmetric(n, m, cfg.tol)
                assert labels[i, j] == label
                assert math.isnan(result.degree[i, j]) == (label == "nonphysical")

    def test_no_runtime_warnings_on_nonphysical_cells(self):
        # low n at high m: most cells nonphysical, some with (n+N)^2 < (m+M)^2
        cfg = sweep.SweepConfig(n_min=0.1, n_max=1.0, m_min=0.5, m_max=6.0, r=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sweep.sweep_grid(cfg)
        labels = _labels(result)
        assert (labels == "nonphysical").sum() > labels.size // 2

    def test_large_squeezing_stays_finite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sweep.sweep_grid(sweep.SweepConfig(r=150.0, n_steps=5, m_steps=5))
        physical = _labels(result) != "nonphysical"
        assert np.all(np.isfinite(result.degree[physical]))
        assert np.all(np.abs(result.degree[physical]) <= 1.0)


ANCHORED = sweep.SweepConfig(r=1.0, n_min=math.cosh(2.0) / 2, n_max=3.5, n_steps=3,
                             m_min=0.0, m_max=math.sinh(2.0) / 2, m_steps=2)


def _meshgrid_sweep(cfg):
    # the referee: each point of the full meshgrid arrays, not of the
    # broadcast axes, classified by classify_symmetric, and the physical ones
    # scored in one array
    nn, mm = np.meshgrid(cfg.n_values(), cfg.m_values(), indexing="ij")
    names = np.array(tmtss.SYMMETRIC_CLASSES)
    points = zip(nn.ravel().tolist(), mm.ravel().tolist())
    label = np.array([classify_symmetric(n, m, cfg.tol) for n, m in points],
                     dtype=names.dtype).reshape(nn.shape)
    physical = label != "nonphysical"
    degree = np.full(nn.shape, np.nan)
    degree[physical] = symmetric_degree(nn[physical], mm[physical], cfg.r)
    return label, degree


def _assert_matches_meshgrid(cfg):
    result = sweep.sweep_grid(cfg)
    label, degree = _meshgrid_sweep(cfg)
    assert _labels(result).dtype == label.dtype
    assert np.array_equal(_labels(result), label)
    assert result.degree.tobytes() == degree.tobytes()  # NaN placement included


WRITERS = {"csv": sweep.write_sweep_csv, "matrix": sweep.write_sweep_matrix}


def _referee_text(result, fmt):
    # what the writer of fmt must write, one f-string per CSV line or per
    # matrix line: the CSV's E is empty where the degree is nan, and the
    # matrix starts with the column count and the m values
    if fmt == "csv":
        lines = ["n,m,class,E"]
        for n, label_row, degree_row in zip(result.n.tolist(), _labels(result).tolist(),
                                            result.degree.tolist()):
            for m, label, e in zip(result.m.tolist(), label_row, degree_row):
                lines.append(f"{n:.8e},{m:.8e},{label}," + ("" if math.isnan(e) else f"{e:.8e}"))
    else:
        lines = [" ".join([str(result.m.size)] + [f"{m:.8e}" for m in result.m.tolist()])]
        lines += [" ".join(f"{v:.8e}" for v in [n, *degree_row])
                  for n, degree_row in zip(result.n.tolist(), result.degree.tolist())]
    return "\n".join(lines) + "\n"


def _written(fmt, result):
    out = io.BytesIO()
    WRITERS[fmt](result, out)
    return out.getvalue().decode("ascii")


def _rows_per_block(fmt, cols):
    # whole n rows in one writer block: a CSV line per point, a matrix line per
    # n row with its n cell first
    return sweep._BLOCK_POINTS // (cols if fmt == "csv" else cols + 1)


def _random_result(rows, cols, seed):
    # signs and scales from 1e-30 to 1e30, codes of all three classes, and a
    # nan degree exactly where the point is nonphysical
    rng = np.random.default_rng(seed)

    def values(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-30.0, 30.0, size)

    codes = rng.integers(0, 3, (rows, cols)).astype(np.uint8)
    return sweep.SweepResult(n=values(rows), m=np.abs(values(cols)), codes=codes,
                             degree=np.where(codes > 0, values((rows, cols)), np.nan))


class TestWriters:
    @pytest.mark.parametrize("cfg", [sweep.SweepConfig(), ANCHORED], ids=["default", "anchored"])
    @pytest.mark.parametrize("writer", [sweep.write_sweep_csv, sweep.write_sweep_matrix])
    def test_binary_and_text_streams_get_the_same_bytes(self, writer, cfg):
        result = sweep.sweep_grid(cfg)
        binary, text = io.BytesIO(), io.StringIO()
        writer(result, binary)
        writer(result, text)
        assert binary.getvalue() == text.getvalue().encode("ascii")

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_stdout_matches_the_out_file(self, fmt, tmp_path, capsysbinary):
        assert cli.main(["sweep", "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == _sweep_bytes(tmp_path, ["--format", fmt])

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_text_stdout_gets_the_out_bytes(self, fmt, tmp_path, capsys, monkeypatch):
        want = _sweep_bytes(tmp_path, ["--format", fmt])
        assert cli.main(["sweep", "--format", fmt]) == 0
        assert capsys.readouterr().out.encode("ascii") == want
        stdout = io.StringIO()  # a text stream with no binary buffer
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["sweep", "--format", fmt]) == 0
        assert stdout.getvalue().encode("ascii") == want

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_stdout_bytes_bypass_its_text_layer(self, fmt, tmp_path, monkeypatch):
        # text written before the sweep comes first, and the sweep's own bytes
        # are never decoded into the text layer
        texts = []

        class Stdout(io.TextIOWrapper):
            def write(self, text):
                texts.append(text)
                return super().write(text)

        args = ["--format", fmt, "--n-steps", "3", "--m-steps", "3"]
        stdout = Stdout(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        stdout.write("before\n")
        assert cli.main(["sweep", *args]) == 0
        stdout.flush()
        assert texts == ["before\n"]
        assert stdout.buffer.getvalue() == b"before\n" + _sweep_bytes(tmp_path, args)

    def test_slow_path_cells_keep_the_row_layout(self):
        # signs, zeros, a subnormal, three-digit exponents and nan: cells that
        # _sci_table formats in Python, which no grid with n >= 0.5 reaches
        codes = np.arange(15).reshape(5, 3) % 3
        degree = np.array([math.nan, -0.25, 1.5e250, math.nan, -7.5e-310, 1e22, math.nan,
                           -123.456, 2.5e-5, math.nan, 0.99999999995, -1e300, math.nan, -0.0,
                           1e-320]).reshape(5, 3)
        result = sweep.SweepResult(n=np.array([-2.5, -0.0, 0.0, 1e200, -1e-300]),
                                   m=np.array([0.0, 5e-324, 1e300]),
                                   codes=codes, degree=degree)
        for fmt in WRITERS:
            assert _written(fmt, result) == _referee_text(result, fmt)

    @pytest.mark.parametrize("cfg", [
        sweep.SweepConfig(), ANCHORED,
        sweep.SweepConfig(n_min=0.1, n_max=1.0, m_min=0.5, m_max=6.0, r=2.0),
    ], ids=["default", "anchored", "mostly-nonphysical"])
    def test_grid_matches_meshgrid_referee(self, cfg):
        _assert_matches_meshgrid(cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(grids)
    def test_random_grids_match_meshgrid_referee(self, cfg):
        _assert_matches_meshgrid(cfg)


class TestBlocks:
    """Grids at the edges of the writers' row blocks, judged by the per-row referee."""

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    @pytest.mark.parametrize("extra", [-1, 1], ids=["one-less", "one-more"])
    def test_rows_one_off_a_multiple_of_the_block(self, fmt, extra):
        cols = 97
        rows = 2 * _rows_per_block(fmt, cols) + extra
        result = _random_result(rows, cols, seed=rows)
        assert _written(fmt, result) == _referee_text(result, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_row_wider_than_a_block(self, fmt):
        result = _random_result(3, sweep._BLOCK_POINTS + 1, seed=65)
        assert _rows_per_block(fmt, result.m.size) == 0
        assert _written(fmt, result) == _referee_text(result, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "matrix"])
    def test_stdout_out_and_text_stream_on_a_multi_block_grid(self, fmt, tmp_path,
                                                              capsysbinary, monkeypatch):
        args = ["--format", fmt, "--n-steps", "301", "--m-steps", "97"]
        assert 301 > 2 * _rows_per_block(fmt, 97)  # three blocks or more
        want = _referee_text(sweep.sweep_grid(sweep.SweepConfig(n_steps=301, m_steps=97)), fmt)
        assert _sweep_bytes(tmp_path, args) == want.encode("ascii")
        assert cli.main(["sweep", *args]) == 0
        assert capsysbinary.readouterr().out == want.encode("ascii")
        stdout = io.StringIO()  # a text stream with no binary buffer
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(["sweep", *args]) == 0
        assert stdout.getvalue() == want


class _CountingSink:
    # a binary stream that keeps no bytes, so only the writer's memory is traced
    def __init__(self):
        self.size = 0

    def write(self, chunk):
        self.size += len(chunk)


def _traced_peak(call):
    # tracemalloc peak of one call() above the memory traced before it
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _writer_peak(writer, cfg):
    # the writer's traced peak on the grid of cfg, and the bytes it wrote
    result = sweep.sweep_grid(cfg)
    writer(result, _CountingSink())  # once untraced: first-call allocations are not the writer's
    sink = _CountingSink()
    return _traced_peak(lambda: writer(result, sink)), sink.size


# peak traced memory per output byte on the default grid (numpy 2.4): 0.88 for
# the CSV and 2.33 for the matrix; one more copy of a block exceeds either bound
@pytest.mark.parametrize("writer, budget", [(sweep.write_sweep_csv, 1.0),
                                            (sweep.write_sweep_matrix, 2.8)],
                         ids=["csv", "matrix"])
def test_writer_memory_peak(writer, budget):
    peak, size = _writer_peak(writer, sweep.SweepConfig())
    assert peak <= budget * size


@pytest.mark.parametrize("writer", [sweep.write_sweep_csv, sweep.write_sweep_matrix],
                         ids=["csv", "matrix"])
def test_writer_memory_is_bounded_by_the_block(writer):
    # 860 more n rows add their axis cells and those cells' formatting scratch
    # (~100 bytes a row, numpy 2.4), not the rows' output (~6.5 MB of CSV)
    peak, _ = _writer_peak(writer, sweep.SweepConfig())
    taller, _ = _writer_peak(writer, sweep.SweepConfig(n_steps=1001))
    assert taller - peak <= 128 * (1001 - 141)


def test_sweep_grid_memory_peak():
    # 40 bytes a point on the default grid (numpy 2.4): the one-byte codes,
    # the degrees and the scoring's temporaries; int64 codes (47 bytes a
    # point), the class names as a <U11 array (44 more) or a degree kernel
    # that allocates each intermediate anew (45) would take it past the bound
    cfg = sweep.SweepConfig()
    sweep.sweep_grid(cfg)  # once untraced
    assert _traced_peak(lambda: sweep.sweep_grid(cfg)) <= 43 * cfg.n_steps * cfg.m_steps


def test_symmetric_degree_memory_peak():
    # 32 bytes a point on the default grid's physical points (numpy 2.4):
    # four float64 arrays, the kernel's intermediates updated in place; one
    # allocated anew at each step (40 bytes a point) would take it past the bound
    cfg = sweep.SweepConfig()
    result = sweep.sweep_grid(cfg)
    physical = result.codes != 0
    n, m = np.meshgrid(result.n, result.m, indexing="ij")
    n, m = n[physical], m[physical]
    symmetric_degree(n, m, cfg.r)  # once untraced
    assert _traced_peak(lambda: symmetric_degree(n, m, cfg.r)) <= 35 * n.size


def _kernel_mismatches(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = [row.tobytes().translate(None, b"\0").decode("ascii") for row in sweep._sci_table(values)]
    return [(v, row) for v, row in zip(values.tolist(), rows) if row != f"{v:.8e}"]


def _with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _near_decimal_ties():
    # the floats nearest d.dddddddd5 x 10^k, where the ninth digit's rounding
    # turns on the last bits of the binary value
    rng = np.random.default_rng(63)
    mantissas = rng.integers(100_000_000, 1_000_000_000, 400).tolist()
    exponents = rng.integers(-20, 41, 400).tolist()
    return [float(f"{q // 10**8}.{q % 10**8:08d}5e{k}") for q, k in zip(mantissas, exponents)]


def _half_integers():
    # exact ties of the mantissa, y = h + 1/2 with h in [1e8, 1e9), and
    # their binary scalings, whose decimal expansions terminate
    rng = np.random.default_rng(64)
    halves = rng.integers(100_000_000, 1_000_000_000, 300) + 0.5
    return np.concatenate([halves, [1e8 + 0.5, 1e9 - 0.5]] + [halves * 2.0**-j for j in range(1, 40, 3)])


class TestSciTable:
    """``sweep._sci_table`` writes exactly what ``f"{v:.8e}"`` writes."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
    def test_matches_python_formatting(self, values):
        assert _kernel_mismatches(values) == []

    @pytest.mark.parametrize("values", [
        _with_neighbours(_near_decimal_ties()),
        _with_neighbours(_half_integers()),
        _with_neighbours([10.0**k for k in range(-20, 41)] + [float(f"1e{k}") for k in range(-20, 41)]),
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max],
        _with_neighbours([1e-14, 1e30, 1e31]),
    ], ids=["near-decimal-ties", "half-integers", "powers-of-ten", "extremes", "fast-path-edges"])
    def test_boundary_values(self, values):
        values = np.asarray(values)
        assert _kernel_mismatches(np.concatenate([values, -values])) == []

    def test_every_four_digit_group(self):
        # exact 9-digit mantissas at k = 8 whose 4-digit halves each run
        # through 0..9999, under every lead digit, so every 4-digit group is
        # spelled in both the first and the second half of the tail; plus one
        # mantissa at each fast exponent
        j = np.arange(10_000)
        tails = np.concatenate([j * 10**4 + (9999 - j), (9999 - j) * 10**4 + j])
        mantissas = (np.arange(1, 10)[:, None] * 10**8 + tails).ravel().astype(np.float64)
        exponents = [float(f"1.23456789e{k}") for k in range(-14, 31)]
        assert _kernel_mismatches(np.concatenate([mantissas, exponents])) == []

    def test_tables_are_read_only_and_spell_their_entries(self):
        # the tables are cached for the whole process, so no caller may write them
        mul, div, lead, exp, quad, _ = sweep._sci_tables()
        for table in (mul, div, lead, exp, quad):
            with pytest.raises(ValueError):
                table[0] = 0
        assert quad.astype("<u4").tobytes() == b"".join(b"%04d" % i for i in range(10_000))

    def test_silent_under_raising_errstate(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.5]  # 1.5: the fast path
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _kernel_mismatches(values) == []

    def test_rows_are_nul_padded_cells(self):
        table = sweep._sci_table(np.array([[1.5, -2.0], [math.nan, -1e-300]]))
        assert table.shape == (4, 16) and table.dtype == np.uint8
        assert table[0].tobytes() == b"\x001.50000000e+00\x00"
        assert table[2].tobytes() == b"nan".ljust(16, b"\x00")
        assert table[3].tobytes() == b"-1.00000000e-300"


class TestValidation:
    @pytest.fixture(params=[
        ["--n-min", "-1e308", "--n-max", "1e308"],  # the grid's span overflows
        ["--n-min", "1e300", "--n-max", "1.1e300", "--m-max", "1e300", "--r", "1e-6"],  # the degree
    ], ids=["span", "degree"])
    def overflow_argv(self, request):
        # sweeps whose float64 arithmetic overflows
        return ["sweep", *request.param, "--n-steps", "3", "--m-steps", "3"]

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tol_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            sweep.SweepConfig(tol=tol)

    @pytest.mark.parametrize("bound", ["--n-max", "--m-min"])
    def test_grid_bounds_must_be_finite(self, bound, capsys):
        assert cli.main(["sweep", bound, "inf"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    def test_negative_m_is_a_cli_error(self, capsys):
        # the kernel's bounds hold for m >= 0 only (the phase is removed)
        with pytest.raises(ValueError, match=r"^m must be nonnegative \(phase removed\)$"):
            sweep.SweepConfig(m_min=-0.5)
        assert cli.main(["sweep", "--m-min", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": "m must be nonnegative (phase removed)"}

    def test_nan_tol_is_a_cli_error(self, capsys):
        assert cli.main(["sweep", "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ValueError"

    @pytest.mark.parametrize("r", [178.0, 400.0, 1e3])
    def test_overflowing_reference_is_a_typed_error(self, r, capsys):
        with pytest.raises(NumericDomainError):
            sweep.SweepConfig(r=r)
        assert cli.main(["sweep", "--r", repr(r)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NumericDomainError"

    @pytest.mark.parametrize("field", ["r", "n_min", "n_max", "m_min", "m_max", "tol"])
    @pytest.mark.parametrize("value", [10**400, -10**400])
    def test_int_beyond_float64_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            sweep.SweepConfig(**{field: value})

    @pytest.mark.parametrize("field", ["n_steps", "m_steps"])
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(4.0), True, "5"])
    def test_steps_must_be_ints(self, field, value):
        with pytest.raises(TypeError, match="grid steps must be ints"):
            sweep.SweepConfig(**{field: value})

    @pytest.mark.parametrize("field", ["r", "n_min", "n_max", "m_min", "m_max", "tol"])
    @pytest.mark.parametrize("value", [True, False, np.True_, "1.0"])
    def test_bools_and_strings_are_refused(self, field, value):
        with pytest.raises(TypeError, match="expected a number"):
            sweep.SweepConfig(**{field: value})

    @pytest.mark.parametrize("n_steps, m_steps", [
        (2**63 - 1, 3), (2**63 - 2, 3), (2**63 - 3, 3), (2**62, 3), (3, 2**62),
        (sys.maxsize // 128 + 1, 2),
    ])
    def test_grid_too_large_to_index_is_refused(self, n_steps, m_steps, capsys):
        # 64 bytes a point must stay an index-sized int: near 2^63 steps numpy's
        # linspace raises IndexError, near 2^62 its own ValueError
        with pytest.raises(ValueError, match="^sweep grid is too large$"):
            sweep.SweepConfig(n_steps=n_steps, m_steps=m_steps)
        assert cli.main(["sweep", "--n-steps", str(n_steps), "--m-steps", str(m_steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError",
                                            "message": "sweep grid is too large"}

    @pytest.mark.parametrize("n_steps, m_steps", [(2**31, 2), (sys.maxsize // 128, 2)])
    def test_grid_that_indexes_constructs(self, n_steps, m_steps):
        cfg = sweep.SweepConfig(n_steps=n_steps, m_steps=m_steps)
        assert (cfg.n_steps, cfg.m_steps) == (n_steps, m_steps)

    def test_numpy_ints_are_steps(self):
        cfg = sweep.SweepConfig(n_steps=np.int64(9), m_steps=np.int32(7))
        assert cfg.n_values().tolist() == sweep.SweepConfig(n_steps=9).n_values().tolist()
        assert cfg.m_values().tolist() == sweep.SweepConfig(m_steps=7).m_values().tolist()

    def test_underflowing_normalizer_is_a_typed_error(self):
        with pytest.raises(NumericDomainError):
            sweep.SweepConfig(r=1e-160)

    def test_largest_representable_squeezing_sweeps(self):
        sweep.sweep_grid(sweep.SweepConfig(r=177.0, n_steps=2, m_steps=2))

    @pytest.mark.parametrize("method, cfg", [
        ("n_values", sweep.SweepConfig(n_min=-1e308, n_max=1e308, n_steps=3, m_steps=3)),
        # the last step rounds past float64
        ("m_values", sweep.SweepConfig(m_max=sys.float_info.max, m_steps=4)),
    ])
    def test_axis_values_past_float64_are_a_domain_error(self, method, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError,
                               match="^float64 arithmetic failed: overflow encountered in "):
                getattr(cfg, method)()

    def _overflow_cli_error(self, argv, capsys) -> str:
        # main's exit 2 and its JSON error, whose message it returns
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["error"] == "NumericDomainError"
        return error["message"]

    def test_float64_overflow_is_a_cli_domain_error(self, overflow_argv, capsys):
        # numpy's wording after the prefix may differ by version
        message = self._overflow_cli_error(overflow_argv, capsys)
        assert message.startswith("float64 arithmetic failed: overflow encountered in ")

    def test_sweep_grid_raises_the_cli_error(self, overflow_argv, capsys):
        cfg = cli._from_args(sweep.SweepConfig, cli._parser().parse_args(overflow_argv))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError) as caught:
                sweep.sweep_grid(cfg)
        assert str(caught.value) == self._overflow_cli_error(overflow_argv, capsys)
