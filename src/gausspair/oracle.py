"""Brute-force verification backends, kept apart from the production criteria.

No other module of the package imports this one; the test suite uses
these routines to cross-check closed-form results through unrelated
algorithms (Jacobi rotations, Fock-basis sums, direct quadrature, the full
4x4 conjugation through the mixer matrix, the matrix partial transpose, an
eigenvalue test of joint classicality, a many-digit determinant, the
complex minor-sum route to the reference overlap and the exact rational
determinant of its frame), and build the one-mode and local-operation
matrices those routes take.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .classicality import ModeParams
from .covariance import DEFAULT_TOL, GaussianParams
from .errors import NumericDomainError
from .mixer import LocalOperations, MixerConfig

_OFFDIAG_TARGET = 1e-15
_MAX_SWEEPS = 60

#: sign pattern of the mode commutators [v, v+] for both modes of the pair
#: in the (a1+, a1, a2+, a2) ordering
COMMUTATOR_SIGNATURE = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)


def eig_min_hermitian(h: np.ndarray, herm_tol: float = 1e-10):
    """Minimum eigenvalue of small Hermitian matrices by cyclic Jacobi sweeps.

    Accepts one ``(n, n)`` matrix or a stack ``(..., n, n)`` and returns a
    float or an array of floats.  Each sweep annihilates every off-diagonal
    entry once with a complex plane rotation; convergence is quadratic and
    the result is accurate to well below 1e-10 for the matrix sizes used
    here.  The implementation shares no code with ``numpy.linalg`` eigen
    drivers, which is the point: it exists to referee them.

    Raises ValueError when the input deviates from Hermitian by more than
    ``herm_tol``.
    """
    a = np.array(h, dtype=complex)
    single = a.ndim == 2
    if single:
        a = a[None, :, :]
    if a.ndim != 3 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {np.shape(h)}")
    n = a.shape[-1]
    if float(np.abs(a - a.conj().transpose(0, 2, 1)).max()) > herm_tol:
        raise ValueError("input is not Hermitian")

    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, float(np.abs(a[:, p, q]).max()))
        if off <= _OFFDIAG_TARGET * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[:, p, q]
                r = np.abs(apq)
                active = r > 1e-300
                safe_r = np.where(active, r, 1.0)
                phi = np.angle(apq)
                tau = (a[:, q, q].real - a[:, p, p].real) / (2.0 * safe_r)
                sign = np.where(tau >= 0.0, 1.0, -1.0)
                t = np.where(active, sign / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                e = np.exp(1j * phi)
                colp = a[:, :, p].copy()
                colq = a[:, :, q].copy()
                a[:, :, p] = c[:, None] * colp - (s * e.conj())[:, None] * colq
                a[:, :, q] = (s * e)[:, None] * colp + c[:, None] * colq
                rowp = a[:, p, :].copy()
                rowq = a[:, q, :].copy()
                a[:, p, :] = c[:, None] * rowp - (s * e)[:, None] * rowq
                a[:, q, :] = (s * e.conj())[:, None] * rowp + c[:, None] * rowq

    mins = np.min(np.diagonal(a, axis1=-2, axis2=-1).real, axis=-1)
    return float(mins[0]) if single else mins


def overlap_fock_tmsv(l1: float, l2: float) -> float:
    """Squared overlap of two twin-beam squeezed vacua from their Fock series.

    Each state is a normalized geometric superposition of twin Fock pairs
    with ratio ``l``; the cross amplitude is summed term by term until the
    geometric tail bound drops below 1e-15.
    """
    l1 = float(l1)
    l2 = float(l2)
    if not (abs(l1) < 1.0 and abs(l2) < 1.0):
        raise ValueError("Fock-series overlap needs |l| < 1")
    x = l1 * l2
    total = 0.0
    term = 1.0
    for _ in range(100000):
        total += term
        term *= x
        tail = abs(term) / (1.0 - abs(x)) if abs(x) < 1.0 else abs(term)
        if tail < 1e-15 * max(1.0, abs(total)):
            break
    return (1.0 - l1 * l1) * (1.0 - l2 * l2) * total * total


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Hermite grid: nodes per axis and an optional fixed scale.

    With ``scale=None`` the substitution is chosen so the slowest-decaying
    direction of the integrand matches the Gauss-Hermite weight exactly.
    """

    nodes: int = 32
    scale: float | None = None


def overlap_numint(va: np.ndarray, vb: np.ndarray, grid: QuadratureSpec | None = None) -> float:
    """State overlap by direct integration of the two characteristic functions.

    The product of two Gaussian characteristic functions is integrated over
    all real phase-space coordinates (two per mode).  In this covariance
    convention the normalization constant is 1/pi per mode, calibrated so
    the vacuum self-overlap integrates to exactly 1.

    Raises :class:`NumericDomainError` when the summed covariance is not
    positive definite, since the integrand then fails to decay.
    """
    grid = grid or QuadratureSpec()
    va = np.asarray(va, dtype=complex)
    vb = np.asarray(vb, dtype=complex)
    if va.shape != vb.shape or va.shape not in {(2, 2), (4, 4)}:
        raise ValueError("need two covariance matrices of equal shape (2x2 or 4x4)")
    n_modes = va.shape[0] // 2

    # Real quadratic form of the exponent: eta = J x maps the per-mode real
    # coordinates (x, y) to the doubled pair (eta, eta*).
    j_mode = np.array([[1.0, 1.0j], [1.0, -1.0j]])
    j_full = np.kron(np.eye(n_modes), j_mode)
    b = (j_full.conj().T @ (va + vb) @ j_full).real

    eigs = np.linalg.eigvalsh(b)
    if eigs[0] <= 1e-12:
        raise NumericDomainError("summed covariance is not positive definite")
    alpha = grid.scale if grid.scale is not None else np.sqrt(2.0 / eigs[0])
    bs = (alpha * alpha) * b

    t, w = np.polynomial.hermite.hermgauss(grid.nodes)
    dims = 2 * n_modes
    axes = np.meshgrid(*([t] * (dims - 1)), indexing="ij")
    waxes = np.meshgrid(*([w] * (dims - 1)), indexing="ij")
    tail = np.stack([ax.ravel() for ax in axes])  # (dims-1, K)
    w_tail = np.prod(np.stack([wx.ravel() for wx in waxes]), axis=0)

    total = 0.0
    # Chunk over the first axis; each chunk evaluates the quadratic form on
    # the remaining tensor grid in one vectorized pass.
    q_tail = np.einsum("ik,ij,jk->k", tail, bs[1:, 1:], tail)
    for i, t0 in enumerate(t):
        cross = 2.0 * t0 * (bs[0, 1:] @ tail)
        q = bs[0, 0] * t0 * t0 + cross + q_tail
        g = np.exp(t0 * t0 + np.sum(tail * tail, axis=0) - 0.5 * q)
        total += w[i] * float(np.dot(w_tail, g))

    return float(alpha ** dims * total / np.pi ** n_modes)


def mode_covariance(md: ModeParams) -> np.ndarray:
    """The 2x2 covariance block of a single mode."""
    return np.array([[md.n, md.m], [md.m.conjugate(), md.n]], dtype=complex)


def local_operation_matrix(ops: LocalOperations, party: int) -> np.ndarray:
    """The 2x2 mode matrix of one party's normal-form operation: rotation, then squeeze.

    The matrix route to the congruence that
    :func:`gausspair.mixer.local_normal_form` applies in closed form.
    """
    if party == 1:
        phi, z = ops.rotation1, ops.squeeze1
    elif party == 2:
        phi, z = ops.rotation2, ops.squeeze2
    else:
        raise ValueError("party must be 1 or 2")
    rotation = np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])
    ch, sh = math.cosh(z), math.sinh(z)
    return rotation @ np.array([[ch, sh], [sh, ch]], dtype=complex)


def _half_blocks(cfg: MixerConfig) -> tuple[np.ndarray, np.ndarray]:
    r = math.cos(cfg.theta) * np.diag([cmath.exp(1j * cfg.phi0), cmath.exp(-1j * cfg.phi0)])
    s = math.sin(cfg.theta) * np.diag([cmath.exp(1j * cfg.phi1), cmath.exp(-1j * cfg.phi1)])
    return r, s


def build_mixer(cfg: MixerConfig) -> np.ndarray:
    """The 4x4 mode-vector matrix of the mixer."""
    r, s = _half_blocks(cfg)
    return np.block([[r, s], [-s.conj(), r.conj()]])


def mixer_inverse(cfg: MixerConfig) -> np.ndarray:
    """Closed-form inverse; the block structure makes the mixer unitary."""
    r, s = _half_blocks(cfg)
    return np.block([[r.conj(), -s], [s.conj(), r]])


def transform_full(v: np.ndarray, cfg: MixerConfig) -> np.ndarray:
    """Conjugate a covariance matrix through the mixer (inverse on the left).

    The matrix route to what :func:`gausspair.mixer.mix_params` computes in
    closed form.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    return mixer_inverse(cfg) @ v @ build_mixer(cfg)


def partial_transpose(v: np.ndarray) -> np.ndarray:
    """Mirror party 2 in phase space: swap rows 2 and 3 and columns 2 and 3.

    The PPT referee: a state is separable exactly when its party-2 mirror,
    the partial transpose, is physical.  An involution.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    order = [0, 1, 3, 2]
    return v[np.ix_(order, order)]


def is_p_representable_joint_eig(v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Joint classicality by eigenvalues: ``V - I/2`` has no eigenvalue below ``-tol``.

    The matrix route to what :func:`gausspair.classicality.is_p_representable_joint`
    decides by elimination on the moments.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    return float(np.linalg.eigvalsh(v - 0.5 * np.eye(4))[0]) >= -tol


def _decimal_quadratures(n1, n2, m1, m2, ms, mc) -> list[list[Decimal]]:
    # the real covariance over (x1, p1, x2, p2); each m is a (re, im) pair
    return [
        [n1 + m1[0], m1[1], ms[0] + mc[0], mc[1] - ms[1]],
        [m1[1], n1 - m1[0], ms[1] + mc[1], ms[0] - mc[0]],
        [ms[0] + mc[0], ms[1] + mc[1], n2 + m2[0], m2[1]],
        [mc[1] - ms[1], ms[0] - mc[0], m2[1], n2 - m2[0]],
    ]


def _elimination_det(a: list[list]):
    # Gaussian elimination with partial pivoting: exact on Fractions, in the
    # current context on Decimals
    a = [row[:] for row in a]
    det = 1
    for col in range(len(a)):
        pivot = max(range(col, len(a)), key=lambda row: abs(a[row][col]))
        if a[pivot][col] == 0:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for row in range(col + 1, len(a)):
            factor = a[row][col] / a[col][col]
            for j in range(col, len(a)):
                a[row][j] -= factor * a[col][j]
    return det


def reference_overlap_decimal(p, r: float) -> float:
    """Overlap of the state ``p`` with its phase-aligned twin-beam reference, in ``decimal``.

    Adds the real quadrature covariances ``(x1, p1, x2, p2)`` of ``p`` and of
    the reference (occupation ``N = cosh(2r)/2``, cross moment
    ``M e^{i arg m_c}`` with ``M = sinh(2r)/2``, both from ``Decimal.exp``)
    and returns ``1/sqrt(det)`` of the sum, the determinant by elimination at
    350 significant digits.  The reference's squeezed variances are
    ``N - M = e^{-2r}/2``, so the digits must cover ``4r/ln 10`` digits of
    cancellation on top of float64's: enough for ``r`` up to about 170.
    """
    with localcontext() as ctx:
        ctx.prec = 350
        up, down = (2 * Decimal(r)).exp(), (-2 * Decimal(r)).exp()
        big_n, big_m = (up + down) / 4, (up - down) / 4
        re, im = Decimal(p.m_c.real), Decimal(p.m_c.imag)
        size = (re * re + im * im).sqrt()
        cos, sin = (re / size, im / size) if size else (Decimal(1), Decimal(0))
        zero = (Decimal(0), Decimal(0))

        def pair(z: complex) -> tuple[Decimal, Decimal]:
            return Decimal(z.real), Decimal(z.imag)

        state = _decimal_quadratures(Decimal(p.n1), Decimal(p.n2), pair(p.m1), pair(p.m2),
                                     pair(p.m_s), pair(p.m_c))
        ref = _decimal_quadratures(big_n, big_n, zero, zero, zero, (big_m * cos, big_m * sin))
        det = _elimination_det([[x + y for x, y in zip(u, w)] for u, w in zip(state, ref)])
        if det <= 0:
            raise NumericDomainError("summed covariance is not positive definite")
        return float(1 / det.sqrt())


def _quadrature_entries(n1, n2, m1, m2, ms, mc) -> tuple:
    # (x1x1, x1p1, p1p1, x2x2, x2p2, p2p2) and the cross block's rows x1, p1
    plus, minus = ms + mc, ms - mc
    return (n1 + m1.real, m1.imag, n1 - m1.real, n2 + m2.real, m2.imag, n2 - m2.real,
            plus.real, -minus.imag, plus.imag, minus.real)


def quadrature_minors(
    n1: float, n2: float, m1: complex, m2: complex, ms: complex, mc: complex
) -> tuple[float, ...]:
    """Principal minors of the real covariance of six moments in the quadrature
    basis ``(x1, p1, x2, p2)``.

    Party blocks ``[[n + Re m, Im m], [Im m, n - Re m]]`` and the cross block
    ``[[Re(ms + mc), Im(mc - ms)], [Im(ms + mc), Re(ms - mc)]]``, as in
    :func:`gausspair.covariance._elimination_verdicts`, the one kernel of the
    physicality, PPT and joint classicality passes.  Entry ``mask`` of
    the returned 16-tuple is the minor on the quadratures whose bits are set
    in ``mask`` (bit 0 is ``x1``, bit 3 is ``p2``); entry 0 is the empty
    minor, 1.  Plain float products, so an overflow gives ``inf`` or ``nan``.
    """
    a, c, b, d, f, e, g, h, k, l = _quadrature_entries(n1, n2, m1, m2, ms, mc)
    r02, r03, r12, r13 = a * k - c * g, a * l - c * h, c * k - b * g, c * l - b * h
    s02, s03, s12, s13 = g * f - d * h, g * e - f * h, k * f - d * l, k * e - f * l
    r01, s23, cross = a * b - c * c, d * e - f * f, g * l - h * k
    return (
        1.0, a, b, r01, d, a * d - g * g, b * d - k * k,
        b * (a * d - g * g) - c * (c * d - 2.0 * g * k) - a * k * k,
        e, a * e - h * h, b * e - l * l,
        b * (a * e - h * h) - c * (c * e - 2.0 * h * l) - a * l * l,
        s23, a * s23 - g * s03 + h * s02, b * s23 - k * s13 + l * s12,
        r01 * s23 - r02 * s13 + r03 * s12 + r12 * s03 - r13 * s02 + cross * cross,
    )


def _frame_moments(p: GaussianParams) -> tuple:
    # p's six moments in the aligned reference's 50:50 frame, party 2 rotated
    # by the phase u of m_c; their quadrature entries are the frame entries
    # (v0, w, v1, v2, w, v3, g, h, k, l) of measures._reference_overlap
    u = cmath.exp(1j * cmath.phase(p.m_c)) if p.m_c != 0 else 1.0
    ms, m2, mc = p.m_s * u, p.m2 * (u * u).conjugate(), abs(p.m_c)
    half, mean = 0.5 * (p.n1 + p.n2), 0.5 * (p.m1 + m2)
    return (half + ms.real, half - ms.real, mean + mc, mean - mc,
            complex(0.5 * (p.n1 - p.n2), -ms.imag), 0.5 * (p.m1 - m2))


def reference_overlap_minors(p: GaussianParams, a: float, b: float) -> float:
    """Overlap of ``p`` with its phase-aligned twin-beam reference, by complex
    moments and :func:`quadrature_minors`.

    The former production route, now a referee of
    :func:`gausspair.measures._reference_overlap`: party 2 rotated by the
    phase ``u`` of ``m_c``, the moments repacked as complex numbers in the
    50:50 frame, where the reference is ``diag(b, a, a, b)``, and the
    determinant of the sum taken as the reference's variances times the
    state's principal minors.  The 16 terms are nonnegative, but the minors
    of a near-pure state cancel, so this route is not exact either.  Raises
    :class:`NumericDomainError` where that determinant is not finite or not
    positive.
    """
    m = quadrature_minors(*_frame_moments(p))
    det = (
        m[15] + b * (m[7] + m[14]) + a * (m[11] + m[13]) + b * b * m[6] + a * a * m[9]
        + 0.25 * (m[3] + m[5] + m[10] + m[12] + a * (m[1] + m[8]) + b * (m[2] + m[4]) + 0.25)
    )
    if not math.isfinite(det):
        raise NumericDomainError("overlap determinant is not finite in float64")
    if det <= 0.0:
        raise NumericDomainError("overlap determinant is not positive")
    return 1.0 / math.sqrt(det)


def overlap_minors_exact(p: GaussianParams, a: float, b: float) -> tuple[Fraction, ...]:
    """Exact leading principal minors of ``M = V + diag(b, a, a, b)`` on the
    frame quadratures 1; 1, 2; 1, 2, 0 and all four, the last being ``det M``.

    ``V`` holds the float entries of ``p``'s covariance in the aligned
    reference's 50:50 frame, rounded as
    :func:`gausspair.measures._reference_overlap` rounds them before it
    eliminates in that order; from there on every step is exact in
    :class:`fractions.Fraction`, so this referees the elimination alone.
    ``M`` is positive definite exactly when all four minors are positive
    (Sylvester's criterion).
    """
    v0, w, v1, v2, w2, v3, g, h, k, l = map(Fraction, _quadrature_entries(*_frame_moments(p)))
    a, b = Fraction(a), Fraction(b)
    m = [[v1 + a, k, w, l], [k, v2 + a, g, w2], [w, g, v0 + b, h], [l, w2, h, v3 + b]]
    return tuple(_elimination_det([row[:size] for row in m[:size]]) for size in range(1, 5))
