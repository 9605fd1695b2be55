"""Brute-force verification backends, kept apart from the production criteria.

Nothing in this module is imported by the decision code; the test suite uses
these routines to cross-check closed-form results through unrelated
algorithms (Jacobi rotations, Fock-basis sums, direct quadrature, and the
full 4x4 conjugation through the mixer matrix).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .mixer import MixerConfig

_OFFDIAG_TARGET = 1e-15
_MAX_SWEEPS = 60


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
