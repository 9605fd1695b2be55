"""Fidelity and Bures-distance machinery and the pictorial entanglement degree.

For Gaussian states with at least one pure party the overlap trace is an
inverse square-root determinant of the summed covariances, which is all the
fidelity needed here: references are always pure.  The entanglement degree
compares the Bures distance of a state from the twin-beam squeezed reference
against the distance of the correlation-free (traced-out) reference, scaled
so the reference itself scores 1 and the correlation-free state scores 0.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .classicality import ModeParams
from .covariance import DEFAULT_TOL, GaussianParams, build_covariance, is_separable
from .errors import DegenerateStateError, NumericDomainError


def _reference_moments(r: float) -> tuple[float, float]:
    """Occupation ``N = cosh(2r)/2`` and cross-moment magnitude ``M = sinh(2r)/2``
    of the twin-beam reference.

    Raises :class:`DegenerateStateError` for ``r <= 0``, and
    :class:`NumericDomainError` for a NaN ``r`` and where ``cosh(2r)^2``,
    which every fidelity against the reference contains, overflows float64
    (``r`` above about 177).
    """
    if math.isnan(r):
        raise NumericDomainError("reference squeezing r=nan is not a number")
    if r <= 0.0:
        raise DegenerateStateError(f"reference squeezing r={r:g} must be positive")
    try:
        big_n = 0.5 * math.cosh(2.0 * r)
    except OverflowError:
        big_n = math.inf
    if not math.isfinite(4.0 * big_n * big_n):
        raise NumericDomainError(f"reference squeezing r={r:g} overflows float64")
    return big_n, 0.5 * math.sinh(2.0 * r)


@dataclass(frozen=True)
class MeasureReport:
    """Fidelity, Bures distance, entanglement degree and the separability verdict."""

    fidelity: float
    bures: float
    degree: float
    separable: bool


def trace_overlap(va: np.ndarray, vb: np.ndarray) -> float:
    """Overlap trace of two Gaussian states from their covariance matrices.

    Returns ``1/sqrt(det(va + vb))`` in this covariance convention.  Equals
    the Uhlmann fidelity only when at least one of the states is pure, which
    is the caller's contract.  Works for one-mode (2x2) and two-mode (4x4)
    matrices of equal size.  Raises :class:`NumericDomainError`, without a
    numpy warning, where the determinant overflows float64.
    """
    va = np.asarray(va, dtype=complex)
    vb = np.asarray(vb, dtype=complex)
    if va.shape != vb.shape or va.shape not in {(2, 2), (4, 4)}:
        raise ValueError("need two covariance matrices of equal shape (2x2 or 4x4)")
    try:
        with np.errstate(over="raise", invalid="raise"):
            det = np.linalg.det(va + vb)
    except FloatingPointError as err:
        raise NumericDomainError(f"overlap determinant is not finite in float64: {err}") from None
    if abs(det.imag) > 1e-9 * max(1.0, abs(det)):
        raise NumericDomainError("overlap determinant is not real")
    if det.real <= 0.0:
        raise NumericDomainError("overlap determinant is not positive")
    return 1.0 / math.sqrt(det.real)


def output_port_fidelity(md: ModeParams, r: float) -> float:
    """Closed-form fidelity of an output-port mode against the squeezed reference.

    Evaluates ``[n^2 - |m|^2 + n cosh(2r) + Re(m) sinh(2r) + 1/4]^(-1/2)``,
    which is the determinant overlap against the reference mode written out;
    with the port moment phase-aligned to real ``|m|`` this is the standard
    scalar form.
    """
    c2 = math.cosh(2.0 * r)
    s2 = math.sinh(2.0 * r)
    bracket = md.n ** 2 - abs(md.m) ** 2 + md.n * c2 + md.m.real * s2 + 0.25
    if bracket <= 0.0:
        raise NumericDomainError("fidelity bracket is not positive")
    return 1.0 / math.sqrt(bracket)


def bures_from_fidelity(f: float) -> float:
    """Bures distance ``2 - 2 sqrt(F)`` for a fidelity in (0, 1]."""
    f = float(f)
    if 1.0 < f <= 1.0 + 1e-12:
        f = 1.0
    if not 0.0 < f <= 1.0:
        raise NumericDomainError("fidelity must lie in (0, 1]")
    return 2.0 - 2.0 * math.sqrt(f)


def _symmetric_distance(n, m, r: float):
    # Bures distance of (n, n, m_c=m) from the twin-beam reference, elementwise
    # on arrays.  F = 1/det with det = (n+N)^2 - (m+M)^2
    # = (n - m + e^(-2r)/2)(n + m + e^(2r)/2), and 2 - 2 sqrt(F) is taken as
    # 2 (1 - F)/(1 + sqrt(F)) with 1 - F = (det - 1)/det, which the moments
    # give without cancellation where a fidelity alone cannot.  At small r,
    # det - 1 is taken relative to the traced-out reference (N, 0), where it
    # is 3M^2 and a plain det - 1 would cancel.  separable_distance is this
    # function at (N, 0), so that point scores exactly 0.
    big_n, big_m = _reference_moments(r)
    det = (n - m + 0.5 * math.exp(-2.0 * r)) * (n + m + 0.5 * math.exp(2.0 * r))
    sep_excess = 3.0 * big_m * big_m
    if sep_excess < 1.0:
        excess = sep_excess + (n - big_n) * (n + 3.0 * big_n) - m * (m + 2.0 * big_m)
    else:
        excess = det - 1.0
    return 2.0 * (excess / det) / (1.0 + np.sqrt(1.0 / det))


def separable_distance(r: float) -> float:
    """Closed-form Bures distance of the traced-out reference from the twin-beam one.

    The two overlap as ``F_sep = 1/(4N^2 - M^2)``, and ``1 - F_sep`` is
    ``3M^2/(4N^2 - M^2)``, so the distance keeps full relative precision as
    ``r`` goes to 0, where ``2 - 2 sqrt(F_sep)`` cancels.  Raises
    :class:`NumericDomainError` where the distance underflows (``r`` below
    about 1e-154) or the moments overflow, and :class:`DegenerateStateError`
    for ``r <= 0``.
    """
    big_n, _ = _reference_moments(r)
    d_sep = float(_symmetric_distance(big_n, 0.0, r))
    if not d_sep > 2.0 / sys.float_info.max:  # degrees divide distances <= 2 by it
        raise NumericDomainError(f"separable normalizer underflows at r={r:g}")
    return d_sep


def symmetric_degree(n, m, r: float):
    """Entanglement degree of symmetric-class states ``(n, n, m_c=m)`` with ``m >= 0``.

    The closed form of :func:`entanglement_degree` on that class: the state
    overlaps the phase-aligned reference as ``F = 1/((n+N)^2 - (m+M)^2)``.
    Takes floats or arrays (elementwise) of physical points; the caller
    classifies them first.  Raises :class:`DegenerateStateError` for
    ``r <= 0``.
    """
    return 1.0 - _symmetric_distance(n, m, r) / separable_distance(r)


def compose_bures(d1: float, d2: float) -> float:
    """Combine per-port Bures distances into the joint one.

    ``d1 + d2 - d1*d2/2``, the image of fidelity multiplication under
    ``d = 2 - 2 sqrt(F)``; with one distance zero (an untouched port) the
    other passes through unchanged.
    """
    return d1 + d2 - 0.5 * d1 * d2


def entanglement_degree(
    p: GaussianParams, r: float, tol: float = DEFAULT_TOL
) -> MeasureReport:
    """Entanglement degree of a physical state against the squeezing-``r`` references.

    The reference correlation phase is rotated onto the state's, so the two
    anomalous cross moments add coherently and the result does not depend on
    an arbitrary phase convention.  The degree is 1 minus the ratio of the
    state's Bures distance from the twin-beam reference to the traced-out
    reference's distance; it is reported even when negative.  The traced-out
    reference's distance is the closed form :func:`separable_distance`.
    Raises :class:`NonPhysicalStateError` for a nonphysical state.
    """
    separable = is_separable(p, tol)
    big_n, big_m = _reference_moments(r)
    phase = cmath.phase(p.m_c) if p.m_c != 0 else 0.0
    sigma = GaussianParams(n1=big_n, n2=big_n, m_c=big_m * cmath.exp(1j * phase))
    fid = trace_overlap(build_covariance(p), build_covariance(sigma))
    bures = bures_from_fidelity(fid)
    return MeasureReport(
        fidelity=fid,
        bures=bures,
        degree=1.0 - bures / separable_distance(r),
        separable=separable,
    )
