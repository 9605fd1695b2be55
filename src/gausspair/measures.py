"""Fidelity and Bures-distance machinery and the pictorial entanglement degree.

For Gaussian states with at least one pure party the overlap trace is an
inverse square-root determinant of the summed covariances, which is all the
fidelity needed here: references are always pure.  :func:`trace_overlap` is
that determinant for any two covariance matrices.  The entanglement degree
takes it from the moments instead, in the frame where the twin-beam
reference is diagonal, as the product of the pivots of one ``LDL^T`` of the
sum.  Measured against the exact determinant of its float frame, it erred
by at most 4.8e-14 relative on random physical states, and against a
350-digit referee by up to 7.2e-11 on near-pure ones (squeezing up to 5),
whose frame entries cancel.  The degree compares the Bures distance of a
state from the twin-beam squeezed reference against the distance of the
correlation-free (traced-out) reference, scaled so the reference itself
scores 1 and the correlation-free state scores 0.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .classicality import ModeParams
from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, _number, is_separable
from .covariance import _number_array
from .errors import DegenerateStateError, NumericDomainError
from .tmtss import _symmetric_points

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class MeasureReport:
    """Fidelity, Bures distance, entanglement degree and the separability verdict."""

    fidelity: float
    bures: float
    degree: float
    separable: bool


@contextlib.contextmanager
def _float64_errors(what: str = "float64 arithmetic failed"):
    # numpy's float64 overflow, division by zero and invalid results in the block
    # as NumericDomainError("<what>: <numpy's message>") where they happen, not a warning
    import numpy as np
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as err:
        raise NumericDomainError(f"{what}: {err}") from None


def trace_overlap(va: np.ndarray, vb: np.ndarray) -> float:
    """Overlap trace of two Gaussian states from their covariance matrices.

    Returns ``1/sqrt(det(va + vb))`` in this covariance convention.  Equals
    the Uhlmann fidelity only when at least one of the states is pure, which
    is the caller's contract.  Works for one-mode (2x2) and two-mode (4x4)
    matrices of equal size, admitted as complex fields are (a ``bool`` or a
    string is a ``TypeError``) and read in complex128.  Raises
    :class:`NumericDomainError`, without a numpy warning, where the
    determinant overflows float64.
    """
    import numpy as np
    va, vb = _number_array(va, complex), _number_array(vb, complex)
    if va.shape != vb.shape or va.shape not in {(2, 2), (4, 4)}:
        raise ValueError("need two covariance matrices of equal shape (2x2 or 4x4)")
    with _float64_errors("overlap determinant is not finite in float64"):
        det = np.linalg.det(va + vb)
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
    scalar form.  Any real ``r`` is a reference, ``r <= 0`` included.  Raises
    :class:`NumericDomainError` for a NaN ``r``, where the bracket overflows
    float64 (``|r|`` above about 355, an int ``r`` beyond float64, or moments
    above about 1e154) and where it is not positive.
    """
    r = _squeezing(r)
    try:
        c2 = math.cosh(2.0 * r)
        s2 = math.sinh(2.0 * r)
        bracket = md.n ** 2 - abs(md.m) ** 2 + md.n * c2 + md.m.real * s2 + 0.25
    except OverflowError:
        bracket = math.inf
    if not math.isfinite(bracket):
        raise NumericDomainError(f"fidelity bracket is not finite in float64 at r={r:g}")
    if bracket <= 0.0:
        raise NumericDomainError("fidelity bracket is not positive")
    return 1.0 / math.sqrt(bracket)


def bures_from_fidelity(f: float) -> float:
    """Bures distance ``2 - 2 sqrt(F)`` for a fidelity in (0, 1]; a ``bool``
    or anything but a real number is a ``TypeError``."""
    f = _number(f)
    if 1.0 < f <= 1.0 + 1e-12:
        f = 1.0
    return _bures(f)


def _bures(f: float) -> float:
    # 2 - 2 sqrt(F) for a float fidelity, the one refusal of any outside (0, 1]
    if not 0.0 < f <= 1.0:
        raise NumericDomainError("fidelity must lie in (0, 1]")
    return 2.0 - 2.0 * math.sqrt(f)


def _symmetric_distance(n, m, big_n: float, big_m: float, a: float, b: float):
    # Bures distance of (n, n, m_c=m) from the twin-beam reference with
    # moments (big_n, big_m) and 50:50-frame variances a = e^(-2r)/2 and
    # b = e^(2r)/2, elementwise on arrays.  F = 1/det with
    # det = (n+N)^2 - (m+M)^2 = (n - m + a)(n + m + b), and 2 - 2 sqrt(F) is
    # taken as 2 (1 - F)/(1 + sqrt(F)) with 1 - F = (det - 1)/det, which the
    # moments give without cancellation where a fidelity alone cannot.  At
    # small r, det - 1 is taken relative to the traced-out reference (N, 0),
    # where it is 3M^2 and a plain det - 1 would cancel.  The separable
    # distance is this function at (N, 0), so that point scores exactly 0.
    # ** 0.5 serves floats without numpy and arrays as numpy's sqrt, and arrays
    # made here are updated in place (n and m never; a float rebinds).  A scalar
    # det must be positive and finite, and a scalar distance finite (its small-r
    # excess is inf - inf where det is not); arrays fail under the float64 guard.
    det = n - m
    det += a
    t = n + m
    t += b
    det *= t
    scalar = not getattr(det, "ndim", 0)
    if scalar and not 0.0 < det < math.inf:
        raise _overlap_refused(det)
    sep_excess = 3.0 * big_m * big_m
    if sep_excess < 1.0:
        excess = sep_excess + (n - big_n) * (n + 3.0 * big_n) - m * (m + 2.0 * big_m)
    else:
        excess = det - 1.0
    excess /= det
    excess *= 2.0
    t = 1.0 / det
    t **= 0.5
    t += 1.0
    excess /= t
    if scalar and not math.isfinite(excess):
        raise NumericDomainError("Bures distance is not finite in float64")
    return excess


@functools.lru_cache(maxsize=128)
def _reference(r: float) -> tuple[float, float, float, float, float]:
    # The terms every state shares at squeezing r (a float): the separable
    # distance d_sep, the twin-beam reference's occupation N = cosh(2r)/2 and
    # cross moment M = sinh(2r)/2, and its 50:50-frame variances a = e^(-2r)/2,
    # b = e^(2r)/2.  A NaN r, r <= 0, cosh(2r)^2 past float64 (r above about
    # 177) and an underflowing d_sep are typed errors.  lru_cache is
    # thread-safe and stores no exception, so a bad r raises on every call.
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
    big_m = 0.5 * math.sinh(2.0 * r)
    a, b = 0.5 * math.exp(-2.0 * r), 0.5 * math.exp(2.0 * r)
    d_sep = float(_symmetric_distance(big_n, 0.0, big_n, big_m, a, b))
    if not d_sep > 2.0 / sys.float_info.max:  # degrees divide distances <= 2 by it
        raise NumericDomainError(f"separable normalizer underflows at r={r:g}")
    return d_sep, big_n, big_m, a, b


def _squeezing(r) -> float:
    # float(r), admitted as the value types admit numbers: a bool (numpy's
    # included), a str or an ndarray is a TypeError.  NaN and the infinities
    # pass, for _reference to type; an int beyond float64 is typed here.
    if type(r) is float:
        return r
    value = _number(r)
    if isinstance(r, int) and math.isnan(value):
        raise NumericDomainError("reference squeezing r is an int beyond float64")
    return value


def _reference_terms(r) -> tuple[float, float, float, float, float]:
    return _reference(_squeezing(r))


def separable_distance(r: float) -> float:
    """Closed-form Bures distance of the traced-out reference from the twin-beam one.

    The two overlap as ``F_sep = 1/(4N^2 - M^2)``, and ``1 - F_sep`` is
    ``3M^2/(4N^2 - M^2)``, so the distance keeps full relative precision as
    ``r`` goes to 0, where ``2 - 2 sqrt(F_sep)`` cancels.  Raises
    :class:`NumericDomainError` where the distance underflows (``r`` below
    about 1e-154) or the moments overflow, and :class:`DegenerateStateError`
    for ``r <= 0``.
    """
    return _reference_terms(r)[0]


def symmetric_degree(n, m, r: float):
    """Entanglement degree of symmetric-class states ``(n, n, m_c=m)`` with ``m >= 0``.

    The closed form of :func:`entanglement_degree` on that class: the state
    overlaps the phase-aligned reference as ``F = 1/((n+N)^2 - (m+M)^2)``.
    Takes floats or arrays (elementwise) of physical points; the caller
    classifies them first.  A point, and every entry of an array, is admitted
    as :func:`~gausspair.tmtss.classify_symmetric` admits a point: a ``bool``
    or anything but a real number is a ``TypeError``, a value that is not
    finite, an int beyond float64 included, is "n and m must be finite", and
    a negative ``m`` is a ``ValueError``.  A point, numpy scalars and 0-d
    arrays included, is taken in Python floats, and every array in float64.
    Raises :class:`DegenerateStateError` for ``r <= 0``, and
    :class:`NumericDomainError` for a point whose determinant
    ``(n - m + a)(n + m + b)`` is not positive and finite, or whose distance
    is not finite.  Arrays are held to the same contract: numpy's float64
    failures raise :class:`NumericDomainError`, not a warning.
    """
    terms = _reference_terms(r)  # a bad r is refused before a bad point
    return _symmetric_degrees(*_symmetric_points(n, m), terms)


def _symmetric_degrees(n, m, terms):
    # symmetric_degree of admitted points at the terms of _reference_terms: a
    # point in Python floats, whose arithmetic meets the typed error without
    # numpy's warning first, arrays elementwise under the float64 guard.
    # sweep_grid calls it on its classified grid, which SweepConfig admitted.
    d_sep, *terms = terms
    if getattr(n, "ndim", 0) or getattr(m, "ndim", 0):
        with _float64_errors():
            distance = _symmetric_distance(n, m, *terms)
            distance /= d_sep
            return 1.0 - distance  # not -(distance - 1.0), which signs a zero
    return 1.0 - _symmetric_distance(n, m, *terms) / d_sep


def compose_bures(d1: float, d2: float) -> float:
    """Combine per-port Bures distances into the joint one.

    ``d1 + d2 - d1*d2/2``, the image of fidelity multiplication under
    ``d = 2 - 2 sqrt(F)``; with one distance zero (an untouched port) the
    other passes through unchanged.  A distance outside [0, 2], NaN
    included, is a :class:`NumericDomainError`; a ``bool`` or anything but a
    real number is a ``TypeError``.
    """
    d1, d2 = _number(d1), _number(d2)
    if not (0.0 <= d1 <= 2.0 and 0.0 <= d2 <= 2.0):
        raise NumericDomainError("Bures distances must lie in [0, 2]")
    return d1 + d2 - 0.5 * d1 * d2


def _overlap_refused(value: float) -> NumericDomainError:
    # the moments, a and b are finite, so a value that is not comes from an overflow
    what = "not positive" if math.isfinite(value) else "not finite in float64"
    return NumericDomainError(f"overlap determinant is {what}")


def _reference_overlap(p: GaussianParams, a: float, b: float) -> float:
    # Overlap of p with the twin-beam reference whose cross moment is phase
    # aligned with p's; a and b come from _reference.  Party 2 is rotated by
    # the phase u of m_c, which makes both cross moments real and
    # nonnegative, and the quadratures are taken in the 50:50 frame
    # ((x1+x2)/sqrt2, (p1+p2)/sqrt2, (x1-x2)/sqrt2, (p1-p2)/sqrt2), where the
    # reference is diag(b, a, a, b) with a = e^(-2r)/2 and b = e^(2r)/2.
    # Real arithmetic in the order of oracle._frame_moments, so its referees see these entries.
    ms, m1, m2, mc = p.m_s, p.m1, p.m2, p.m_c
    if mc:  # u = e^(i arg m_c), as cmath.exp gives it; |u| = 1 for subnormal m_c too
        phase = math.atan2(mc.imag, mc.real)
        ur, ui = math.cos(phase), math.sin(phase)
    else:
        ur, ui = 1.0, 0.0
    sr, si = ms.real * ur - ms.imag * ui, ms.real * ui + ms.imag * ur  # m_s u
    vr, vi = ur * ur - ui * ui, -(ur * ui + ui * ur)  # conj(u^2)
    tr, ti = m2.real * vr - m2.imag * vi, m2.real * vi + m2.imag * vr  # m2 conj(u^2)
    half, mean, size = 0.5 * (p.n1 + p.n2), 0.5 * (m1.real + tr), abs(mc)
    dn, dr, di = 0.5 * (p.n1 - p.n2), 0.5 * (m1.real - tr), 0.5 * (m1.imag - ti)
    # V in that frame: party blocks [[v0, w], [w, v1]] and [[v2, w], [w, v3]],
    # cross block [[g, h], [k, l]]
    up, down, mp, mm = half + sr, half - sr, mean + size, mean - size
    v0, v1, v2, v3 = up + mp, up - mp, down + mm, down - mm
    w = 0.5 * (m1.imag + ti)
    g, h, k, l = dn + dr, si + di, di - si, dn - dr
    # det(V + diag(b, a, a, b)) by an LDL^T in the order 1, 2, 0, 3 (the a
    # quadratures first), unpivoted: the sum is positive definite for a
    # physical state.  p1 and p2 are refused before they divide, p3 and p4 below.
    p1 = v1 + a
    if not p1 > 0.0:
        raise _overlap_refused(p1)
    e2, e0, e3 = k / p1, w / p1, l / p1
    p2 = v2 + a - k * e2
    if not p2 > 0.0:
        raise _overlap_refused(p2)
    c0, c3 = g - w * e2, w - l * e2  # rows 0 and 3 of column 2 after step 1
    f0, f3 = c0 / p2, c3 / p2
    p3, x03 = v0 + b - w * e0 - c0 * f0, h - l * e0 - c3 * f0
    det = p1 * p2 * (p3 * (v3 + b - l * e3 - c3 * f3) - x03 * x03)
    if not (0.0 < det < math.inf and p3 > 0.0):
        raise _overlap_refused(det)
    return 1.0 / math.sqrt(det)


def _degree_terms(p: GaussianParams, r: float, tol: float) -> tuple[float, float, float]:
    # entanglement_degree's fidelity, Bures distance and degree, for a state
    # the caller has found physical at tol: V + tol I is physical and so
    # overlaps the pure reference sigma by at most 1.  As sigma >= a I,
    # V + sigma >= (1 - tol/a)(V + tol I + sigma), so where a > tol the
    # state's own fidelity is at most (a/(a - tol))^2, and up to that bound
    # a fidelity past 1 is rounding, read as 1.  Past it, or where a <= tol,
    # _bures refuses it: bures_from_fidelity's fixed slack is not applied.
    d_sep, _, _, a, b = _reference_terms(r)  # typed errors for a bad r
    fid = _reference_overlap(p, a, b)
    if fid > 1.0:
        tol = _check_tol(tol)
        if a > tol and fid <= (a / (a - tol)) ** 2:
            fid = 1.0
    bures = _bures(fid)
    return fid, bures, 1.0 - bures / d_sep


def entanglement_degree(
    p: GaussianParams, r: float, tol: float = DEFAULT_TOL
) -> MeasureReport:
    """Entanglement degree of a physical state against the squeezing-``r`` references.

    The reference correlation phase is rotated onto the state's, so the two
    anomalous cross moments add coherently and the result does not depend on
    an arbitrary phase convention.  The degree is 1 minus the ratio of the
    state's Bures distance from the twin-beam reference to the traced-out
    reference's distance; it is reported even when negative.  The fidelity
    is the overlap with the pure reference, a determinant taken by one
    ``LDL^T`` in the reference's own frame (its measured error is in the
    module docstring), up to the ``r`` (about 177) where the reference
    overflows float64.  The traced-out reference's distance is the closed
    form :func:`separable_distance`; it and the reference's variances depend
    on ``r`` alone and are computed once per ``r`` and process.  Raises
    :class:`NonPhysicalStateError` for a nonphysical state.  The degree carries
    information only where ``r**2`` is well above ``tol``: the traced-out distance,
    about ``3 r**2`` at small ``r``, must exceed the fidelity slack ``tol`` admits.
    """
    separable = is_separable(p, tol)  # NonPhysicalStateError before r is read
    return MeasureReport(*_degree_terms(p, r, tol), separable)
