"""Covariance representation of two-mode Gaussian states and the closed-form criteria.

A zero-mean two-mode Gaussian state is fixed by six second moments: the
symmetric-ordered occupations ``n1``, ``n2``, the single-mode anomalous
moments ``m1``, ``m2``, and two cross moments ``m_s`` (same-operator type)
and ``m_c`` (conjugate type).  They fill a 4x4 Hermitian matrix over the
ordered basis ``(a1+, a1, a2+, a2)``; the vacuum has ``n = 1/2`` and all
``m`` zero.

One ``LDL^H`` elimination kernel decides three questions, by the positivity
of ``H = V_q + shift I + i half Omega``: the covariance in the real
quadrature basis ``(x1, p1, x2, p2)``, read off the six moments, plus a
multiple of the symplectic form.  At ``(tol, 1/2)`` one pass decides
physicality (``V`` plus half the commutator signature is positive) and
separability, i.e. physicality after mirroring the second party in phase
space (:func:`mirror_party2`; the PPT test, necessary and sufficient for
these states), since the mirror only flips the sign of the ``(x2, p2)``
commutator entry.  At ``(tol - 1/2, 0)`` it decides joint classicality
(:mod:`gausspair.classicality`), ``V_q - (1/2 - tol) I > 0``, which implies
both, so that pass runs only on physical separable states.  One function,
``_verdicts``, owns that rule and gives all three verdicts;
:func:`is_physical` and :func:`is_separable` run the first pass alone.
``tol`` is slack on the smallest eigenvalue, as in the one-mode and
symmetric-class bounds.
Rounding moves the boundary by ``~1e-16 |V|``; ``tol`` is absolute, so once
that nears it (``|V|`` around 1e6 to 1e7 at the default) no float64 route,
``eigvalsh`` included, keeps the verdict within ``tol`` on both sides.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import NonPhysicalStateError, NumericDomainError

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9


def _check_tol(tol) -> float:
    # every public function taking tol calls this or reaches it through
    # is_physical, and works on the float it returns: admitted by the value
    # types' rule (a bool, a string or an array is a TypeError), then positive
    # and finite, since a NaN makes each bound comparison False and would flip
    # verdicts without an error
    if type(tol) is not float:
        tol = _number(tol)
    if not 0.0 < tol <= sys.float_info.max:
        raise ValueError("tol must be positive and finite")
    return tol


def _number(value, kind=float):
    # The value types' type rule, numbers only (float() reads "1.5" and
    # True), then kind(value), finite or not, an int beyond float64 read as NaN
    import numbers
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        return kind(value)
    except OverflowError:  # an int beyond float64
        return kind(math.nan)


def _finite_numbers(what: str, kinds: tuple, *values) -> tuple:
    # The admission rule of every value type: each value by _number to its kind
    # (float or complex), and finite, an int beyond float64 included
    converted = tuple(map(_number, values, kinds))
    if all(map(cmath.isfinite, converted)):
        return converted
    raise ValueError(f"{what} must be finite")


@dataclass(frozen=True, init=False)
class GaussianParams:
    """The six observables defining a two-mode Gaussian covariance matrix."""

    n1: float
    n2: float
    m1: complex = 0j
    m2: complex = 0j
    m_s: complex = 0j
    m_c: complex = 0j

    def __init__(self, n1, n2, m1=0j, m2=0j, m_s=0j, m_c=0j):
        # exact builtin types whose sum is finite, so each field is: no conversion
        if not (type(n1) is type(n2) is float
                and type(m1) is type(m2) is type(m_s) is type(m_c) is complex
                and cmath.isfinite(n1 + n2 + m1 + m2 + m_s + m_c)):
            n1, n2, m1, m2, m_s, m_c = _finite_numbers(
                "Gaussian parameters", (float, float, complex, complex, complex, complex),
                n1, n2, m1, m2, m_s, m_c)
        # one store per field, past the frozen __setattr__ that refuses assignment
        self.__dict__.update(n1=n1, n2=n2, m1=m1, m2=m2, m_s=m_s, m_c=m_c)


def _blocks(n1, n2, m1, m2, ms, mc) -> tuple:
    # the one writer of the (a1+, a1, a2+, a2) layout: the party blocks v1,
    # v2 and the cross block c of six moments, as 2x2 nested tuples, rows
    # first; the lower left block of the matrix is c^dagger
    return (((n1, m1), (m1.conjugate(), n1)), ((n2, m2), (m2.conjugate(), n2)),
            ((ms, mc), (mc.conjugate(), ms.conjugate())))


def build_covariance(p: GaussianParams) -> np.ndarray:
    """Assemble the 4x4 Hermitian covariance matrix in the (a1+, a1, a2+, a2) basis."""
    import numpy as np
    v1, v2, c = np.array(_blocks(p.n1, p.n2, p.m1, p.m2, p.m_s, p.m_c), dtype=complex)
    return np.block([[v1, c], [c.conj().T, v2]])


def mirror_party2(p: GaussianParams) -> GaussianParams:
    """The partial transpose on the six moments: mirror party 2 in phase space.

    Exchanging ``a2+`` with ``a2`` conjugates ``m2`` and swaps ``m_s`` with
    ``m_c``; :func:`build_covariance` of the result is the partially
    transposed matrix entry for entry.  An involution.
    """
    return GaussianParams(n1=p.n1, n2=p.n2, m1=p.m1, m2=p.m2.conjugate(), m_s=p.m_c, m_c=p.m_s)


def schur_terms(p: GaussianParams, tol: float) -> tuple[float, complex, float]:
    """Scalars ``(s, c, d)`` of the Schur reduction of ``V + tol I``.

    A retained referee: no verdict of the package uses it any more, because
    its bound ``s/d + sqrt(...)`` cancels at large moments (its rounding
    passes ``tol`` once ``n1`` is in the hundreds); the tests use it to place
    states near the physical and PPT boundaries.
    With ``A`` and ``C`` the party-1 and cross blocks of ``V + tol I`` plus
    half the commutator signature, ``d = det A`` and ``C^dagger adj(A) C`` is
    ``[[s + k/2, c], [conj(c), s - k/2]]`` with ``k = |m_c|^2 - |m_s|^2``.
    ``adj(A + tol I) = adj(A) + tol I``, so the shift is the party-1
    occupation ``n1 + tol`` and nothing else; ``tol = 0`` gives the terms of
    ``V``.  ``s`` and ``d`` are real by construction; ``d <= 0`` signals a
    singular (or nonphysical) party-1 pivot and must be handled by the
    caller.  ``tol`` is admitted by the value types' rule, so ``0.0`` is
    legal.  Raises :class:`NumericDomainError` when a term overflows float64.
    """
    n1 = p.n1 + _finite_numbers("tol", (float,), tol)[0]  # a Python float: no numpy warning
    try:
        w = p.m_c * p.m_s * p.m1.conjugate()
        s = n1 * (abs(p.m_c) ** 2 + abs(p.m_s) ** 2) - 2.0 * w.real
        c = (
            2.0 * n1 * p.m_s.conjugate() * p.m_c
            - p.m_c ** 2 * p.m1.conjugate()
            - p.m_s.conjugate() ** 2 * p.m1
        )
        d = n1 ** 2 - 0.25 - abs(p.m1) ** 2
    except OverflowError:
        raise NumericDomainError("moments overflow float64 in the Schur terms") from None
    if not (math.isfinite(s) and cmath.isfinite(c) and math.isfinite(d)):
        raise NumericDomainError("moments overflow float64 in the Schur terms")
    return s, c, d


def _rejected(pivot: float) -> bool:
    # False, the verdict where a pivot failed 0 < pivot < inf, or a typed
    # error where it is not finite (an overflow)
    if math.isfinite(pivot):
        return False
    raise NumericDomainError("moments overflow float64 in the elimination")


def _elimination_verdicts(p: GaussianParams, shift: float, half: float) -> tuple[bool, bool]:
    """Whether ``H = V_q + shift I + i half Omega`` and its party-2 mirror are
    positive definite (all four pivots positive), by one ``LDL^H`` pass.

    ``V_q`` is the real covariance of the six moments in the quadrature
    basis ``(x1, p1, x2, p2)``, unitarily equivalent to
    :func:`build_covariance`: party blocks ``[[n + Re m, Im m], [Im m, n - Re m]]``
    and the cross block ``[[Re(ms + mc), Im(mc - ms)], [Im(ms + mc), Re(ms - mc)]]``
    (rows ``x1``, ``p1``; columns ``x2``, ``p2``).
    ``Omega`` is ``+1`` above the diagonal at ``(x1, p1)`` and ``(x2, p2)``;
    the mirror's ``-1`` at ``(x2, p2)`` reaches only the last pivot, and at
    ``half = 0`` the two verdicts agree.
    Raises :class:`NumericDomainError` where a pivot is not finite.
    """
    # V_q = [[a, c, g, h], [c, b, k, l], [g, k, d, f], [h, l, f, e]]; each
    # entry is read when the pass first needs it
    m1, m2 = p.m1, p.m2
    a = p.n1 + m1.real
    d0 = a + shift
    if not 0.0 < d0 < math.inf:
        return _rejected(d0), False
    b, c, r0 = p.n1 - m1.real, m1.imag, 1.0 / d0
    d1 = b + shift - (c * c + half * half) * r0
    if not 0.0 < d1 < math.inf:
        return _rejected(d1), False
    plus, minus = p.m_s + p.m_c, p.m_s - p.m_c
    g, h, k, l, r1 = plus.real, -minus.imag, plus.imag, minus.real, 1.0 / d1
    # row p1 right of its pivot after step one, at x2 and p2, as (re, im)
    xr, xi, pr, pim = k - c * g * r0, half * g * r0, l - c * h * r0, half * h * r0
    d, e, f = p.n2 + m2.real, p.n2 - m2.real, m2.imag
    d2 = d + shift - g * g * r0 - (xr * xr + xi * xi) * r1
    if not 0.0 < d2 < math.inf:
        return _rejected(d2), False
    # the (x2, p2) entry after step two is yr + i (yi +- half)
    yr = f - g * h * r0 - (xr * pr + xi * pim) * r1
    yi = (xi * pr - xr * pim) * r1
    last = e + shift - h * h * r0 - (pr * pr + pim * pim) * r1
    yp, ym, r2 = yi + half, yi - half, 1.0 / d2
    d3 = last - (yr * yr + yp * yp) * r2
    d3_mirror = last - (yr * yr + ym * ym) * r2
    if not (abs(d3) < math.inf and abs(d3_mirror) < math.inf):
        raise NumericDomainError("moments overflow float64 in the elimination")
    return d3 > 0.0, d3_mirror > 0.0


def _verdicts(p: GaussianParams, tol: float) -> tuple[bool, bool, bool]:
    """Physicality, PPT separability and joint classicality at ``tol``.

    The pass at ``(tol, 1/2)`` decides the first two; the pass at
    ``(tol - 1/2, 0)`` decides whether ``J = V_q - (1/2 - tol) I`` is
    positive definite.  ``H - J`` and its mirror's are ``(I +- i Omega)/2``,
    positive semidefinite, so ``J > 0`` implies that ``H`` and its mirror are
    positive definite: the joint pass runs only where the first accepts both,
    and elsewhere classicality is ``False``.
    """
    tol = _check_tol(tol)
    physical, separable = _elimination_verdicts(p, tol, 0.5)
    classical = physical and separable and _elimination_verdicts(p, tol - 0.5, 0.0)[0]
    return physical, separable, classical


def is_physical(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Uncertainty-principle test for the two-mode covariance data.

    Accepts exactly when the smallest eigenvalue of ``V`` plus half the
    commutator signature is at least ``-tol``, so pure states count as
    physical: the elimination pass decides ``V_q + tol I + (i/2) Omega``.
    ``tol`` must be positive and finite; raises :class:`NumericDomainError`
    where a pivot overflows float64.
    """
    return _elimination_verdicts(p, _check_tol(tol), 0.5)[0]


def is_separable(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """PPT separability test; defined only for physical states.

    A physical state is separable exactly when its party-2 mirror
    (:func:`mirror_party2`) is physical too; one elimination pass decides
    both.  Raises :class:`NonPhysicalStateError` for a nonphysical state.
    """
    physical, separable = _elimination_verdicts(p, _check_tol(tol), 0.5)
    if not physical:
        raise NonPhysicalStateError("state violates the uncertainty principle")
    return separable
