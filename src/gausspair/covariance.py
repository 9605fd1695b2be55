"""Covariance representation of two-mode Gaussian states and the closed-form criteria.

A zero-mean two-mode Gaussian state is fixed by six second moments: the
symmetric-ordered occupations ``n1``, ``n2``, the single-mode anomalous
moments ``m1``, ``m2``, and two cross moments ``m_s`` (same-operator type)
and ``m_c`` (conjugate type).  They fill a 4x4 Hermitian matrix over the
ordered basis ``(a1+, a1, a2+, a2)``; the vacuum has ``n = 1/2`` and all
``m`` zero.

Two questions are decided here in closed form:

* physicality, i.e. whether the matrix is compatible with the uncertainty
  principle (``V`` plus half the commutator signature is positive), and
* separability, i.e. physicality of the state after mirroring the second
  party in phase space (:func:`mirror_party2`, the partial transpose on the
  moments; the PPT test, necessary and sufficient for these states).

Physicality reduces, through a Schur block decomposition with the party-1
block as pivot, to a pair of scalar inequalities, one route for every state.
``tol`` is slack on the smallest eigenvalue, as in the one-mode and
symmetric-class bounds: the reduction decides ``V + tol I``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalStateError, NumericDomainError

DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> None:
    # every public function taking tol calls this or reaches it through
    # is_physical: a NaN makes each bound comparison False and would flip
    # verdicts without an error
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class GaussianParams:
    """The six observables defining a two-mode Gaussian covariance matrix."""

    n1: float
    n2: float
    m1: complex = 0j
    m2: complex = 0j
    m_s: complex = 0j
    m_c: complex = 0j

    def __post_init__(self):
        n1, n2 = float(self.n1), float(self.n2)
        m1, m2, m_s, m_c = complex(self.m1), complex(self.m2), complex(self.m_s), complex(self.m_c)
        if not (math.isfinite(n1) and math.isfinite(n2) and cmath.isfinite(m1)
                and cmath.isfinite(m2) and cmath.isfinite(m_s) and cmath.isfinite(m_c)):
            raise ValueError("Gaussian parameters must be finite")
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "n1", n1)
        set_field(self, "n2", n2)
        set_field(self, "m1", m1)
        set_field(self, "m2", m2)
        set_field(self, "m_s", m_s)
        set_field(self, "m_c", m_c)


def build_covariance(p: GaussianParams) -> np.ndarray:
    """Assemble the 4x4 Hermitian covariance matrix in the (a1+, a1, a2+, a2) basis."""
    n1, n2 = p.n1, p.n2
    m1, m2, ms, mc = p.m1, p.m2, p.m_s, p.m_c
    return np.array(
        [
            [n1, m1, ms, mc],
            [m1.conjugate(), n1, mc.conjugate(), ms.conjugate()],
            [ms.conjugate(), mc, n2, m2],
            [mc.conjugate(), ms, m2.conjugate(), n2],
        ],
        dtype=complex,
    )


def mirror_party2(p: GaussianParams) -> GaussianParams:
    """The partial transpose on the six moments: mirror party 2 in phase space.

    Exchanging ``a2+`` with ``a2`` conjugates ``m2`` and swaps ``m_s`` with
    ``m_c``; :func:`build_covariance` of the result is the partially
    transposed matrix entry for entry.  An involution.
    """
    return GaussianParams(n1=p.n1, n2=p.n2, m1=p.m1, m2=p.m2.conjugate(), m_s=p.m_c, m_c=p.m_s)


def schur_terms(p: GaussianParams, tol: float) -> tuple[float, complex, float]:
    """Scalars ``(s, c, d)`` of the Schur reduction of ``V + tol I``.

    With ``A`` and ``C`` the party-1 and cross blocks of ``V + tol I`` plus
    half the commutator signature, ``d = det A`` and ``C^dagger adj(A) C`` is
    ``[[s + k/2, c], [conj(c), s - k/2]]`` with ``k = |m_c|^2 - |m_s|^2``.
    ``adj(A + tol I) = adj(A) + tol I``, so the shift is the party-1
    occupation ``n1 + tol`` and nothing else; ``tol = 0`` gives the terms of
    ``V``.  ``s`` and ``d`` are real by construction; ``d <= 0`` signals a
    singular (or nonphysical) party-1 pivot and must be handled by the
    caller.  Raises :class:`NumericDomainError` when a term overflows float64.
    """
    n1 = p.n1 + tol
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


def is_physical(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Uncertainty-principle test for the two-mode covariance data.

    Accepts exactly when the smallest eigenvalue of ``V`` plus half the
    commutator signature is at least ``-tol``, so pure states count as
    physical: the Schur reduction decides ``V + tol I``, with the party-1
    block as pivot and ``n2 + tol`` compared with the Schur-complement bound
    ``s/d + sqrt((k/d - 1)^2/4 + |m2 - c/d|^2)`` on the terms of
    :func:`schur_terms`.  ``tol`` must be positive and finite.
    """
    _check_tol(tol)
    s, c, d = schur_terms(p, tol)
    if p.n1 + tol <= 0.0 or d <= 0.0:  # the shifted pivot is not positive definite
        return False
    try:
        k = abs(p.m_c) ** 2 - abs(p.m_s) ** 2
        bound = s / d + math.sqrt(0.25 * (k / d - 1.0) ** 2 + abs(p.m2 - c / d) ** 2)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise NumericDomainError("Schur bound overflows float64")
    return p.n2 + tol >= bound


def is_separable(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """PPT separability test; defined only for physical states.

    A physical state is separable exactly when its party-2 mirror
    (:func:`mirror_party2`) is physical too.  Raises
    :class:`NonPhysicalStateError` for a nonphysical state.
    """
    if not is_physical(p, tol):
        raise NonPhysicalStateError("state violates the uncertainty principle")
    return is_physical(mirror_party2(p), tol)
