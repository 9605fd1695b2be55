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
* separability, i.e. the same positivity after mirroring the second party
  in phase space (the PPT test, necessary and sufficient for these states).

Both reduce, through a Schur block decomposition with the party-1 block as
pivot, to a pair of scalar inequalities.  When the pivot determinant ``d``
is (near) singular the Schur form is invalid and the decision falls back to
a direct eigenvalue test, which is the primitive form of both criteria.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalStateError, NumericDomainError

DEFAULT_TOL = 1e-9

#: sign pattern of the mode commutators [v, v+] for one mode (a+, a ordering)
MODE_SIGNATURE = np.diag([1.0, -1.0]).astype(complex)

#: the same pattern for both modes of the pair
COMMUTATOR_SIGNATURE = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)

#: swaps the creation/annihilation slots of one mode
PAIR_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: phase-space mirror acting on party 2 only; conjugation by it implements
#: the partial transpose at covariance level
PARTY2_MIRROR = np.block(
    [[np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)],
     [np.zeros((2, 2), dtype=complex), PAIR_SWAP]]
)


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


@dataclass(frozen=True)
class SchurTerms:
    """Auxiliary scalars of the Schur reduction; ``d`` is the pivot determinant."""

    s: float
    c: complex
    d: float


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


def params_from_matrix(v: np.ndarray, tol: float = 1e-12) -> GaussianParams:
    """Extract the six observables from a covariance matrix, validating its layout.

    Raises ValueError when the matrix is not Hermitian within ``tol`` (relative
    to its largest entry) or does not carry the two-mode block structure.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    scale = max(1.0, float(np.abs(v).max()))
    if float(np.abs(v - v.conj().T).max()) > tol * scale:
        raise ValueError("matrix is not Hermitian")
    p = GaussianParams(
        n1=v[0, 0].real,
        n2=v[2, 2].real,
        m1=v[0, 1],
        m2=v[2, 3],
        m_s=v[0, 2],
        m_c=v[0, 3],
    )
    if float(np.abs(build_covariance(p) - v).max()) > tol * scale:
        raise ValueError("matrix does not have the two-mode covariance layout")
    return p


def partial_transpose(v: np.ndarray) -> np.ndarray:
    """Mirror party 2 in phase space: conjugate the matrix by the party-2 swap.

    Equivalent to exchanging rows 2 and 3 together with columns 2 and 3, and
    an involution.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    return PARTY2_MIRROR @ v @ PARTY2_MIRROR


def schur_terms(p: GaussianParams) -> SchurTerms:
    """Scalars entering the Schur-reduced criteria.

    ``s`` and ``d`` are real by construction; ``d <= 0`` signals a singular
    (or nonphysical) party-1 pivot and must be handled by the caller.
    Raises :class:`NumericDomainError` when a term overflows float64.
    """
    try:
        w = p.m_c * p.m_s * p.m1.conjugate()
        s = p.n1 * (abs(p.m_c) ** 2 + abs(p.m_s) ** 2) - 2.0 * w.real
        c = (
            2.0 * p.n1 * p.m_s.conjugate() * p.m_c
            - p.m_c ** 2 * p.m1.conjugate()
            - p.m_s.conjugate() ** 2 * p.m1
        )
        d = p.n1 ** 2 - 0.25 - abs(p.m1) ** 2
    except OverflowError:
        raise NumericDomainError("moments overflow float64 in the Schur terms") from None
    if not (math.isfinite(s) and cmath.isfinite(c) and math.isfinite(d)):
        raise NumericDomainError("moments overflow float64 in the Schur terms")
    return SchurTerms(s=float(s), c=c, d=float(d))


def _pivot_bound(p: GaussianParams) -> float:
    try:
        return math.sqrt(abs(p.m1) ** 2 + 0.25)
    except OverflowError:
        raise NumericDomainError("moments overflow float64 in the pivot bound") from None


def _schur_bound(p: GaussianParams, t: SchurTerms, shift: float) -> float:
    # Schur complement of the party-1 pivot, as a lower bound on n2.
    # shift = -1 tests plain positivity, +1 the partially transposed matrix
    # (the mirror swaps m_s and m_c, flipping the sign of k; s, d and c/d are
    # invariant under it).  Valid only for d > 0.
    k = abs(p.m_c) ** 2 - abs(p.m_s) ** 2
    try:
        bound = t.s / t.d + math.sqrt(
            0.25 * (k / t.d + shift) ** 2 + abs(p.m2 - t.c / t.d) ** 2
        )
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise NumericDomainError("Schur bound overflows float64")
    return bound


def _min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[0])


def is_physical(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Uncertainty-principle test for the two-mode covariance data.

    Boundary states (pure states) count as physical: every comparison gets
    ``tol`` of slack on the accept side.  A pivot determinant ``d <= tol``
    (near singular, or negative when ``n1`` sits within ``tol`` below the
    pivot bound) routes the decision to the eigenvalue form, which needs no
    inversion.  ``tol`` must be positive and finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if p.n1 < _pivot_bound(p) - tol:
        return False
    t = schur_terms(p)
    if t.d <= tol:
        v = build_covariance(p) + 0.5 * COMMUTATOR_SIGNATURE
        return _min_eig(v) >= -tol
    return p.n2 >= _schur_bound(p, t, -1.0) - tol


def is_separable(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """PPT separability test; defined only for physical states.

    Same structure as :func:`is_physical` with the mirrored sign in the
    square root, which is the only change the partial transpose induces.
    Physicality already rules out a pivot below its bound.
    """
    if not is_physical(p, tol):
        raise NonPhysicalStateError("separability is undefined for a nonphysical state")
    t = schur_terms(p)
    if t.d <= tol:
        v = partial_transpose(build_covariance(p)) + 0.5 * COMMUTATOR_SIGNATURE
        return _min_eig(v) >= -tol
    return p.n2 >= _schur_bound(p, t, +1.0) - tol
