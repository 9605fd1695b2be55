"""P-representability tests: the classicality criterion for Gaussian states."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, _quadrature_covariance
from .errors import NumericDomainError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, init=False)
class ModeParams:
    """One-mode Gaussian data: occupation ``n`` and anomalous moment ``m``."""

    n: float
    m: complex = 0j

    def __init__(self, n, m=0j):
        n, m = float(n), complex(m)
        if not (math.isfinite(n) and cmath.isfinite(m)):
            raise ValueError("mode parameters must be finite")
        self.__dict__.update(n=n, m=m)  # past the frozen __setattr__


def mode_covariance(md: ModeParams) -> np.ndarray:
    """The 2x2 covariance block of a single mode."""
    import numpy as np
    return np.array([[md.n, md.m], [md.m.conjugate(), md.n]], dtype=complex)


def mode_params(block: np.ndarray) -> ModeParams:
    """Read one-mode data off a 2x2 Hermitian covariance block."""
    import numpy as np
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got shape {block.shape}")
    return ModeParams(n=block.item(0, 0).real, m=block.item(0, 1))


def mode_is_physical(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode uncertainty bound, boundary states accepted."""
    _check_tol(tol)
    return md.n >= math.hypot(abs(md.m), 0.5) - tol


def is_p_representable_joint(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Joint classicality: the covariance dominates the vacuum's.

    Accepts exactly when the smallest eigenvalue of ``V - I/2`` is at least
    ``-tol``, i.e. when ``V - (1/2 - tol) I`` is positive definite.  That
    matrix is taken in the real quadrature basis straight from the six
    moments, each occupation shifted by ``-(1/2 - tol)``, and decided by
    symmetric elimination (``LDL^T``): it is positive definite exactly when
    every pivot is positive, and the elimination is backward stable on such
    matrices, so rounding moves the boundary by ``~1e-16 |V|`` at most.
    Raises :class:`NumericDomainError` where a pivot overflows float64.
    """
    _check_tol(tol)
    shift = 0.5 - tol
    q = _quadrature_covariance(p.n1 - shift, p.n2 - shift, p.m1, p.m2, p.m_s, p.m_c)
    for j in range(4):  # eliminate column j from the lower triangle
        pivot = q[j][j]
        if not math.isfinite(pivot):
            raise NumericDomainError("moments overflow float64 in the classicality test")
        if pivot <= 0.0:
            return False
        for i in range(j + 1, 4):
            factor = q[i][j] / pivot
            for k in range(j + 1, i + 1):
                q[i][k] -= factor * q[k][j]
    return True


def is_p_representable_mode(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode classicality in closed form: ``n >= |m| + 1/2``."""
    _check_tol(tol)
    return md.n >= abs(md.m) + 0.5 - tol


def nonclassicality_margin(md: ModeParams) -> float:
    """Signed distance past the classicality boundary; positive means nonclassical."""
    return abs(md.m) + 0.5 - md.n
