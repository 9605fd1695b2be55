"""P-representability tests: the classicality criterion for Gaussian states."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, _joint_verdict
from .covariance import _elimination_verdicts, _finite_numbers
from .errors import NumericDomainError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, init=False)
class ModeParams:
    """One-mode Gaussian data: occupation ``n`` and anomalous moment ``m``."""

    n: float
    m: complex = 0j

    def __init__(self, n, m=0j):
        if not (type(n) is float and type(m) is complex and cmath.isfinite(n + m)):
            n, m = _finite_numbers("mode parameters", (float, complex), n, m)
        self.__dict__.update(n=n, m=m)  # past the frozen __setattr__


def mode_params(block: np.ndarray) -> ModeParams:
    """Read one-mode data off a 2x2 Hermitian covariance block."""
    import numpy as np
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got shape {block.shape}")
    return ModeParams(block.item(0, 0).real, block.item(0, 1))


def _modulus(m: complex) -> float:
    try:  # |m|, or inf where it passes float64 and so exceeds every finite n
        return abs(m)
    except OverflowError:
        return math.inf


def mode_is_physical(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode uncertainty bound, boundary states accepted."""
    return md.n >= math.hypot(_modulus(md.m), 0.5) - _check_tol(tol)


def is_p_representable_joint(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Joint classicality: the covariance dominates the vacuum's.

    Accepts exactly when the smallest eigenvalue of ``V - I/2`` is at least
    ``-tol``, i.e. when ``V - (1/2 - tol) I`` is positive definite, decided by
    the elimination kernel at ``(tol - 1/2, 0)``.  A classical state is
    physical and separable, so that pass runs only where the kernel at
    ``(tol, 1/2)`` accepts both; elsewhere the answer is ``False``.  The
    passes are backward stable, so rounding moves the boundary by
    ``~1e-16 |V|`` at most.  Raises :class:`NumericDomainError` where a pivot
    overflows float64.
    """
    tol = _check_tol(tol)
    physical, separable = _elimination_verdicts(p, tol, 0.5)
    return physical and separable and _joint_verdict(p, tol)


def is_p_representable_mode(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode classicality in closed form: ``n >= |m| + 1/2``."""
    return md.n >= _modulus(md.m) + 0.5 - _check_tol(tol)


def nonclassicality_margin(md: ModeParams) -> float:
    """Signed distance past the classicality boundary; positive means nonclassical.

    Raises :class:`NumericDomainError` where ``|m|`` or ``|m| + 1/2 - n``
    passes float64.
    """
    try:
        margin = abs(md.m) + 0.5 - md.n
    except OverflowError:  # |m| passes float64
        margin = math.inf
    if not math.isfinite(margin):
        raise NumericDomainError("the nonclassicality margin overflows float64")
    return margin
