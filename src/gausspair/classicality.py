"""P-representability tests: the classicality criterion for Gaussian states."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .covariance import DEFAULT_TOL


@dataclass(frozen=True)
class ModeParams:
    """One-mode Gaussian data: occupation ``n`` and anomalous moment ``m``."""

    n: float
    m: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "n", float(self.n))
        object.__setattr__(self, "m", complex(self.m))
        if not (math.isfinite(self.n) and cmath.isfinite(self.m)):
            raise ValueError("mode parameters must be finite")


def mode_covariance(md: ModeParams) -> np.ndarray:
    """The 2x2 covariance block of a single mode."""
    return np.array([[md.n, md.m], [md.m.conjugate(), md.n]], dtype=complex)


def mode_params(block: np.ndarray) -> ModeParams:
    """Read one-mode data off a 2x2 Hermitian covariance block."""
    block = np.asarray(block, dtype=complex)
    if block.shape != (2, 2):
        raise ValueError(f"expected a 2x2 block, got shape {block.shape}")
    return ModeParams(n=block[0, 0].real, m=block[0, 1])


def mode_is_physical(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode uncertainty bound, boundary states accepted."""
    return md.n >= math.sqrt(abs(md.m) ** 2 + 0.25) - tol


def is_p_representable_joint(v: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Joint classicality: the covariance dominates the vacuum's.

    Tested by eigenvalues of ``V - I/2``; the sums of its ``k x k`` principal
    minors, all nonnegative exactly when it is positive semidefinite, would
    give a closed form.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    return float(np.linalg.eigvalsh(v - 0.5 * np.eye(4))[0]) >= -tol


def is_p_representable_mode(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode classicality in closed form: ``n >= |m| + 1/2``."""
    return md.n >= abs(md.m) + 0.5 - tol


def nonclassicality_margin(md: ModeParams) -> float:
    """Signed distance past the classicality boundary; positive means nonclassical."""
    return abs(md.m) + 0.5 - md.n
