"""Two-mode thermal squeezed state model and the symmetric-class bounds.

The model is the closed-form parameterization of parametric down-conversion
in a noisy crystal: diffusion ``d``, squeezing ``r`` and thermal occupation
``nbar`` combine into a symmetric-class state (equal occupations, a single
real cross moment).  The printed formulas are implemented verbatim and the
output is gated through the physicality criterion; parameter regions where
the formulas return nonphysical values raise a typed error carrying the raw
numbers instead of silently adjusting signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, is_physical
from .errors import DegenerateStateError, ModelValidityError

StateClass = Literal["nonphysical", "entangled", "separable"]


@dataclass(frozen=True)
class TmtssInputs:
    """Diffusion ``d`` (gamma t), squeezing ``r`` (kappa t) and thermal ``nbar``."""

    d: float
    r: float
    nbar: float = 0.0

    def __post_init__(self):
        for name in ("d", "r", "nbar"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError("model inputs must be finite")
            object.__setattr__(self, name, value)
        if self.d < 0.0:
            raise ValueError("diffusion must be nonnegative")
        if self.nbar < 0.0:
            raise ValueError("thermal occupation must be nonnegative")

    @property
    def p1(self) -> float:
        return self.d + 2.0 * self.r

    @property
    def p2(self) -> float:
        return self.d - 2.0 * self.r


def _decay_ratio(p: float) -> float:
    """(1 - exp(-p)) / p with the p -> 0 limit of 1, free of cancellation."""
    if p == 0.0:
        return 1.0
    return -math.expm1(-p) / p


def tmtss_params(inputs: TmtssInputs, tol: float = DEFAULT_TOL) -> GaussianParams:
    """Symmetric-class covariance data of the thermal squeezed pair.

    Raises :class:`DegenerateStateError` when the two envelope factors have
    equal squares (for instance at zero squeezing) and
    :class:`ModelValidityError` when the resulting state fails the
    physicality criterion; the error carries the raw (n, m) values.
    """
    weight = inputs.d * (2.0 * inputs.nbar + 1.0)
    h1 = math.exp(-inputs.p1) + weight * _decay_ratio(inputs.p1)
    h2 = math.exp(-inputs.p2) + weight * _decay_ratio(inputs.p2)
    denom = h1 * h1 - h2 * h2
    if abs(denom) <= 1e-12 * max(1.0, h1 * h1, h2 * h2):
        raise DegenerateStateError(
            f"degenerate envelope factors h1={h1:.6g}, h2={h2:.6g}"
        )
    g = h1 * h2 / denom
    n = g * h1
    m = g * h2
    p = GaussianParams(n1=n, n2=n, m_c=m)
    if not is_physical(p, tol):
        raise ModelValidityError(
            f"model produced a nonphysical state (n={n:.6g}, m={m:.6g})", n=n, m=m
        )
    return p


#: class names, indexed by the codes of :func:`symmetric_class_codes`
SYMMETRIC_CLASSES: tuple[StateClass, ...] = ("nonphysical", "entangled", "separable")


def symmetric_class_codes(n, m, tol: float = DEFAULT_TOL):
    """Class codes of symmetric-class points, elementwise on arrays.

    Indexes :data:`SYMMETRIC_CLASSES`.  Physical states satisfy
    ``n >= sqrt(m^2 + 1/4)``, separable ones ``n >= m + 1/2``; boundary
    points classify on the accepting side.  The square root is taken as
    ``hypot(m, 1/2)``, which does not overflow where ``m^2`` does.
    """
    _check_tol(tol)
    physical = n >= np.hypot(m, 0.5) - tol
    return physical * (1 + (n >= m + 0.5 - tol))


def classify_symmetric(n: float, m: float, tol: float = DEFAULT_TOL) -> StateClass:
    """Classify a symmetric-class point (m taken nonnegative, phase removed)."""
    if m < 0.0:
        raise ValueError("m must be nonnegative (phase removed)")
    return SYMMETRIC_CLASSES[symmetric_class_codes(n, m, tol)]
