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
from dataclasses import dataclass, field
from typing import Literal

from .classicality import ModeParams, is_p_representable_mode, mode_is_physical
from .covariance import DEFAULT_TOL, GaussianParams, _finite_numbers, _number_array, is_physical
from .errors import DegenerateStateError, ModelValidityError, NumericDomainError

StateClass = Literal["nonphysical", "entangled", "separable"]


@dataclass(frozen=True, init=False)
class TmtssInputs:
    """Diffusion ``d`` (gamma t), squeezing ``r`` (kappa t) and thermal ``nbar``."""

    d: float = field(metadata={"help": "diffusion, gamma*t"})
    r: float = field(metadata={"help": "squeezing, kappa*t"})
    nbar: float = 0.0

    def __init__(self, d, r, nbar=0.0):
        d, r, nbar = _finite_numbers("model inputs", (float,) * 3, d, r, nbar)
        if d < 0.0:
            raise ValueError("diffusion must be nonnegative")
        if nbar < 0.0:
            raise ValueError("thermal occupation must be nonnegative")
        self.__dict__.update(d=d, r=r, nbar=nbar)  # past the frozen __setattr__

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
    equal squares (for instance at zero squeezing),
    :class:`NumericDomainError` where an envelope factor (``2|r| - d`` above
    about 709) or the moments overflow float64, and
    :class:`ModelValidityError` when the resulting state fails the
    physicality criterion; the error carries the raw (n, m) values.
    """
    weight = inputs.d * (2.0 * inputs.nbar + 1.0)
    try:
        h1 = math.exp(-inputs.p1) + weight * _decay_ratio(inputs.p1)
        h2 = math.exp(-inputs.p2) + weight * _decay_ratio(inputs.p2)
    except OverflowError:
        raise NumericDomainError(
            f"envelope factors overflow float64 at p1={inputs.p1:.6g}, p2={inputs.p2:.6g}"
        ) from None
    denom = h1 * h1 - h2 * h2
    if abs(denom) <= 1e-12 * max(1.0, h1 * h1, h2 * h2):
        raise DegenerateStateError(
            f"degenerate envelope factors h1={h1:.6g}, h2={h2:.6g}"
        )
    g = h1 * h2 / denom
    n = g * h1
    m = g * h2
    if not (math.isfinite(n) and math.isfinite(m)):
        raise NumericDomainError(f"model moments overflow float64 (n={n:.6g}, m={m:.6g})")
    p = GaussianParams(n1=n, n2=n, m_c=m)
    if not is_physical(p, tol):
        raise ModelValidityError(
            f"model produced a nonphysical state (n={n:.6g}, m={m:.6g})", n=n, m=m
        )
    return p


#: class names, indexed by a symmetric-class point's code: 0 nonphysical,
#: 1 entangled, 2 separable
SYMMETRIC_CLASSES: tuple[StateClass, ...] = ("nonphysical", "entangled", "separable")


def _symmetric_point(n, m) -> tuple[float, float]:
    # The point rule of classify_symmetric, symmetric_degree and SweepConfig's
    # least m: n and m admitted as the value types admit numbers, finite (an
    # int beyond float64 is not) and m >= 0, as Python floats.
    n, m = _finite_numbers("n and m", (float, float), n, m)
    if m < 0.0:
        raise ValueError("m must be nonnegative (phase removed)")
    return n, m


def _symmetric_points(n, m):
    # symmetric_degree's points by _symmetric_point's rule: a point, numpy
    # scalars and 0-d arrays by their entries, as Python floats, and arrays,
    # with a number beside one, as _number_array reads them, in float64.  The
    # rule meets, of n and of m, NaN where an entry is not finite, else the
    # least entry.
    if not (getattr(n, "ndim", 0) or getattr(m, "ndim", 0)):
        return _symmetric_point(*(x[()] if hasattr(x, "ndim") else x for x in (n, m)))
    n, m = _number_array(n), _number_array(m)
    _symmetric_point(*(x.min(initial=0.0) if math.isfinite(x.max(initial=0.0)) else math.nan
                       for x in (n, m)))
    return n, m


def classify_symmetric(n: float, m: float, tol: float = DEFAULT_TOL) -> StateClass:
    """Classify a symmetric-class point (m taken nonnegative, phase removed).

    The state ``(n, n, m_c=m)`` is physical, or separable, exactly when its
    50:50 port mode ``(n, m)`` is physical, or classical, so the point takes
    the class of that mode by :func:`~gausspair.classicality.mode_is_physical`
    and :func:`~gausspair.classicality.is_p_representable_mode`; boundary
    points classify on the accepting side.  Raises TypeError for a ``bool``
    or anything but a real number, and ValueError for a non-finite ``n`` or
    ``m`` and a negative ``m``.
    """
    n, m = _symmetric_point(n, m)
    port = ModeParams(n, complex(m))
    physical = mode_is_physical(port, tol)
    return SYMMETRIC_CLASSES[physical + (physical and is_p_representable_mode(port, tol))]
