"""P-representability tests: the classicality criterion for Gaussian states."""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, _finite_numbers, _verdicts
from .errors import NumericDomainError


@dataclass(frozen=True, init=False)
class ModeParams:
    """One-mode Gaussian data: occupation ``n`` and anomalous moment ``m``."""

    n: float
    m: complex = 0j

    def __init__(self, n, m=0j):
        if not (type(n) is float and type(m) is complex and cmath.isfinite(n + m)):
            n, m = _finite_numbers("mode parameters", (float, complex), n, m)
        self.__dict__.update(n=n, m=m)  # past the frozen __setattr__


def mode_params(block: Sequence[Sequence[complex]]) -> ModeParams:
    """Read one-mode data off a 2x2 Hermitian covariance block.

    The block is any 2x2 nested sequence: the nested tuples of
    :class:`~gausspair.mixer.OutputBlocks`, a list or an ndarray.  ``n`` is
    the real part of ``block[0][0]`` and ``m`` is ``block[0][1]``, admitted by
    :class:`ModeParams`'s rule, so an entry that is not a number is a
    ``TypeError``.  Any other shape is a ``ValueError``.
    """
    try:  # two rows of two entries
        (n, m), (c, d) = block
        for x in (n, m, c, d):  # an entry with a length, a str aside, is a row of a deeper array
            if hasattr(x, "__len__") and not isinstance(x, str):
                raise ValueError
    except (TypeError, ValueError):
        got = f"shape {block.shape}" if hasattr(block, "shape") else f"{block!r:.80}"
        raise ValueError(f"expected a 2x2 block, got {got}") from None
    return ModeParams(getattr(n, "real", n), m)


def _modulus(m: complex) -> float:
    try:  # |m|, or inf where it passes float64 and so exceeds every finite n
        return abs(m)
    except OverflowError:
        return math.inf


def mode_is_physical(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode uncertainty bound ``n >= sqrt(|m|^2 + 1/4)``, boundary states accepted.

    The root is libm's ``hypot(|m|, 1/2)``, taken as ``abs(complex(|m|, 0.5))``,
    which does not square ``|m|``.  It is the ``hypot`` that ``np.hypot``
    calls in the sweep's array pass; ``math.hypot`` may differ in the last ulp.
    """
    return md.n >= abs(complex(_modulus(md.m), 0.5)) - _check_tol(tol)


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
    return _verdicts(p, tol)[2]


def is_p_representable_mode(md: ModeParams, tol: float = DEFAULT_TOL) -> bool:
    """One-mode classicality in closed form: ``n >= |m| + 1/2``."""
    return md.n >= _modulus(md.m) + 0.5 - _check_tol(tol)


def nonclassicality_margin(md: ModeParams) -> float:
    """Signed distance past the classicality boundary; positive means nonclassical.

    Raises :class:`NumericDomainError` where ``|m|`` or ``|m| + 1/2 - n``
    passes float64.
    """
    margin = _modulus(md.m) + 0.5 - md.n
    if not math.isfinite(margin):
        raise NumericDomainError("the nonclassicality margin overflows float64")
    return margin
