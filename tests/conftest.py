import math
from typing import NamedTuple

import numpy as np

from gausspair import GaussianParams, MixerConfig, ModeParams, is_physical


class References(NamedTuple):
    """Pure reference family at squeezing ``r``.

    ``tmsv`` is the twin-beam (two-mode) squeezed vacuum, ``sep`` the same
    occupations with the correlations removed (one party traced out), and
    ``omss`` the one-mode squeezed state with matching moments.  The ratio
    ``lam = tanh(r)`` is the Fock-series weight of the twin-beam state.
    """

    lam: float
    tmsv: GaussianParams
    sep: GaussianParams
    omss: ModeParams


def reference_states(r: float) -> References:
    """The references at squeezing ``r >= 0``, written out from the moments."""
    if not math.isfinite(r) or r < 0.0:
        raise ValueError("squeezing parameter must be finite and nonnegative")
    n = 0.5 * math.cosh(2.0 * r)
    m = -0.5 * math.sinh(2.0 * r)
    return References(
        lam=math.tanh(r),
        tmsv=GaussianParams(n1=n, n2=n, m_c=m),
        sep=GaussianParams(n1=n, n2=n),
        omss=ModeParams(n=n, m=m),
    )


def rand_complex(rng, hi):
    return hi * rng.uniform() * np.exp(2j * np.pi * rng.uniform())


def draw_params(rng, m_hi=5.0, n_lo=0.5, n_hi=5.0):
    """One unconstrained draw; may well be nonphysical."""
    return GaussianParams(
        n1=rng.uniform(n_lo, n_hi),
        n2=rng.uniform(n_lo, n_hi),
        m1=rand_complex(rng, m_hi),
        m2=rand_complex(rng, m_hi),
        m_s=rand_complex(rng, m_hi),
        m_c=rand_complex(rng, m_hi),
    )


def draw_physical(rng, count, m_hi=1.2):
    """Rejection-sample physical states."""
    out = []
    while len(out) < count:
        p = draw_params(rng, m_hi=m_hi)
        if is_physical(p):
            out.append(p)
    return out


def draw_symmetric_physical(rng, count, complex_phase=True):
    """Symmetric-class states drawn inside the physical region."""
    out = []
    for _ in range(count):
        n = rng.uniform(0.5, 5.0)
        mag = rng.uniform(0.0, math.sqrt(n * n - 0.25))
        m = mag * np.exp(2j * np.pi * rng.uniform()) if complex_phase else mag
        out.append(GaussianParams(n1=n, n2=n, m_c=m))
    return out


def draw_mixer(rng):
    return MixerConfig(
        theta=rng.uniform(-np.pi, np.pi),
        phi0=rng.uniform(-np.pi, np.pi),
        phi1=rng.uniform(-np.pi, np.pi),
    )
