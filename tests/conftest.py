import cmath
import math
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from gausspair import (
    DEFAULT_TOL, GaussianParams, MixerConfig, ModeParams, build_covariance, is_physical,
)
from gausspair import covariance, mixer
from gausspair.oracle import eig_min_hermitian

# SHA-256 of the sweep outputs as the per-point implementation wrote them
GOLDEN = {
    "default_csv": "87364d3fda25f51c1882097a8f9dbc9f97dd71fc3cd1d3e90222bf27bc36ce41",
    "default_matrix": "356b4bafc64082bd74bc21e102c18d537999326ebf5f06525f808c87ff3d7d74",
    "anchored_csv": "d914c732e274c0954f41ab65d01a164dd6795b3a5c92dc4559de5d8a72c33fa7",
    # tests/test_sweep.py::MIXED_ARGS, whose axis cells are 14 to 16 bytes wide
    "mixed_csv": "6ff487f1690a5b660fd8539bbeb727ae6fd04e8789dc2e20471a3a41bd941aff",
    "mixed_matrix": "9ca48fe389f0d48841a5b1895dea9e26d97d59bea7a33a32b00833c56e099b95",
    # SHA-256 of tests/test_cli.py::test_transform_corpus_bytes's 3,000 transform
    # runs; its docstring has the command that prints a new one
    "transform_corpus": "70a095abccbb312e0a0f16c4eeb7a68616e5fb62c54362462b2880f78f87fa7a",
}


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
    """One unconstrained draw; may well be nonphysical.

    Ten uniforms from one call, in the stream order of ``rng.uniform`` for
    ``n1``, ``n2`` and ``rand_complex`` for ``m1``, ``m2``, ``m_s``, ``m_c``
    (magnitude, then phase), with the same arithmetic, so the draws are
    those of the scalar calls bit for bit.
    """
    u = rng.random(10)
    n1, n2 = (n_lo + (n_hi - n_lo) * u[:2]).tolist()
    m1, m2, m_s, m_c = (m_hi * u[2::2] * np.exp(2j * np.pi * u[3::2])).tolist()
    return GaussianParams(n1=n1, n2=n2, m1=m1, m2=m2, m_s=m_s, m_c=m_c)


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


def block_error(full, blocks) -> float:
    """Largest entry error of mixer output blocks against the matching slices
    of the 4x4 output matrix ``full``, the lower-left ``cp^dagger`` included."""
    pairs = ((full[:2, :2], blocks.v1p), (full[2:, 2:], blocks.v2p),
             (full[:2, 2:], blocks.cp), (full[2:, :2], np.asarray(blocks.cp).conj().T))
    return max(float(np.abs(want - got).max()) for want, got in pairs)


def moments(hi):
    """Complex moments of magnitude up to ``hi``, with exact zeros mixed in."""
    polar = st.builds(
        lambda mag, arg: mag * cmath.exp(1j * arg),
        st.floats(0.0, hi), st.floats(-math.pi, math.pi),
    )
    return st.one_of(st.just(0j), polar)


def tol_offsets():
    """A few ``tol`` either side of a boundary, the boundary itself included."""
    return st.one_of(st.just(0.0), st.floats(-5.0, 5.0)).map(lambda k: k * DEFAULT_TOL)


def tol_consistent(verdict: bool, e: float, p: GaussianParams) -> bool:
    """The ``tol`` contract of every criterion against a referee eigenvalue ``e``.

    Accepting needs the smallest eigenvalue no lower than -tol, rejecting
    needs it below -tol; the slack covers rounding in both routes, ~1e-16
    ``|V|`` each.  It stays below tol up to ``|V|`` ~ 1e4, the largest
    moments at which the contract can be checked.
    """
    slack = 1e-13 * max(1.0, float(np.abs(build_covariance(p)).max()))
    return e >= -DEFAULT_TOL - slack if verdict else e < -DEFAULT_TOL + slack


def joint_eig(p: GaussianParams) -> float:
    # smallest eigenvalue of V - I/2, by the Jacobi referee
    return float(eig_min_hermitian(build_covariance(p) - 0.5 * np.eye(4)))


@st.composite
def joint_band_states(draw, near_vacuum):
    """States whose ``V - I/2`` has smallest eigenvalue within a few tol of ``-tol``.

    The moments are drawn at one of the scales 1, 30, 1e3 and 3e3 (``|V|``
    stays below ~1e4, where the contract can be checked), then both
    occupations are shifted by ``-lambda_min + (k - 1) tol``, ``k`` in
    [-5, 5], which moves the whole spectrum.  With ``near_vacuum``
    party 1 is the vacuum up to moments of a few tol and cross moments of at
    most 1e-5, so two eigenvalues sit near the boundary together.
    """
    scale = draw(st.sampled_from([1.0, 30.0, 1e3, 3e3]))
    m2 = draw(moments(scale))
    if near_vacuum:
        m1, cross_hi = draw(moments(5 * DEFAULT_TOL)), 1e-5
        n2 = abs(m2) + draw(st.floats(0.0, 2.0)) * scale
    else:
        m1, cross_hi = draw(moments(scale)), scale
        n2 = draw(st.floats(-1.0, 1.0)) * scale
    base = GaussianParams(n1=0.0, n2=n2, m1=m1, m2=m2,
                          m_s=draw(moments(cross_hi)), m_c=draw(moments(cross_hi)))
    shift = -joint_eig(base) + draw(tol_offsets()) - DEFAULT_TOL
    return replace(base, n1=base.n1 + shift, n2=base.n2 + shift)


def _record_calls(monkeypatch, targets) -> list:
    """Wrap each ``(name, function, entry)`` target through every binding in
    the package; each call appends ``entry(name, *args)`` to the returned list."""
    calls = []

    def counting(name, original, entry):
        def counted(*args, **kwargs):
            calls.append(entry(name, *args))
            return original(*args, **kwargs)
        return counted

    wrapped = [(original, counting(name, original, entry)) for name, original, entry in targets]
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gausspair"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, counted in wrapped:
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def kernel_passes(monkeypatch):
    """The passes of the elimination kernel as they run, as ``(shift, half)``
    in call order, through every binding in the package: ``(tol, 0.5)`` for
    the uncertainty pass, ``(tol - 0.5, 0.0)`` for the joint pass."""
    def entry(name, p, shift, half):
        return shift, half
    return _record_calls(monkeypatch, [("kernel", covariance._elimination_verdicts, entry)])


@pytest.fixture
def mixer_calls(monkeypatch):
    """Names of the mixer's residual routes, ``is_physical`` and the
    ``MixerConfig`` constructor, in call order as they run."""
    def entry(name, *args):
        return name
    calls = _record_calls(monkeypatch, [(name, getattr(mixer, name), entry) for name in
                                        ("_residuals", "coupling_residuals", "is_physical")])
    init = MixerConfig.__init__

    def counted_init(self, *args, **kwargs):
        calls.append("MixerConfig")
        init(self, *args, **kwargs)
    monkeypatch.setattr(MixerConfig, "__init__", counted_init)
    return calls
