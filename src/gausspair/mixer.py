"""Passive two-port mixing of two-mode Gaussian states.

The mixer is the bilinear Bogoliubov family of an ideal beam splitter:
a mixing angle ``theta`` and two phases ``phi0`` (reflected arm) and
``phi1`` (transmitted arm).  Its two 2x2 blocks are diagonal, so on
covariance data it is a closed-form map from the six moments to six
moments (:func:`mix_params`).  Besides the transform itself this module
knows when the two output ports decouple (the off-diagonal block of the
output vanishes), which phases achieve that, and the local-determinant
symmetry class on which decoupling is achievable at the 50:50 point.  The
4x4 matrix route lives in :mod:`gausspair.oracle`, as the referee.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .covariance import DEFAULT_TOL, GaussianParams, _check_tol, is_physical
from .errors import DegenerateStateError, NonPhysicalStateError, NumericDomainError


@dataclass(frozen=True)
class MixerConfig:
    """Mixing angle and arm phases, all in radians."""

    theta: float
    phi0: float = 0.0
    phi1: float = 0.0

    def __post_init__(self):
        theta, phi0, phi1 = float(self.theta), float(self.phi0), float(self.phi1)
        if not (math.isfinite(theta) and math.isfinite(phi0) and math.isfinite(phi1)):
            raise ValueError("mixer angles must be finite")
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "theta", theta)
        set_field(self, "phi0", phi0)
        set_field(self, "phi1", phi1)

    @property
    def inverse(self) -> "MixerConfig":
        """Configuration whose matrix is the inverse of this one's."""
        return MixerConfig(theta=-self.theta, phi0=-self.phi0, phi1=self.phi1)


@dataclass(frozen=True)
class OutputBlocks:
    """Output covariance in block form: local blocks and the cross block."""

    v1p: np.ndarray
    v2p: np.ndarray
    cp: np.ndarray

    def assemble(self) -> np.ndarray:
        """Reassemble the full 4x4 output covariance matrix."""
        return np.block([[self.v1p, self.cp], [self.cp.conj().T, self.v2p]])


@dataclass(frozen=True)
class LocalOperations:
    """Record of the per-party normal-form operations: rotation then squeeze."""

    rotation1: float
    squeeze1: float
    rotation2: float
    squeeze2: float

    def matrix(self, party: int) -> np.ndarray:
        if party == 1:
            return _rotation(self.rotation1) @ _squeeze(self.squeeze1)
        if party == 2:
            return _rotation(self.rotation2) @ _squeeze(self.squeeze2)
        raise ValueError("party must be 1 or 2")


def mix_params(p: GaussianParams, cfg: MixerConfig) -> GaussianParams:
    """The output moments of the mixer, in closed form.

    With ``r = cos(theta) diag(e^{i phi0}, e^{-i phi0})`` and
    ``s = sin(theta) diag(e^{i phi1}, e^{-i phi1})`` every output entry is one
    scalar sum, e.g. ``v1p[j,k] = conj(r_j) r_k v1[j,k] + s_j conj(s_k) v2[j,k]
    - s_j r_k c^dagger[j,k] - conj(r_j) conj(s_k) c[j,k]``.  Row 0 of the three
    output blocks holds the six moments; the other rows follow from the layout.
    """
    c, s = math.cos(cfg.theta), math.sin(cfg.theta)
    cc, ss, cs = c * c, s * s, c * s
    rho = cmath.exp(1j * cfg.phi0)
    sigma = cmath.exp(1j * cfg.phi1)
    rho2 = rho * rho
    sigma2 = sigma * sigma
    e_sum = rho * sigma  # e^{i(phi0 + phi1)}
    e_dif = sigma * rho.conjugate()  # e^{i(phi1 - phi0)}
    cross = 2.0 * cs * (e_sum * p.m_s.conjugate()).real
    mix_c = 2.0 * cs * p.m_c
    return GaussianParams(
        n1=cc * p.n1 + ss * p.n2 - cross,
        n2=ss * p.n1 + cc * p.n2 + cross,
        m1=cc * rho2.conjugate() * p.m1 + ss * sigma2 * p.m2 - e_dif * mix_c,
        m2=ss * sigma2.conjugate() * p.m1 + cc * rho2 * p.m2 + e_dif.conjugate() * mix_c,
        m_s=(cs * e_dif * (p.n1 - p.n2) + cc * rho2.conjugate() * p.m_s
             - ss * sigma2 * p.m_s.conjugate()),
        m_c=cs * (e_sum.conjugate() * p.m1 - e_sum * p.m2) + (cc - ss) * p.m_c,
    )


def transform_blocks(p: GaussianParams, cfg: MixerConfig) -> OutputBlocks:
    """The output covariance of the mixer in block form, from :func:`mix_params`."""
    q = mix_params(p, cfg)
    m1, m2, ms, mc = q.m1, q.m2, q.m_s, q.m_c
    v1p, v2p, cp = np.array([
        q.n1, m1, m1.conjugate(), q.n1,
        q.n2, m2, m2.conjugate(), q.n2,
        ms, mc, mc.conjugate(), ms.conjugate(),
    ], dtype=complex).reshape(3, 2, 2)
    return OutputBlocks(v1p=v1p, v2p=v2p, cp=cp)


def coupling_residuals(p: GaussianParams, cfg: MixerConfig) -> tuple[complex, complex]:
    """The two scalar obstructions to a decoupled (block-diagonal) output.

    Both vanish exactly when the cross block of the transformed covariance
    vanishes: the first is -2 times its anomalous entry, the second +2 times
    its occupation entry.
    """
    s2t = math.sin(2.0 * cfg.theta)
    c2t = math.cos(2.0 * cfg.theta)
    e_sum = cmath.exp(1j * (cfg.phi0 + cfg.phi1))
    r1 = s2t * (p.m2 * e_sum - p.m1 / e_sum) - 2.0 * c2t * p.m_c
    a = p.m_s * cmath.exp(-2j * cfg.phi0)
    b = p.m_s.conjugate() * cmath.exp(2j * cfg.phi1)
    r2 = s2t * cmath.exp(-1j * (cfg.phi0 - cfg.phi1)) * (p.n1 - p.n2) + c2t * (a + b) + (a - b)
    return r1, r2


def solve_decoupling_phases(
    p: GaussianParams, tol: float = DEFAULT_TOL
) -> tuple[float, float] | None:
    """Phases decoupling the output ports at the 50:50 mixing angle, if any.

    The anomalous residual pins the phase sum (possible only when
    ``|m1| == |m2|``); at the 50:50 point the occupation residual magnitude
    is independent of the phase difference, so the remaining freedom is the
    phase sum itself whenever the anomalous moments vanish.  The signed part
    of the occupation residual is then ``|m_s| sin(arg(m_s) - psi)``, whose
    root in ``[0, pi)`` is ``arg(m_s) mod pi``.  Returns None when no phases
    work.
    """
    _check_tol(tol)
    if abs(abs(p.m1) - abs(p.m2)) > tol:
        return None

    if abs(p.m1) <= tol and abs(p.m2) <= tol:
        psi = cmath.phase(p.m_s) % math.pi if abs(p.m_s) > tol else 0.0
    else:
        psi = 0.5 * (cmath.phase(p.m1) - cmath.phase(p.m2))

    phi0 = phi1 = 0.5 * psi
    r1, r2 = coupling_residuals(p, MixerConfig(theta=math.pi / 4, phi0=phi0, phi1=phi1))
    if abs(r1) < tol and abs(r2) < tol:
        return phi0, phi1
    return None


def _local_determinants(p: GaussianParams) -> tuple[float, float]:
    # n^2 - |m|^2 of each local block; a float square that overflows raises,
    # so a result is always finite
    try:
        return p.n1 ** 2 - abs(p.m1) ** 2, p.n2 ** 2 - abs(p.m2) ** 2
    except OverflowError:
        raise NumericDomainError("moments overflow float64 in the local determinants") from None


def is_ssld(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two local blocks have equal determinants."""
    _check_tol(tol)
    det1, det2 = _local_determinants(p)
    return abs(det1 - det2) <= tol


def _rotation(phi: float) -> np.ndarray:
    return np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])


def _squeeze(z: float) -> np.ndarray:
    ch, sh = math.cosh(z), math.sinh(z)
    return np.array([[ch, sh], [sh, ch]], dtype=complex)


def _normal_op(n: float, m: complex) -> tuple[float, float]:
    # the rotation making m real, then the squeeze removing it
    if m == 0:
        return 0.0, 0.0
    return 0.5 * cmath.phase(m), 0.5 * math.atanh(-abs(m) / n)


def local_normal_form(
    p: GaussianParams, tol: float = DEFAULT_TOL
) -> tuple[GaussianParams, LocalOperations]:
    """Remove the single-mode anomalous moments by per-party symplectics.

    Each local block is rotated (making its moment real) and squeezed
    (killing it), which maps the block to sqrt(det) times the identity and
    transforms the cross block by the same congruence.  Physicality and
    separability verdicts are invariant under this, and states with equal
    local determinants come out with equal occupations.
    """
    det1, det2 = _local_determinants(p)
    if min(det1, det2) <= 1e-12:
        raise DegenerateStateError("local block is singular")
    if not is_physical(p, tol):
        raise NonPhysicalStateError("normal form requires a physical state")

    phi1, z1 = _normal_op(p.n1, p.m1)
    phi2, z2 = _normal_op(p.n2, p.m2)
    record = LocalOperations(rotation1=phi1, squeeze1=z1, rotation2=phi2, squeeze2=z2)
    # cp = L1^dagger C L2 with L = [[e ch, e sh], [conj(e) sh, conj(e) ch]]
    e1, e2 = cmath.exp(1j * phi1), cmath.exp(1j * phi2)
    ch1, sh1, ch2, sh2 = math.cosh(z1), math.sinh(z1), math.cosh(z2), math.sinh(z2)
    a = e1.conjugate() * ch1 * p.m_s + e1 * sh1 * p.m_c.conjugate()  # row 0 of L1^dagger C
    b = e1.conjugate() * ch1 * p.m_c + e1 * sh1 * p.m_s.conjugate()
    normal = GaussianParams(
        n1=math.sqrt(det1),
        n2=math.sqrt(det2),
        m_s=e2 * ch2 * a + e2.conjugate() * sh2 * b,
        m_c=e2 * sh2 * a + e2.conjugate() * ch2 * b,
    )
    return normal, record
