"""Passive two-port mixing of two-mode Gaussian states.

The mixer is the bilinear Bogoliubov family of an ideal beam splitter:
a mixing angle ``theta`` and two phases ``phi0`` (reflected arm) and
``phi1`` (transmitted arm).  It acts on the mode vector by a unitary
4x4 matrix built from two diagonal 2x2 blocks, and on covariance data by
conjugation.  Besides the transform itself this module knows when the two
output ports decouple (the off-diagonal block of the output vanishes),
which phases achieve that, and the local-determinant symmetry class on
which decoupling is achievable at the 50:50 point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .covariance import DEFAULT_TOL, GaussianParams, is_physical
from .errors import DegenerateStateError, NonPhysicalStateError


@dataclass(frozen=True)
class MixerConfig:
    """Mixing angle and arm phases, all in radians."""

    theta: float
    phi0: float = 0.0
    phi1: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi0", "phi1"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError("mixer angles must be finite")
            object.__setattr__(self, name, value)

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


def _half_blocks(cfg: MixerConfig) -> tuple[np.ndarray, np.ndarray]:
    r = math.cos(cfg.theta) * np.diag([cmath.exp(1j * cfg.phi0), cmath.exp(-1j * cfg.phi0)])
    s = math.sin(cfg.theta) * np.diag([cmath.exp(1j * cfg.phi1), cmath.exp(-1j * cfg.phi1)])
    return r, s


def build_mixer(cfg: MixerConfig) -> np.ndarray:
    """The 4x4 mode-vector matrix of the mixer."""
    r, s = _half_blocks(cfg)
    return np.block([[r, s], [-s.conj(), r.conj()]])


def mixer_inverse(cfg: MixerConfig) -> np.ndarray:
    """Closed-form inverse; the block structure makes the mixer unitary."""
    r, s = _half_blocks(cfg)
    return np.block([[r.conj(), -s], [s.conj(), r]])


def transform_full(v: np.ndarray, cfg: MixerConfig) -> np.ndarray:
    """Conjugate a covariance matrix through the mixer (inverse on the left)."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {v.shape}")
    return mixer_inverse(cfg) @ v @ build_mixer(cfg)


def transform_blocks(p: GaussianParams, cfg: MixerConfig) -> OutputBlocks:
    """Blockwise input-output relations of the mixer.

    Algebraically identical to :func:`transform_full` but computed from the
    2x2 blocks directly, so the two routes can referee each other.
    """
    r, s = _half_blocks(cfg)
    rc, sc = r.conj(), s.conj()
    v1 = np.array([[p.n1, p.m1], [p.m1.conjugate(), p.n1]])
    v2 = np.array([[p.n2, p.m2], [p.m2.conjugate(), p.n2]])
    c = np.array([[p.m_s, p.m_c], [p.m_c.conjugate(), p.m_s.conjugate()]])
    cd = c.conj().T
    v1p = rc @ v1 @ r + s @ v2 @ sc - s @ cd @ r - rc @ c @ sc
    v2p = sc @ v1 @ s + r @ v2 @ rc + r @ cd @ s + sc @ c @ rc
    cp = rc @ v1 @ s - s @ v2 @ rc - s @ cd @ s + rc @ c @ rc
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


def is_ssld(p: GaussianParams, tol: float = DEFAULT_TOL) -> bool:
    """Whether the two local blocks have equal determinants."""
    det1 = p.n1 ** 2 - abs(p.m1) ** 2
    det2 = p.n2 ** 2 - abs(p.m2) ** 2
    return abs(det1 - det2) <= tol


def _rotation(phi: float) -> np.ndarray:
    return np.diag([cmath.exp(1j * phi), cmath.exp(-1j * phi)])


def _squeeze(z: float) -> np.ndarray:
    ch, sh = math.cosh(z), math.sinh(z)
    return np.array([[ch, sh], [sh, ch]], dtype=complex)


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
    dets = [p.n1 ** 2 - abs(p.m1) ** 2, p.n2 ** 2 - abs(p.m2) ** 2]
    if min(dets) <= 1e-12:
        raise DegenerateStateError("local block is singular")
    if not is_physical(p, tol):
        raise NonPhysicalStateError("normal form requires a physical state")

    ops = []
    occupations = []
    for n, m, det in ((p.n1, p.m1, dets[0]), (p.n2, p.m2, dets[1])):
        phi = 0.5 * cmath.phase(m) if m != 0 else 0.0
        mag = abs(m)
        z = 0.5 * math.atanh(-mag / n) if mag else 0.0
        ops.append((phi, z))
        occupations.append(math.sqrt(det))

    record = LocalOperations(
        rotation1=ops[0][0], squeeze1=ops[0][1],
        rotation2=ops[1][0], squeeze2=ops[1][1],
    )
    l1 = record.matrix(1)
    l2 = record.matrix(2)
    c = np.array([[p.m_s, p.m_c], [p.m_c.conjugate(), p.m_s.conjugate()]])
    cp = l1.conj().T @ c @ l2
    normal = GaussianParams(
        n1=occupations[0], n2=occupations[1], m_s=cp[0, 0], m_c=cp[0, 1]
    )
    return normal, record
