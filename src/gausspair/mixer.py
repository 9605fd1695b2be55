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
from dataclasses import dataclass, field

from .covariance import DEFAULT_TOL, GaussianParams, _blocks, _check_tol, is_physical
from .covariance import _finite_numbers
from .errors import DegenerateStateError, NonPhysicalStateError, NumericDomainError

@dataclass(frozen=True, init=False)
class MixerConfig:
    """Mixing angle and arm phases, all in radians; an angle whose double
    passes float64 (``|theta|`` > ~8.99e307) is a :class:`NumericDomainError`."""

    theta: float = field(metadata={"help": "mixing angle, radians"})
    phi0: float = 0.0
    phi1: float = 0.0

    def __init__(self, theta, phi0=0.0, phi1=0.0):
        if not (type(theta) is type(phi0) is type(phi1) is float
                and math.isfinite(theta + phi0 + phi1)):
            theta, phi0, phi1 = _finite_numbers("mixer angles", (float,) * 3, theta, phi0, phi1)
        if math.isinf(2.0 * theta):
            raise NumericDomainError("mixer angle theta is too large: 2 theta overflows float64")
        # the kernel's angle terms, stored past the frozen __setattr__ beside
        # the fields but not as one, so ==, hash, repr and replace never see
        # them: cos and sin of theta, sin and cos of 2 theta, e^{i phi0} and
        # e^{i phi1}
        terms = (math.cos(theta), math.sin(theta), math.sin(2.0 * theta),
                 math.cos(2.0 * theta), cmath.exp(1j * phi0), cmath.exp(1j * phi1))
        self.__dict__.update(theta=theta, phi0=phi0, phi1=phi1, _terms=terms)

    @property
    def inverse(self) -> "MixerConfig":
        """Configuration whose matrix is the inverse of this one's."""
        return MixerConfig(theta=-self.theta, phi0=-self.phi0, phi1=self.phi1)


# the kernel's angle terms sin and cos of 2 theta at the 50:50 angle
_S2T_5050, _C2T_5050 = MixerConfig(math.pi / 4)._terms[2:4]


@dataclass(frozen=True, eq=False)
class OutputBlocks:
    """Output covariance in block form: local blocks and the cross block.

    Each block is a 2x2 nested tuple of Python ``complex``, rows first;
    ``np.asarray`` of one is its complex128 matrix.
    """

    v1p: tuple[tuple[complex, complex], tuple[complex, complex]]
    v2p: tuple[tuple[complex, complex], tuple[complex, complex]]
    cp: tuple[tuple[complex, complex], tuple[complex, complex]]


@dataclass(frozen=True)
class LocalOperations:
    """Record of the per-party normal-form operations: rotation then squeeze.

    :func:`gausspair.oracle.local_operation_matrix` gives their 2x2 matrices.
    """

    rotation1: float
    squeeze1: float
    rotation2: float
    squeeze2: float


def mix_params(p: GaussianParams, cfg: MixerConfig) -> GaussianParams:
    """The output moments of the mixer, in closed form.

    With ``r = cos(theta) diag(e^{i phi0}, e^{-i phi0})`` and
    ``s = sin(theta) diag(e^{i phi1}, e^{-i phi1})`` every output entry is one
    scalar sum, e.g. ``v1p[j,k] = conj(r_j) r_k v1[j,k] + s_j conj(s_k) v2[j,k]
    - s_j r_k c^dagger[j,k] - conj(r_j) conj(s_k) c[j,k]``.  Row 0 of the three
    output blocks holds the six moments; the other rows follow from the layout.
    The cross moments come from the residual kernel of :func:`coupling_residuals`
    on these phase factors; an output moment past float64 is a :class:`NumericDomainError`.
    """
    return GaussianParams(*_mixed(p, cfg))


def transform_blocks(p: GaussianParams, cfg: MixerConfig) -> OutputBlocks:
    """The output covariance of the mixer in block form, from the kernel of :func:`mix_params`.

    The blocks are ``((n1, m1), (conj m1, n1))``, ``((n2, m2), (conj m2, n2))``
    and ``((m_s, m_c), (conj m_c, conj m_s))`` of the output moments, every
    entry a Python ``complex``.
    """
    n1, n2, m1, m2, ms, mc = _mixed(p, cfg)
    return OutputBlocks(*_blocks(complex(n1), complex(n2), m1, m2, ms, mc))


def coupling_residuals(p: GaussianParams, cfg: MixerConfig) -> tuple[complex, complex]:
    """The two scalar obstructions to a decoupled (block-diagonal) output.

    Both vanish exactly when the cross block of the transformed covariance
    vanishes: the first is -2 times its anomalous entry, the second +2 times
    its occupation entry.  Raises :class:`NumericDomainError` where a residual
    or its modulus is not finite in float64.
    """
    _, _, s2t, c2t, rho, sigma = cfg._terms
    return _residuals(p, s2t, c2t, rho, sigma)


def _mixed(p: GaussianParams, cfg: MixerConfig) -> tuple:
    # the mixing kernel: the output moments (n1, n2, m1, m2, m_s, m_c), two
    # floats then four complexes, each finite in float64
    c, s, s2t, c2t, rho, sigma = cfg._terms
    cc, ss, cs = c * c, s * s, c * s
    rho2, sigma2 = rho * rho, sigma * sigma
    e_dif = sigma * rho.conjugate()  # e^{i(phi1 - phi0)}
    cross = 2.0 * cs * (rho * sigma * p.m_s.conjugate()).real
    mix_c = 2.0 * cs * p.m_c
    r1, r2 = _residuals(p, s2t, c2t, rho, sigma)
    out = (cc * p.n1 + ss * p.n2 - cross,
           ss * p.n1 + cc * p.n2 + cross,
           cc * rho2.conjugate() * p.m1 + ss * sigma2 * p.m2 - e_dif * mix_c,
           ss * sigma2.conjugate() * p.m1 + cc * rho2 * p.m2 + e_dif.conjugate() * mix_c,
           0.5 * r2, -0.5 * r1)
    if all(map(cmath.isfinite, out)):
        return out
    raise NumericDomainError("mixer output moments overflow float64")


def _residuals(p: GaussianParams, s2t, c2t, rho, sigma) -> tuple[complex, complex]:
    # the residual kernel: sin, cos of 2 theta and the factors e^{i phi0}, e^{i phi1}
    e_sum = rho * sigma  # e^{i(phi0 + phi1)}
    r1 = s2t * (p.m2 * e_sum - p.m1 * e_sum.conjugate()) - 2.0 * c2t * p.m_c
    a = p.m_s * (rho * rho).conjugate()
    b = p.m_s.conjugate() * (sigma * sigma)
    r2 = s2t * sigma * rho.conjugate() * (p.n1 - p.n2) + c2t * (a + b) + (a - b)
    # abs is inf or nan for a non-finite residual, and raises OverflowError
    # for a finite one whose modulus passes float64
    try:
        if math.isfinite(abs(r1)) and math.isfinite(abs(r2)):
            return r1, r2
    except OverflowError:
        pass
    raise NumericDomainError("mixer residuals are not finite in float64")


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
    work; raises :class:`NumericDomainError` where a modulus passes float64.
    """
    tol = _check_tol(tol)
    # phases by atan2: cmath.phase's value, without its range error where the
    # phase of a subnormal imaginary part underflows
    try:
        if abs(abs(p.m1) - abs(p.m2)) > tol:
            return None
        if abs(p.m1) <= tol and abs(p.m2) <= tol:
            psi = math.atan2(p.m_s.imag, p.m_s.real) % math.pi if abs(p.m_s) > tol else 0.0
        else:
            psi = 0.5 * (math.atan2(p.m1.imag, p.m1.real) - math.atan2(p.m2.imag, p.m2.real))
    except OverflowError:  # a moment's modulus passes float64
        raise NumericDomainError("moments overflow float64 in the decoupling phases") from None
    phi0 = phi1 = 0.5 * psi
    rho = cmath.exp(1j * phi0)
    r1, r2 = _residuals(p, _S2T_5050, _C2T_5050, rho, rho)
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
    """Whether the two local blocks have equal determinants.

    The blocks' local symplectic eigenvalues ``sqrt(n^2 - |m|^2)`` are
    compared, within ``tol``: they are linear in the moments, as ``tol`` is,
    where the determinants are quadratic.  A negative determinant never
    equals a positive one.
    """
    tol = _check_tol(tol)
    det1, det2 = _local_determinants(p)
    nu1, nu2 = math.sqrt(abs(det1)), math.sqrt(abs(det2))
    return (det1 < 0.0) == (det2 < 0.0) and abs(nu1 - nu2) <= tol


def _normal_op(n: float, m: complex) -> tuple[float, float]:
    # the rotation making m real (its phase by atan2, as in
    # solve_decoupling_phases), then the squeeze removing it
    if m == 0:
        return 0.0, 0.0
    return 0.5 * math.atan2(m.imag, m.real), 0.5 * math.atanh(-abs(m) / n)


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
    record = LocalOperations(phi1, z1, phi2, z2)
    # cp = L1^dagger C L2 with L = [[e ch, e sh], [conj(e) sh, conj(e) ch]]
    e1, e2 = cmath.exp(1j * phi1), cmath.exp(1j * phi2)
    ch1, sh1, ch2, sh2 = math.cosh(z1), math.sinh(z1), math.cosh(z2), math.sinh(z2)
    a = e1.conjugate() * ch1 * p.m_s + e1 * sh1 * p.m_c.conjugate()  # row 0 of L1^dagger C
    b = e1.conjugate() * ch1 * p.m_c + e1 * sh1 * p.m_s.conjugate()
    normal = GaussianParams(math.sqrt(det1), math.sqrt(det2), 0j, 0j,
                            e2 * ch2 * a + e2.conjugate() * sh2 * b,
                            e2 * sh2 * a + e2.conjugate() * ch2 * b)
    return normal, record
