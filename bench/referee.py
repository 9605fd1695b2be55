"""Independent referees for the benchmark's correctness checks.

Nothing here calls into ``gausspair``.  Covariance matrices are assembled
from the six moments by this module's own code, verdicts come from
``numpy.linalg.eigvalsh`` on ``V + Sigma/2`` and on its partial transpose,
the mixer is a 4x4 conjugation built here, and the symmetric-class surface
uses the closed forms

    F     = 1 / ((n + N)^2 - (m + M)^2),   F_sep = 1 / (4 N^2 - M^2),
    E     = 1 - (1 - sqrt F) / (1 - sqrt F_sep),
    N     = cosh(2r) / 2,                  M     = sinh(2r) / 2,

evaluated in float64 for the sweep and in 50-digit ``decimal`` for the
extreme-squeezing probe.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

SIGNATURE = np.diag([1.0, -1.0, 1.0, -1.0])
MIRROR = [0, 1, 3, 2]

#: verdicts closer than this to a boundary (in eigenvalue units, relative to
#: the matrix scale) are ambiguous at float64 and are not scored
BAND = 1e-7


def assemble(n1, n2, m1, m2, ms, mc) -> np.ndarray:
    """Covariance matrices over (a1+, a1, a2+, a2); arguments may be arrays."""
    n1, n2, m1, m2, ms, mc = np.broadcast_arrays(
        *(np.asarray(x, dtype=complex) for x in (n1, n2, m1, m2, ms, mc))
    )
    v = np.empty(n1.shape + (4, 4), dtype=complex)
    rows = (
        (n1, m1, ms, mc),
        (m1.conj(), n1, mc.conj(), ms.conj()),
        (ms.conj(), mc, n2, m2),
        (mc.conj(), ms, m2.conj(), n2),
    )
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            v[..., i, j] = x
    return v


def mirror(v: np.ndarray) -> np.ndarray:
    """Partial transpose: exchange a2 and a2+ (rows and columns 2 and 3)."""
    return v[..., MIRROR, :][..., :, MIRROR]


def scale(v: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.abs(v).max(axis=(-2, -1)))


def lam_phys(v):
    return np.linalg.eigvalsh(v + 0.5 * SIGNATURE)[..., 0]


def lam_ppt(v):
    return np.linalg.eigvalsh(mirror(v) + 0.5 * SIGNATURE)[..., 0]


def lam_prep(v):
    return np.linalg.eigvalsh(v - 0.5 * np.eye(v.shape[-1]))[..., 0]


def threshold(build, lo, hi, which, iters: int = 52) -> np.ndarray:
    """Smallest x with ``which(build(x)) >= 0``, by vectorised bisection.

    ``build(x)`` returns a stack of covariance matrices whose tested minimum
    eigenvalue is nondecreasing in ``x`` (x adds a positive semidefinite
    diagonal), so the sign change is unique.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    for _ in range(60):
        low = which(build(hi)) < 0
        if not low.any():
            break
        hi = np.where(low, 2.0 * hi + 1.0, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        ok = which(build(mid)) >= 0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def overlap(va: np.ndarray, vb: np.ndarray) -> float:
    """``1/sqrt(det(va + vb))`` with the determinant taken as an eigenvalue product.

    NaN when the determinant is not positive, which happens only for a
    nonphysical state; no value of such a state is scored.
    """
    det = float(np.prod(np.linalg.eigvalsh(va + vb)))
    return 1.0 / math.sqrt(det) if det > 0 else math.nan


def squeezing_refs(r: float) -> tuple[float, float, float]:
    """(N, M, F_sep) of the twin-beam reference at squeezing r."""
    big_n = 0.5 * math.cosh(2.0 * r)
    big_m = 0.5 * math.sinh(2.0 * r)
    return big_n, big_m, 1.0 / (4.0 * big_n * big_n - big_m * big_m)


def degree_reference(moments: tuple, r: float) -> dict:
    """Fidelity, Bures distance and degree of a state against the squeezing-r reference.

    The twin-beam reference has occupations N and cross moment M rotated
    onto the state's ``m_c`` phase, as ``entanglement_degree`` documents.
    """
    mc = moments[5]
    big_n, big_m, f_sep = squeezing_refs(r)
    phase = np.exp(1j * np.angle(mc)) if mc != 0 else 1.0
    f = overlap(assemble(*moments), assemble(big_n, big_n, 0, 0, 0, big_m * phase))
    bures = 2.0 - 2.0 * math.sqrt(f)
    return {"fidelity": f, "bures": bures, "degree": 1.0 - bures / (2.0 - 2.0 * math.sqrt(f_sep))}


def symmetric_surface(n: np.ndarray, m: np.ndarray, r: float, tol: float):
    """Closed-form classes and degrees for symmetric-class points (n, n, m_c=m).

    Returns (label array, degree array with nan where nonphysical, distance
    of each point to the nearer class boundary).
    """
    phys_margin = n - np.sqrt(m * m + 0.25)
    sep_margin = n - (m + 0.5)
    label = np.where(
        phys_margin < -tol, "nonphysical", np.where(sep_margin < -tol, "entangled", "separable")
    )
    big_n, big_m, f_sep = squeezing_refs(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        f = 1.0 / ((n + big_n) ** 2 - (m + big_m) ** 2)
        e = 1.0 - (1.0 - np.sqrt(f)) / (1.0 - math.sqrt(f_sep))
    e = np.where(label == "nonphysical", np.nan, e)
    near = np.minimum(np.abs(phys_margin + tol), np.abs(sep_margin + tol))
    return label, e, near


def symmetric_degree_decimal(n: float, m: float, r: float) -> dict:
    """Fidelity, Bures distance and degree of (n, n, m_c=m) at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        n, m, two_r = Decimal(n), Decimal(abs(m)), 2 * Decimal(r)
        e_pos, e_neg = two_r.exp(), (-two_r).exp()
        big_n = (e_pos + e_neg) / 4
        big_m = (e_pos - e_neg) / 4
        # factored so no large terms cancel: N - M = exp(-2r)/2 and
        # 4N^2 - M^2 = 1 + 3 M^2
        f = 1 / ((n - m + e_neg / 2) * (n + m + big_n + big_m))
        sep_excess = 3 * big_m * big_m
        f_sep = 1 / (1 + sep_excess)
        # 1 - sqrt(x) = (1 - x) / (1 + sqrt(x)) keeps the tiny-r limit exact
        d_state = 2 * (1 - f) / (1 + f.sqrt())
        d_sep = 2 * (sep_excess / (1 + sep_excess)) / (1 + f_sep.sqrt())
        degree = 1 - d_state / d_sep
        return {"fidelity": float(f), "bures": float(d_state), "degree": float(degree)}


def mixer_matrix(theta: float, phi0: float, phi1: float) -> np.ndarray:
    """The mode-vector matrix of the beam splitter, built here from its angles."""
    c, s = math.cos(theta), math.sin(theta)
    e0, e1 = np.exp(1j * phi0), np.exp(1j * phi1)
    return np.array(
        [
            [c * e0, 0, s * e1, 0],
            [0, c / e0, 0, s / e1],
            [-s / e1, 0, c / e0, 0],
            [0, -s * e1, 0, c * e0],
        ],
        dtype=complex,
    )


def mix(v: np.ndarray, theta: float, phi0: float, phi1: float) -> np.ndarray:
    """Output covariance ``U^dagger V U`` (U is unitary, so its inverse is U^dagger)."""
    u = mixer_matrix(theta, phi0, phi1)
    return u.conj().T @ v @ u


def local_op(phi: float, z: float) -> np.ndarray:
    """One-mode rotation then squeeze in the (a+, a) basis."""
    rot = np.diag([np.exp(1j * phi), np.exp(-1j * phi)])
    sq = np.array([[math.cosh(z), math.sinh(z)], [math.sinh(z), math.cosh(z)]])
    return rot @ sq


def apply_local(v: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    k = np.zeros((4, 4), dtype=complex)
    k[:2, :2] = k1
    k[2:, 2:] = k2
    return k.conj().T @ v @ k


def moments(v: np.ndarray) -> tuple:
    """Read (n1, n2, m1, m2, ms, mc) back off an assembled matrix."""
    return (v[0, 0].real, v[2, 2].real, v[0, 1], v[2, 3], v[0, 2], v[0, 3])


def close(a, b, rel: float, absolute: float = 0.0) -> bool:
    return abs(a - b) <= absolute + rel * max(abs(a), abs(b))
