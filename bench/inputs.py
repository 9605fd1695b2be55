"""Seeded input generation for the benchmark workloads.

Every input is labelled by the eigenvalue referee when it is made, so the
timed loop only compares.  Generated states keep a margin from every class
boundary except in the deliberate boundary probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import referee as rf

MARGIN = 1e-3  # smallest |min eigenvalue| a labelled ensemble state may have


@dataclass(frozen=True)
class CheckCase:
    moments: tuple  # (n1, n2, m1, m2, ms, mc)
    r: float
    label: str  # nonphysical | entangled | separable, from the referee
    slice: str


@dataclass(frozen=True)
class MixerCase:
    moments: tuple
    kind: str  # general | theorem | brentq | phase-sum
    angles: tuple | None  # (theta, phi0, phi1) for general cases
    decouplable: bool | None  # construction-time expectation for SSLD cases


def _phases(rng, k):
    return np.exp(2j * np.pi * rng.uniform(size=k))


def _general_moments(rng, k):
    """Four nonzero complex moments and a physical-side n1 for k candidates."""
    m1, m2, ms, mc = (rng.uniform(0.05, 1.0, k) * _phases(rng, k) for _ in range(4))
    n1 = np.sqrt(np.abs(m1) ** 2 + 0.25) + rng.uniform(0.05, 1.5, k)
    return n1, m1, m2, ms, mc


def _n2_bounds(n1, m1, m2, ms, mc):
    """Referee thresholds on n2: physicality and PPT."""
    def build(x):
        return rf.assemble(n1, x, m1, m2, ms, mc)
    lo = np.zeros_like(n1)
    hi = n1 + np.abs(m2) + np.abs(ms) + np.abs(mc) + 1.0
    return rf.threshold(build, lo, hi, rf.lam_phys), rf.threshold(build, lo, hi, rf.lam_ppt)


def check_ensemble(rng, per_class: int) -> list[CheckCase]:
    """General states (all six moments nonzero), one third of each class, at r = 1.

    Half of the nonphysical states fail at the party-1 pivot and half at the
    Schur inequality, so both reject branches run.
    """
    want = {"nonphysical": per_class, "entangled": per_class, "separable": per_class}
    cases: list[CheckCase] = []
    while any(want.values()):
        k = 4 * per_class + 16
        n1, m1, m2, ms, mc = _general_moments(rng, k)
        b_phys, b_ppt = _n2_bounds(n1, m1, m2, ms, mc)
        for i in range(k):
            target = ("nonphysical", "entangled", "separable")[rng.integers(3)]
            if not want[target]:
                continue
            a, b = b_phys[i], b_ppt[i]
            n1i = n1[i]
            if target == "nonphysical":
                if want["nonphysical"] % 2:
                    n1i = math.sqrt(abs(m1[i]) ** 2 + 0.25) - rng.uniform(0.05, 0.3)
                    n2 = rng.uniform(1.0, 3.0)
                else:
                    n2 = a - rng.uniform(0.05, 0.6)
            elif target == "entangled":
                if b - a < 0.05:
                    continue
                n2 = a + (b - a) * rng.uniform(0.1, 0.9)
            else:
                n2 = b + rng.uniform(0.05, 1.0)
            mom = (float(n1i), float(n2), complex(m1[i]), complex(m2[i]), complex(ms[i]), complex(mc[i]))
            v = rf.assemble(*mom)
            lp, lt = float(rf.lam_phys(v)), float(rf.lam_ppt(v))
            label = "nonphysical" if lp < 0 else ("entangled" if lt < 0 else "separable")
            if label != target or min(abs(lp), abs(lt)) < MARGIN:
                continue
            want[target] -= 1
            cases.append(CheckCase(mom, 1.0, target, "general"))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def boundary_probe(rng, count: int, tol: float) -> list[CheckCase]:
    """States within a few ``tol`` of the pivot bound and of the PPT bound.

    ``n1`` sits at ``sqrt(|m1|^2 + 1/4) + k tol`` for k in [-4, 4] on the
    pivot half, and ``n2`` at the referee's PPT threshold ``+ k tol`` on the
    other half.  Labels come from the referee; points closer to a boundary
    than the scoring band are scored only on whether they raise untyped
    errors.
    """
    cases = []
    half = count // 2
    n1, m1, m2, ms, mc = _general_moments(rng, count)
    m1 = m1 * rng.uniform(1.0, 10.0, count)
    n1 = np.sqrt(np.abs(m1) ** 2 + 0.25) + rng.uniform(0.05, 1.5, count)
    b_phys, b_ppt = _n2_bounds(n1, m1, m2, ms, mc)
    for i in range(count):
        k = rng.uniform(-4.0, 4.0)
        if i < half:
            n1i = math.sqrt(abs(m1[i]) ** 2 + 0.25) + k * tol
            n2 = float(b_ppt[i]) + rng.uniform(0.0, 3.0)
            tag = "pivot"
        else:
            n1i = float(n1[i])
            n2 = float(b_ppt[i]) + k * tol
            tag = "ppt"
        mom = (float(n1i), float(n2), complex(m1[i]), complex(m2[i]), complex(ms[i]), complex(mc[i]))
        v = rf.assemble(*mom)
        lp, lt = float(rf.lam_phys(v)), float(rf.lam_ppt(v))
        label = "nonphysical" if lp < 0 else ("entangled" if lt < 0 else "separable")
        cases.append(CheckCase(mom, 1.0, label, f"boundary-{tag}"))
    return cases


def extreme_r_probe(rng, count: int) -> list[CheckCase]:
    """Symmetric-class states scored at r log-uniform in [1e-9, 1e-3] or [15, 400]."""
    cases = []
    for i in range(count):
        if i % 2:
            r = 10.0 ** rng.uniform(-9.0, -3.0)
        else:
            r = 10.0 ** rng.uniform(math.log10(15.0), math.log10(400.0))
        m = rng.uniform(0.1, 2.0)
        if rng.uniform() < 0.5:
            n = math.sqrt(m * m + 0.25) + (m + 0.5 - math.sqrt(m * m + 0.25)) * rng.uniform(0.2, 0.8)
            label = "entangled"
        else:
            n = m + 0.5 + rng.uniform(0.05, 2.0)
            label = "separable"
        cases.append(CheckCase((n, n, 0j, 0j, 0j, complex(m)), float(r), label, "extreme-r"))
    return cases


def _symmetric_n(rng, m, entangled: bool):
    """An n on the entangled or the separable side of (n, n, m_c=m), with margin."""
    phys = math.sqrt(m * m + 0.25)
    if entangled:
        return phys + (m + 0.5 - phys) * rng.uniform(0.15, 0.85)
    return m + 0.5 + rng.uniform(0.05, 1.5)


def _random_local(rng, v):
    k1 = rf.local_op(rng.uniform(0, 2 * math.pi), rng.uniform(-0.6, 0.6))
    k2 = rf.local_op(rng.uniform(0, 2 * math.pi), rng.uniform(-0.6, 0.6))
    return rf.apply_local(v, k1, k2)


def _equal_n_threshold(m1, m2, ms, mc):
    """Referee physicality threshold on n for n1 = n2 = n."""
    def build(x):
        return rf.assemble(x, x, m1, m2, ms, mc)
    hi = 1.0 + abs(m1) + abs(m2) + abs(ms) + abs(mc)
    return float(rf.threshold(build, np.array(0.0), np.array(hi), rf.lam_phys))


def mixer_ensemble(rng, count: int) -> list[MixerCase]:
    """One third general states at random angles, two thirds SSLD states split three ways.

    * theorem: symmetric-class states (n, n, m_c) behind random local
      rotations and squeezes; their normal form has m_s = 0, so the 50:50
      decoupled mixer must map separability to both-ports classicality.
    * brentq: states whose normal form has m1 = m2 = 0 and m_s != 0, which
      sends ``solve_decoupling_phases`` to its root search.
    * phase-sum: n1 = n2 and |m1| = |m2| != 0; three in four carry an m_s
      aligned with the pinned phase sum (decouplable), one in four do not.

    Kinds, and the sides of each split, alternate by position, so every
    seed has the same mix.  General ops take about half as long as SSLD
    ops; with half of each the median op time would sit in the gap between
    the two groups and jump from run to run, so general states are a third.
    """
    cases: list[MixerCase] = []
    while len(cases) < count:
        i = len(cases)
        if i % 3 == 0:
            n1, m1, m2, ms, mc = _general_moments(rng, 1)
            b_phys, b_ppt = _n2_bounds(n1, m1, m2, ms, mc)
            n2 = float(b_phys[0]) + rng.uniform(0.05, 1.5)
            mom = (float(n1[0]), n2, complex(m1[0]), complex(m2[0]), complex(ms[0]), complex(mc[0]))
            if abs(float(rf.lam_phys(rf.assemble(*mom)))) < MARGIN:
                continue
            angles = (rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            cases.append(MixerCase(mom, "general", angles, None))
            continue
        ssld = 2 * (i // 3) + i % 3 - 1  # how many SSLD cases came before
        kind = ("theorem", "brentq", "phase-sum")[ssld % 3]
        serial = ssld // 3  # how many of this kind came before
        decouplable = True
        if kind == "theorem":
            m = rng.uniform(0.1, 2.0)
            n = _symmetric_n(rng, m, entangled=serial % 2 == 0)
            base = rf.assemble(n, n, 0, 0, 0, m * _phases(rng, 1)[0])
            v = _random_local(rng, base)
        elif kind == "brentq":
            ms = rng.uniform(0.1, 1.0) * _phases(rng, 1)[0]
            mc = rng.uniform(0.1, 1.5) * _phases(rng, 1)[0]
            n = _equal_n_threshold(0, 0, ms, mc) + rng.uniform(0.05, 1.5)
            v = _random_local(rng, rf.assemble(n, n, 0, 0, ms, mc))
        else:
            mu = rng.uniform(0.1, 1.0)
            a1, a2 = rng.uniform(0, 2 * math.pi, 2)
            m1, m2 = mu * np.exp(1j * a1), mu * np.exp(1j * a2)
            psi = 0.5 * (a1 - a2)
            decouplable = serial % 4 != 3
            ms_phase = psi if decouplable else psi + rng.uniform(0.2, math.pi - 0.2)
            ms = rng.uniform(0.1, 0.6) * np.exp(1j * ms_phase)
            mc = rng.uniform(0.1, 1.5) * _phases(rng, 1)[0]
            n = _equal_n_threshold(m1, m2, ms, mc) + rng.uniform(0.05, 1.5)
            v = rf.assemble(n, n, m1, m2, ms, mc)
        mom = tuple(float(x) if j < 2 else complex(x) for j, x in enumerate(rf.moments(v)))
        w = rf.assemble(*mom)
        if float(np.abs(w - v).max()) > 1e-12 * float(rf.scale(v)):
            raise RuntimeError("local operation left the two-mode layout")
        if min(abs(float(rf.lam_phys(w))), abs(float(rf.lam_ppt(w)))) < MARGIN:
            continue
        cases.append(MixerCase(mom, kind, None, decouplable))
    return cases
