"""Workload definitions: inputs, the timed operation and its referee check.

Each workload object is built from the seed in the orchestrating process,
pickled to the measuring worker, and bound there to the ``gausspair``
modules with :meth:`bind`.  ``op(i)`` runs the timed operation on input
``i`` and returns its outcome; ``score(i, outcome)`` compares the outcome
with the referee answer outside the timed region and returns ``None`` or a
``(kind, message)`` failure.
"""

from __future__ import annotations

import hashlib
import math
import sys
from collections import Counter

import numpy as np

import inputs as gen
import referee as rf

TOL = 1e-9
GRID = dict(r=1.0, n_min=0.5, n_max=3.5, n_steps=141, m_min=0.0, m_max=3.0, m_steps=121)
MAX_EXAMPLES = 5


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def log(line: str) -> None:
    print(f"# {line}", flush=True)


class Tally:
    """Failed operations by kind, with the inputs of the first few."""

    KINDS = ("untyped_error", "wrong_typed_error", "verdict", "value")

    def __init__(self):
        self.attempted = 0
        self.kinds = Counter()
        self.examples: list[str] = []

    def record(self, failure, describe) -> None:
        self.attempted += 1
        if failure is None:
            return
        kind, message = failure
        self.kinds[kind] += 1
        if len(self.examples) < MAX_EXAMPLES:
            self.examples.append(f"{kind}: {message} | input {describe()}")

    @property
    def failed(self) -> int:
        return sum(self.kinds.values())

    def report(self, title: str) -> None:
        parts = ", ".join(f"{k} {self.kinds.get(k, 0)}" for k in self.KINDS)
        share = self.failed / self.attempted if self.attempted else 0.0
        log(f"{title}: fail_share = {share:.4g} ratio ({self.failed} failed / "
            f"{self.attempted} attempted; {parts})")
        for line in self.examples:
            log(f"  {line}")


def error_kind(err: Exception) -> str:
    # every typed error of the package derives from ValueError
    return "wrong_typed_error" if isinstance(err, ValueError) else "untyped_error"


# ---------------------------------------------------------------- check-ensemble


def check_expectation(case) -> dict:
    """Referee answer for one ``run_check`` input."""
    v = rf.assemble(*case.moments)
    if case.slice == "extreme-r":
        ref = rf.symmetric_degree_decimal(case.moments[0], case.moments[5].real, case.r)
    else:
        ref = rf.degree_reference(case.moments, case.r)
    ref.update(lam_phys=float(rf.lam_phys(v)), lam_ppt=float(rf.lam_ppt(v)),
               lam_prep=float(rf.lam_prep(v)), scale=float(rf.scale(v)))
    return ref


def score_check(case, ref: dict, outcome, nonphysical_error) -> tuple[str, str] | None:
    """Compare one ``run_check`` outcome with its referee answer."""
    status, value = outcome
    band = rf.BAND * ref["scale"]
    lp = ref["lam_phys"]
    representable = ref["fidelity"] >= sys.float_info.min and all(
        math.isfinite(ref[k]) for k in ("fidelity", "bures", "degree"))
    if status == "err":
        if lp <= band and isinstance(value, nonphysical_error):
            return None
        if not representable and isinstance(value, ValueError):
            return None  # a typed error is the right answer when float64 cannot hold it
        return error_kind(value), f"{type(value).__name__}: {value}"
    if lp < -band:
        return "verdict", f"accepted a nonphysical state (referee min eigenvalue {lp:.4g})"
    if abs(lp) <= band:
        return None  # physicality ambiguous at float64: only errors are scored
    for key, lam in (("separable", ref["lam_ppt"]), ("p_representable", ref["lam_prep"])):
        if abs(lam) > band and value[key] != (lam > 0):
            return "verdict", f"{key}={value[key]} but referee min eigenvalue is {lam:.4g}"
    if value["physical"] is not True:
        return "verdict", "physical flag is not True"
    for key in ("fidelity", "bures", "degree"):
        if not rf.close(value[key], ref[key], rel=1e-9, absolute=1e-12):
            return "value", f"{key}={value[key]!r}, referee {ref[key]!r}"
    if value["r"] != case.r:
        return "value", f"r={value['r']!r}, expected {case.r!r}"
    return None


class CheckEnsemble:
    name = "check-ensemble"
    items_per_op = 1

    def __init__(self, rng, per_class: int, probe_sizes=(240, 120)):
        self.cases = gen.check_ensemble(rng, per_class)
        self.refs = [check_expectation(c) for c in self.cases]
        self.probes = (gen.boundary_probe(rng, probe_sizes[0], TOL)
                       + gen.extreme_r_probe(rng, probe_sizes[1]))

    def bind(self, gp, cli) -> None:
        self.gp, self.cli = gp, cli
        self.params = [gp.GaussianParams(*c.moments) for c in self.cases]

    def __len__(self):
        return len(self.cases)

    def op(self, i):
        try:
            return "ok", self.cli.run_check(self.params[i], self.cases[i].r, TOL)
        except Exception as err:  # scored by the referee, never swallowed
            return "err", err

    def score(self, i, outcome):
        return score_check(self.cases[i], self.refs[i], outcome, self.gp.NonPhysicalStateError)

    def describe(self, i):
        return describe_case(self.cases[i])

    def properties(self) -> None:
        mix = Counter(c.label for c in self.cases)
        log(f"inputs: {len(self.cases)} general states at r = 1 (oracle classes "
            + ", ".join(f"{k} {mix[k]}" for k in ("nonphysical", "entangled", "separable")) + ")")
        log(f"inputs: eigenvalue-fallback share {fallback_share(self.cases):.4g} "
            f"(|d| <= tol), extreme-r share 0")

    def run_probes(self) -> None:
        """Untimed boundary and extreme-r slices; failures printed, not gated."""
        slices = {}
        for case in self.probes:
            slices.setdefault("extreme-r" if case.slice == "extreme-r" else "boundary", []).append(case)
        for name, cases in slices.items():
            tally = Tally()
            for case in cases:
                p = self.gp.GaussianParams(*case.moments)
                try:
                    outcome = "ok", self.cli.run_check(p, case.r, TOL)
                except Exception as err:
                    outcome = "err", err
                ref = check_expectation(case)
                tally.record(score_check(case, ref, outcome, self.gp.NonPhysicalStateError),
                             lambda c=case: describe_case(c))
            shares = f"eigenvalue-fallback share {fallback_share(cases):.4g}"
            if name == "extreme-r":
                shares = "extreme-r share 1"
            log(f"probe {name} slice ({len(cases)} states, untimed, not in attempted/failed; {shares})")
            tally.report(f"probe {name}")


def fallback_share(cases) -> float:
    hits = sum(abs(c.moments[0] ** 2 - 0.25 - abs(c.moments[2]) ** 2) <= TOL for c in cases)
    return hits / len(cases) if cases else 0.0


def describe_case(case) -> str:
    n1, n2, m1, m2, ms, mc = case.moments
    return (f"{case.slice} n1={n1!r} n2={n2!r} m1={m1!r} m2={m2!r} ms={ms!r} mc={mc!r} "
            f"r={case.r!r} oracle={case.label}")


# ---------------------------------------------------------------- mixer-theorem


class MixerTheorem:
    name = "mixer-theorem"
    items_per_op = 1

    def __init__(self, rng, count: int):
        self.cases = gen.mixer_ensemble(rng, count)
        self.matrices = [rf.assemble(*c.moments) for c in self.cases]
        self.lam_ppt = [float(rf.lam_ppt(v)) for v in self.matrices]
        self.expected = [rf.mix(v, *c.angles) if c.angles else None
                         for v, c in zip(self.matrices, self.cases)]
        self.seen_targets: list = [None] * len(self.cases)

    def bind(self, gp, cli) -> None:
        self.gp = gp
        self.params = [gp.GaussianParams(*c.moments) for c in self.cases]
        self.configs = [gp.MixerConfig(*c.angles) if c.angles else None for c in self.cases]

    def __len__(self):
        return len(self.cases)

    def op(self, i):
        gp = self.gp
        p, case = self.params[i], self.cases[i]
        try:
            ssld = normal = phases = None
            if case.angles:
                target, cfg = p, self.configs[i]
            else:
                ssld = gp.is_ssld(p)
                normal, _ = gp.local_normal_form(p)
                target = p if case.kind == "phase-sum" else normal
                phases = gp.solve_decoupling_phases(target)
                cfg = gp.MixerConfig(math.pi / 4, *(phases or (0.0, 0.0)))
            blocks = gp.transform_blocks(target, cfg)
            residuals = gp.coupling_residuals(target, cfg)
            ports = [gp.mode_params(blocks.v1p), gp.mode_params(blocks.v2p)]
            classical = [gp.is_p_representable_mode(md) for md in ports]
        except Exception as err:  # scored by the referee, never swallowed
            return "err", err
        return "ok", (ssld, normal, phases, cfg, target, blocks, residuals, ports, classical)

    def score(self, i, outcome):
        status, value = outcome
        if status == "err":
            return error_kind(value), f"{type(value).__name__}: {value}"
        ssld, normal, phases, cfg, target, blocks, residuals, ports, classical = value
        case = self.cases[i]
        if case.angles:
            v_target, own = self.matrices[i], self.expected[i]
        else:
            if ssld is not True:
                return "verdict", "is_ssld rejected an equal-determinant state"
            bad = self._score_normal_form(i, normal)
            if bad:
                return bad
            v_target = rf.assemble(target.n1, target.n2, target.m1, target.m2, target.m_s, target.m_c)
            own = rf.mix(v_target, cfg.theta, cfg.phi0, cfg.phi1)
            self.seen_targets[i] = (target, phases is not None)
        size = float(rf.scale(v_target))
        got = (blocks.v1p, blocks.v2p, blocks.cp)
        want = (own[:2, :2], own[2:, 2:], own[:2, 2:])
        err = max(float(np.abs(np.asarray(g) - w).max()) for g, w in zip(got, want))
        if err > 1e-10 * size:
            return "value", f"transform_blocks off the 4x4 conjugation by {err:.3g}"
        r1, r2 = residuals
        if abs(r1 + 2 * own[0, 3]) > 1e-10 * size or abs(r2 - 2 * own[0, 2]) > 1e-10 * size:
            return "value", f"coupling residuals {r1!r}, {r2!r} disagree with the cross block"
        for j, (md, ok) in enumerate(zip(ports, classical)):
            block = own[2 * j:2 * j + 2, 2 * j:2 * j + 2]
            if abs(md.n - block[0, 0].real) > 1e-10 * size or abs(md.m - block[0, 1]) > 1e-10 * size:
                return "value", f"port {j + 1} mode_params {md} off the output block"
            margin = float(rf.lam_prep(block))
            if abs(margin) > rf.BAND * size and ok != (margin > 0):
                return "verdict", f"port {j + 1} classical={ok}, referee margin {margin:.4g}"
        if case.angles:
            return None
        if (phases is not None) != case.decouplable:
            return "verdict", f"decoupling phases {phases} for a state built decouplable={case.decouplable}"
        if phases is not None and float(np.abs(own[:2, 2:]).max()) > 1e-8 * size:
            return "value", f"phases {phases} leave cross block {float(np.abs(own[:2, 2:]).max()):.3g}"
        lam = self.lam_ppt[i]
        if case.kind == "theorem" and abs(lam) > rf.BAND * size:
            ports_ok = all(abs(float(rf.lam_prep(own[2 * j:2 * j + 2, 2 * j:2 * j + 2]))) > rf.BAND * size
                           for j in (0, 1))
            if ports_ok and (lam > 0) != (classical[0] and classical[1]):
                return "verdict", (f"input separable={lam > 0} but port classicality "
                                   f"{classical[0]}, {classical[1]}")
        return None

    def _score_normal_form(self, i, normal):
        n1, n2, m1, m2, ms, mc = self.cases[i].moments
        size = float(rf.scale(self.matrices[i]))
        for got, det, m in ((normal.n1, n1 * n1 - abs(m1) ** 2, normal.m1),
                            (normal.n2, n2 * n2 - abs(m2) ** 2, normal.m2)):
            if not rf.close(got, math.sqrt(det), rel=1e-9) or abs(m) > 1e-9 * size:
                return "value", f"normal form {normal} is not (sqrt(det), m = 0)"
        lam = self.lam_ppt[i]
        lam_normal = float(rf.lam_ppt(rf.assemble(normal.n1, normal.n2, normal.m1, normal.m2,
                                                  normal.m_s, normal.m_c)))
        if abs(lam) > rf.BAND * size and abs(lam_normal) > rf.BAND * size and (lam > 0) != (lam_normal > 0):
            return "verdict", "local normal form changed the separability verdict"
        return None

    def describe(self, i):
        c = self.cases[i]
        return f"{c.kind} moments={c.moments!r} angles={c.angles!r}"

    def properties(self) -> None:
        kinds = Counter(c.kind for c in self.cases)
        seen = [s for s, c in zip(self.seen_targets, self.cases) if not c.angles and s]
        brentq = sum(abs(t.m1) <= TOL and abs(t.m2) <= TOL and abs(t.m_s) > TOL for t, _ in seen)
        found = sum(ok for _, ok in seen)
        sep = sum(lam > 0 for lam, c in zip(self.lam_ppt, self.cases) if c.kind == "theorem")
        log(f"inputs: {len(self.cases)} states ("
            + ", ".join(f"{k} {kinds[k]}" for k in ("general", "theorem", "brentq", "phase-sum")) + ")")
        log(f"inputs: brentq-path share {brentq / len(self.cases):.4g} of ops, "
            f"decoupling-found share {found / len(seen) if seen else 0.0:.4g} of {len(seen)} SSLD ops, "
            f"oracle separable {sep} of {kinds['theorem']} theorem states, "
            f"eigenvalue-fallback share {fallback_share(self.cases):.4g}")


# ---------------------------------------------------------------- sweep-surface


def grid_axes():
    g = GRID
    n = g["n_min"] + (g["n_max"] - g["n_min"]) * np.arange(g["n_steps"]) / (g["n_steps"] - 1)
    m = g["m_min"] + (g["m_max"] - g["m_min"]) * np.arange(g["m_steps"]) / (g["m_steps"] - 1)
    return n, m


def score_sweep_csv(text: str, n_axis, m_axis, r: float) -> list[tuple[str, str]]:
    """Check a sweep CSV against the symmetric-class closed forms."""
    problems = []
    lines = text.split("\n")
    if lines[0] != "n,m,class,E" or lines[-1] != "":
        return [("value", "CSV header or final newline missing")]
    rows = [line.split(",") for line in lines[1:-1]]
    nn, mm = np.meshgrid(n_axis, m_axis, indexing="ij")
    nn, mm = nn.ravel(), mm.ravel()
    if len(rows) != nn.size or any(len(row) != 4 for row in rows):
        return [("value", f"CSV has {len(rows)} rows, expected {nn.size} of 4 fields")]
    n_csv = np.array([float(row[0]) for row in rows])
    m_csv = np.array([float(row[1]) for row in rows])
    label_csv = np.array([row[2] for row in rows])
    e_csv = np.array([float(row[3]) if row[3] else np.nan for row in rows])
    label, e_ref, near = rf.symmetric_surface(nn, mm, r, TOL)
    if not (np.allclose(n_csv, nn, rtol=1e-8, atol=1e-12) and np.allclose(m_csv, mm, rtol=1e-8, atol=1e-12)):
        problems.append(("value", "grid coordinates differ from the default grid"))
    wrong = (label_csv != label) & (near > 1e-12)
    for k in np.flatnonzero(wrong)[:MAX_EXAMPLES]:
        problems.append(("verdict", f"row {k + 1}: class {label_csv[k]}, referee {label[k]}"))
    phys = label_csv != "nonphysical"
    if np.any(np.isnan(e_csv) == phys):
        problems.append(("value", "E column empty on a physical row or set on a nonphysical one"))
    both = phys & (label == label_csv)
    diff = np.abs(e_csv - e_ref) > 2e-8 * np.maximum(1.0, np.abs(e_ref))
    for k in np.flatnonzero(both & diff)[:MAX_EXAMPLES]:
        problems.append(("value", f"row {k + 1}: E={e_csv[k]!r}, referee {e_ref[k]!r}"))
    return problems


class SweepSurface:
    name = "sweep-surface"

    def __init__(self, out: str, golden_sha256: str):
        self.out = out
        self.golden = golden_sha256
        n, m = grid_axes()
        self.n_axis, self.m_axis = n, m
        self.items_per_op = n.size * m.size

    def bind(self, gp, cli) -> None:
        self.cli = cli

    def __len__(self):
        return 1

    def op(self, i):
        try:
            return "ok", self.cli.main(["sweep", "--out", self.out])
        except Exception as err:  # scored by the referee, never swallowed
            return "err", err

    def score(self, i, outcome):
        status, value = outcome
        if status == "err":
            return error_kind(value), f"{type(value).__name__}: {value}"
        if value != 0:
            return "value", f"exit code {value}"
        with open(self.out, "rb") as fh:
            if sha256(fh.read()) != self.golden:
                return "value", "default-grid CSV differs from the golden SHA-256"
        return None

    def describe(self, i):
        return "gausspair sweep (default grid)"

    def properties(self) -> None:
        nn, mm = np.meshgrid(self.n_axis, self.m_axis, indexing="ij")
        label, _, _ = rf.symmetric_surface(nn.ravel(), mm.ravel(), GRID["r"], TOL)
        mix = Counter(label.tolist())
        phys = label != "nonphysical"
        hits = int(np.sum(phys & (np.abs(nn.ravel() ** 2 - 0.25) <= TOL)))
        log(f"inputs: {label.size} grid points at r = {GRID['r']} (oracle classes "
            + ", ".join(f"{k} {mix[k]}" for k in ("nonphysical", "entangled", "separable")) + ")")
        log(f"inputs: eigenvalue-fallback share {hits / max(1, int(phys.sum())):.4g} of physical "
            "points, extreme-r share 0")


