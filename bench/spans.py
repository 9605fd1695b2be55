"""Per-layer spans recorded from the benchmark's side of the package boundary.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``gausspair`` module that holds a reference to it, so calls from other
modules and calls within the same module both pass through the wrapper.
``GaussianParams`` is traced through its ``__init__``.  Each span records its
inclusive duration; its parent's child time grows by that duration, so a
span's self time is its duration minus its children's.  Spans stay in memory
as per-function duration arrays and are summarised when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: (layer, attribute) pairs traced; layers are the package modules
TRACED = (
    ("covariance", "GaussianParams"),
    ("covariance", "build_covariance"),
    ("covariance", "schur_terms"),
    ("covariance", "is_physical"),
    ("covariance", "is_separable"),
    ("measures", "entanglement_degree"),
    ("measures", "trace_overlap"),
    ("measures", "bures_from_fidelity"),
    ("tmtss", "classify_symmetric"),
    ("mixer", "transform_blocks"),
    ("mixer", "coupling_residuals"),
    ("mixer", "solve_decoupling_phases"),
    ("mixer", "local_normal_form"),
    ("mixer", "is_ssld"),
    ("classicality", "mode_params"),
    ("classicality", "is_p_representable_mode"),
    ("classicality", "is_p_representable_joint"),
    ("cli", "main"),
    ("cli", "sweep_grid"),
    ("cli", "write_sweep_csv"),
    ("cli", "run_check"),
)
LAYERS = ("covariance", "measures", "tmtss", "mixer", "classicality", "cli")
DEFAULT_TOL = 1e-9  # the package's default tolerance, for the input-property probes


class _Stats:
    __slots__ = ("calls", "self_ns", "durations")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.durations = array("q")


class Tracer:
    def __init__(self, package: str = "gausspair"):
        self.package = package
        self.stats = {f"{layer}.{name}": _Stats() for layer, name in TRACED}
        self.stack: list[list[int]] = []
        self.fallback_hits = 0  # is_physical calls with |d| <= tol
        self.brentq_inputs = 0  # solve_decoupling_phases calls with m1 = m2 = 0, m_s != 0
        self.decoupled = 0  # solve_decoupling_phases calls that found phases
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stats = self.stats[key]
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_ns += elapsed - frame[0]
                stats.durations.append(elapsed)

        traced.__wrapped__ = fn
        return traced

    def _probe_physical(self, fn):
        def probed(p, *args, **kwargs):
            tol = args[0] if args else kwargs.get("tol", DEFAULT_TOL)
            if abs(p.n1 ** 2 - 0.25 - abs(p.m1) ** 2) <= tol:
                self.fallback_hits += 1
            return fn(p, *args, **kwargs)
        return probed

    def _probe_decoupling(self, fn):
        def probed(p, *args, **kwargs):
            tol = args[0] if args else kwargs.get("tol", DEFAULT_TOL)
            if abs(p.m1) <= tol and abs(p.m2) <= tol and abs(p.m_s) > tol:
                self.brentq_inputs += 1
            phases = fn(p, *args, **kwargs)
            if phases is not None:
                self.decoupled += 1
            return phases
        return probed

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == self.package or name.startswith(self.package + ".")]
        for layer, name in TRACED:
            key = f"{layer}.{name}"
            home = sys.modules[f"{self.package}.{layer}"]
            original = getattr(home, name)
            if isinstance(original, type):
                self._set(original, "__init__", self._wrap(key, original.__init__))
                continue
            replacement = self._wrap(key, original)
            if name == "is_physical":
                replacement = self._probe_physical(replacement)
            elif name == "solve_decoupling_phases":
                replacement = self._probe_decoupling(replacement)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-function calls, self seconds and median inclusive microseconds."""
        out: dict[str, tuple[float, str]] = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for key, st in self.stats.items():
            p50 = float(np.median(np.frombuffer(st.durations, dtype=np.int64))) / 1e3 if st.calls else 0.0
            out[f"{key}.calls"] = (st.calls, "count")
            out[f"{key}.self_s"] = (st.self_ns / 1e9, "s")
            out[f"{key}.p50_us"] = (p50, "us")
            layer_self[key.split(".")[0]] += st.self_ns
        for layer, ns in layer_self.items():
            out[f"{layer}.self_s"] = (ns / 1e9, "s")
        phys = self.stats["covariance.is_physical"].calls
        solves = self.stats["mixer.solve_decoupling_phases"].calls
        out["covariance.is_physical.calls_per_op"] = (phys / ops, "count")
        out["covariance.fallback_share"] = (self.fallback_hits / phys if phys else 0.0, "ratio")
        out["measures.trace_overlap.calls_per_op"] = (
            self.stats["measures.trace_overlap"].calls / ops, "count")
        out["mixer.decoupled_share"] = (self.decoupled / solves if solves else 0.0, "ratio")
        out["mixer.brentq_path_share"] = (self.brentq_inputs / solves if solves else 0.0, "ratio")
        return out

    def self_total_s(self) -> float:
        return sum(st.self_ns for st in self.stats.values()) / 1e9


def import_breakdown(stderr: str, packages=("numpy", "scipy", "gausspair")) -> dict[str, float]:
    """Seconds of import self time per package from ``python -X importtime`` output."""
    totals = dict.fromkeys(packages, 0.0)
    totals["total"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        self_us = int(fields[0])
        name = fields[2].strip()
        totals["total"] += self_us / 1e6
        root = name.split(".")[0]
        if root in totals and root != "total":
            totals[root] += self_us / 1e6
    return totals
