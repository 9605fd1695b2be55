"""Closed-loop timing with calibration against the machine's changing speed."""

from __future__ import annotations

import gc
import math
import statistics
import time
from array import array

import numpy as np

#: the calibration kernel's typical time on the 2-core Xeon sandbox the
#: benchmark was defined on; timed metrics are stated at this speed
CAL_NOMINAL_NS = 1.5e6
CHUNK_NS = 30e6
CAL_MATRIX = np.eye(4, dtype=complex) * 2.0


def calibration_kernel() -> float:
    """Fixed work of the workloads' mix: small numpy calls, float math, formatting, dicts."""
    total = 0.0
    for i in range(50):
        pair = np.array([[1.0 + i, 0.5j], [-0.5j, 2.0]], dtype=complex)
        total += float(np.linalg.det(pair).real) + float(np.linalg.det(CAL_MATRIX + i * 1e-3).real)
        for j in range(8):
            record = {"i": i, "text": f"{total:.8e},{j * 0.5:.8e}"}
            total += math.sqrt(i + j + 1.0) * (j % 7) + len(record["text"])
    return total


def calibrate() -> float:
    """Nanoseconds one calibration kernel takes right now (median of three).

    The garbage collector is paused meanwhile, so the kernel's time does not
    depend on how many objects the workload keeps alive.
    """
    times = []
    paused = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter_ns()
            calibration_kernel()
            times.append(time.perf_counter_ns() - start)
    finally:
        if paused:
            gc.enable()
    return float(sorted(times)[1])


class Sample:
    """Op times of one loop, raw and at the nominal machine speed.

    The shared 2-core machine changes speed by tens of percent within a
    second.  The loop is cut into chunks of about ``CHUNK_NS`` of op time,
    each bracketed by calibration kernels; a chunk's op times are divided by
    the kernels' mean over ``CAL_NOMINAL_NS``, which states them at the
    speed where the kernel takes exactly that long.  Times are kept in flat
    integer arrays so the harness's memory barely grows with the op count.
    """

    def __init__(self):
        self.op_ns = array("q")
        self.chunk_ends = array("q")
        self.chunk_speed = array("d")
        self.pass_ends = array("q")
        self.calibration = array("d")

    def add_chunk(self, op_ns: list[int], before: float, after: float) -> None:
        self.op_ns.extend(op_ns)
        self.chunk_ends.append(len(self.op_ns))
        self.chunk_speed.append(0.5 * (before + after) / CAL_NOMINAL_NS)
        self.calibration.append(after)

    def end_pass(self) -> None:
        self.pass_ends.append(len(self.op_ns))

    @property
    def op_raw(self) -> np.ndarray:
        return np.frombuffer(self.op_ns, dtype=np.int64).astype(float)

    @property
    def op_norm(self) -> np.ndarray:
        counts = np.diff(np.frombuffer(self.chunk_ends, dtype=np.int64), prepend=0)
        return self.op_raw / np.repeat(np.frombuffer(self.chunk_speed), counts)

    def passes(self, times: np.ndarray) -> np.ndarray:
        ends = np.frombuffer(self.pass_ends, dtype=np.int64)
        return np.add.reduceat(times, np.concatenate(([0], ends[:-1])))


def measure(workload, seconds: float, tally=None) -> Sample:
    """Closed loop over the workload's inputs until ``seconds`` have passed.

    Only the op call is timed; scoring and calibration follow it, outside
    the timed region.
    """
    clock = time.perf_counter_ns
    op, score = workload.op, workload.score
    sample = Sample()
    deadline = time.monotonic() + seconds
    n = len(workload)
    before = calibrate()
    while True:
        chunk: list[int] = []
        chunk_ns = 0
        for i in range(n):
            start = clock()
            outcome = op(i)
            elapsed = clock() - start
            chunk.append(elapsed)
            chunk_ns += elapsed
            if tally is not None:
                tally.record(score(i, outcome), lambda i=i: workload.describe(i))
            if chunk_ns >= CHUNK_NS or i == n - 1:
                after = calibrate()
                sample.add_chunk(chunk, before, after)
                before, chunk, chunk_ns = after, [], 0
        sample.end_pass()
        if time.monotonic() >= deadline:
            return sample


def items_per_s(workload, pass_ns) -> float:
    return len(workload) * workload.items_per_op * 1e9 / statistics.median(pass_ns)

