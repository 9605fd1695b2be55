"""Measuring worker: one fresh interpreter that sets up, then runs the timed loop.

Usage: python3 worker.py <src-dir> <work-dir> <workload> <index> <seconds> <trace 0|1>

The worker first imports ``gausspair.cli`` and runs the workload's first op
(``first_op.py``), recording when that finished so the caller can compute
set-up time.  It then loads the pickled workload the caller wrote to
``<work-dir>/workload.pkl``, runs one untimed warm-up pass (except for the
sweep, whose first op is one), measures for
``<seconds>``, and pickles its results to ``<work-dir>/result-<index>.pkl``.
"""

import sys
import time


def peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` is not used: Linux carries it over from the parent through
    fork and exec, so a worker would report its launcher's peak when that
    is higher.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    src, workdir, workload, index, seconds, trace = sys.argv[1:7]
    sys.path.insert(0, src)
    from first_op import first_op

    first_op(workload, workdir)
    setup_done = time.perf_counter()

    import os
    import pickle

    import gausspair
    import gausspair.cli
    from measure import calibrate, measure
    from spans import Tracer
    from workloads import Tally

    result = {"setup_done": setup_done, "setup_cal": calibrate()}
    with open(os.path.join(workdir, "workload.pkl"), "rb") as fh:
        job = pickle.load(fh)
    job.bind(gausspair, gausspair.cli)
    warm = Tally()
    if workload != "sweep-surface":  # its first op already ran a sweep
        measure(job, 0.0, warm)
    tally = Tally()
    if trace == "1":
        result["plain"] = measure(job, float(seconds) / 2, tally)
        tracer = Tracer()
        tracer.install()
        try:
            result["traced"] = measure(job, float(seconds) / 2, tally)
        finally:
            tracer.uninstall()
        result["layers"] = tracer.metrics(len(result["traced"].op_ns))
        result["span_self_s"] = tracer.self_total_s()
    else:
        result["sample"] = measure(job, float(seconds), tally)
        result["rss_mb"] = peak_rss_mb()
    result["tally"] = tally
    result["warm_failed"] = warm.failed
    with open(os.path.join(workdir, f"result-{index}.pkl"), "wb") as fh:
        pickle.dump(result, fh)


if __name__ == "__main__":
    main()
