"""Fresh-interpreter set-up probe: import ``gausspair.cli`` and run one small op.

Usage: python3 first_op.py <src-dir> <workload> <scratch-dir>

Imports nothing from the benchmark, so the time to its end is the package's
import plus the first call of the workload's operation:

* sweep-surface:  ``gausspair sweep`` on a 2x2 grid written to a file,
* check-ensemble: ``run_check`` on one general physical state,
* mixer-theorem:  the transform pipeline on one SSLD state at 50:50.
"""

import os
import sys


def first_op(workload: str, scratch: str) -> None:
    import gausspair.cli as cli
    from gausspair import (GaussianParams, MixerConfig, coupling_residuals,
                           is_p_representable_mode, local_normal_form, mode_params,
                           solve_decoupling_phases, transform_blocks)

    if workload == "sweep-surface":
        out = os.path.join(scratch, "first_op.csv")
        if cli.main(["sweep", "--n-steps", "2", "--m-steps", "2", "--out", out]) != 0:
            raise RuntimeError("first sweep failed")
    elif workload == "check-ensemble":
        p = GaussianParams(n1=1.6, n2=1.9, m1=0.3 + 0.2j, m2=-0.2 + 0.1j, m_s=0.2 - 0.3j, m_c=0.4 + 0.1j)
        cli.run_check(p, 1.0)
    elif workload == "mixer-theorem":
        p = GaussianParams(n1=1.5, n2=1.5, m1=0.3j, m2=0.3, m_s=0.2, m_c=0.5)
        normal, _ = local_normal_form(p)
        phases = solve_decoupling_phases(normal) or (0.0, 0.0)
        cfg = MixerConfig(0.7853981633974483, *phases)
        blocks = transform_blocks(normal, cfg)
        coupling_residuals(normal, cfg)
        for block in (blocks.v1p, blocks.v2p):
            is_p_representable_mode(mode_params(block))
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    first_op(sys.argv[2], sys.argv[3])
