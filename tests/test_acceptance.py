"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np

from gausspair import (
    DegenerateStateError,
    GaussianParams,
    MixerConfig,
    ModeParams,
    ModelValidityError,
    TmtssInputs,
    build_covariance,
    bures_from_fidelity,
    compose_bures,
    entanglement_degree,
    is_p_representable_mode,
    is_physical,
    is_separable,
    mode_params,
    output_port_fidelity,
    separable_distance,
    tmtss_params,
    trace_overlap,
    transform_blocks,
)
from gausspair import oracle, sweep
from gausspair.oracle import (
    COMMUTATOR_SIGNATURE, build_mixer, mixer_inverse, mode_covariance, partial_transpose,
    transform_full,
)

from conftest import block_error, draw_mixer, draw_params, draw_symmetric_physical, reference_states

BOUNDARY_BAND = 1e-7


def _report(num, ok, desc):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_explicit_criteria_match_eigenvalue_oracle():
    rng = np.random.default_rng(101)
    start = time.monotonic()

    params = [draw_params(rng, m_hi=5.0 if i % 2 else 1.2) for i in range(40000)]
    stack = np.stack([build_covariance(p) for p in params])
    phys_margins = oracle.eig_min_hermitian(stack + 0.5 * COMMUTATOR_SIGNATURE)

    phys_disagree = 0
    physical = []
    for p, margin in zip(params, phys_margins):
        if abs(margin) < BOUNDARY_BAND:
            continue
        if is_physical(p) != (margin > 0):
            phys_disagree += 1
        if margin > 0:
            physical.append(p)

    mirror = [0, 1, 3, 2]
    phys_stack = np.stack([build_covariance(p) for p in physical])
    pt_stack = phys_stack[:, mirror][:, :, mirror]
    sep_margins = oracle.eig_min_hermitian(pt_stack + 0.5 * COMMUTATOR_SIGNATURE)

    sep_disagree = 0
    for p, margin in zip(physical, sep_margins):
        if abs(margin) < BOUNDARY_BAND:
            continue
        if is_separable(p) != (margin > 0):
            sep_disagree += 1

    elapsed = time.monotonic() - start
    ok = (
        len(physical) >= 10000
        and phys_disagree == 0
        and sep_disagree == 0
        and elapsed < 10.0
    )
    _report(
        1, ok,
        "criterion equivalence: explicit inequalities vs eigenvalue oracle "
        f"({len(physical)} physical draws, {phys_disagree}+{sep_disagree} disagreements, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_2_separability_equals_output_classicality():
    rng = np.random.default_rng(102)
    bs = MixerConfig(theta=math.pi / 4)
    disagree = 0
    checked = 0
    for p in draw_symmetric_physical(rng, 12000):
        if abs(p.n1 - abs(p.m_c) - 0.5) < BOUNDARY_BAND:
            continue
        checked += 1
        blocks = transform_blocks(p, bs)
        sep = is_separable(p)
        port1 = is_p_representable_mode(mode_params(blocks.v1p))
        port2 = is_p_representable_mode(mode_params(blocks.v2p))
        if not (sep == port1 == port2):
            disagree += 1
    ok = checked >= 10000 and disagree == 0
    _report(
        2, ok,
        "central theorem: input separability <=> output port classicality "
        f"({checked} states, {disagree} disagreements)",
    )


def test_criterion_3_blockwise_matches_full_transform():
    rng = np.random.default_rng(103)
    worst_blocks = 0.0
    worst_sign = 0.0
    for _ in range(10000):
        p = draw_params(rng, m_hi=2.0)
        cfg = draw_mixer(rng)
        full = transform_full(build_covariance(p), cfg)
        worst_blocks = max(worst_blocks, block_error(full, transform_blocks(p, cfg)))
        m = build_mixer(cfg)
        mi = mixer_inverse(cfg)
        sign_err = float(np.abs(m @ COMMUTATOR_SIGNATURE @ mi - COMMUTATOR_SIGNATURE).max())
        worst_sign = max(worst_sign, sign_err)
    ok = worst_blocks <= 1e-10 and worst_sign <= 1e-12
    _report(
        3, ok,
        "transform consistency: blockwise vs full conjugation "
        f"(worst {worst_blocks:.2e}), signature preservation (worst {worst_sign:.2e})",
    )


def test_criterion_4_fidelity_closed_form():
    rng = np.random.default_rng(104)
    worst_port = 0.0
    for _ in range(10000):
        n = rng.uniform(0.5, 5.0)
        m = rng.uniform(0, math.sqrt(n * n - 0.25)) * np.exp(2j * np.pi * rng.uniform())
        r = rng.uniform(0.0, 3.0)
        md = ModeParams(n=n, m=m)
        ref = reference_states(r).omss
        direct = trace_overlap(mode_covariance(md), mode_covariance(ref))
        worst_port = max(worst_port, abs(output_port_fidelity(md, r) - direct))

    worst_fock = 0.0
    for _ in range(300):
        l1, l2 = rng.uniform(-0.95, 0.95, 2)
        pa = _twin_beam(math.atanh(l1))
        pb = _twin_beam(math.atanh(l2))
        det_route = trace_overlap(build_covariance(pa), build_covariance(pb))
        worst_fock = max(worst_fock, abs(det_route - oracle.overlap_fock_tmsv(l1, l2)))

    worst_quad = 0.0
    refs = reference_states(0.8)
    cases = [
        (build_covariance(GaussianParams(n1=0.5, n2=0.5)),) * 2,
        (build_covariance(GaussianParams(n1=1.0, n2=0.5)),) * 2,
        (build_covariance(refs.tmsv), build_covariance(refs.sep)),
        (build_covariance(GaussianParams(n1=1.3, n2=0.9, m_c=0.5)),
         build_covariance(GaussianParams(n1=0.8, n2=1.1, m_s=0.3j))),
    ]
    for va, vb in cases:
        worst_quad = max(worst_quad, abs(oracle.overlap_numint(va, vb) - trace_overlap(va, vb)))

    ok = worst_port <= 1e-12 and worst_fock <= 1e-10 and worst_quad <= 1e-6
    _report(
        4, ok,
        "fidelity closed form vs determinant overlap "
        f"(worst {worst_port:.2e}), Fock oracle (worst {worst_fock:.2e}), "
        f"quadrature oracle (worst {worst_quad:.2e})",
    )


def _twin_beam(r: float) -> GaussianParams:
    n = 0.5 * math.cosh(2 * r)
    m = -0.5 * math.sinh(2 * r)
    return GaussianParams(n1=n, n2=n, m_c=m)


def test_criterion_5_bures_composition():
    rng = np.random.default_rng(105)
    worst_identity = 0.0
    for _ in range(1000):
        f1, f2 = rng.uniform(1e-6, 1.0, 2)
        lhs = compose_bures(bures_from_fidelity(f1), bures_from_fidelity(f2))
        rhs = bures_from_fidelity(f1 * f2)
        worst_identity = max(worst_identity, abs(lhs - rhs))

    # single-port case: pure twin-beam input, one port measured against a
    # different pure squeezed reference, the untouched port pure by
    # construction; input and measured-port distances must coincide
    cfg = MixerConfig(theta=math.pi / 4, phi0=0.3, phi1=-0.2)
    v_in = build_covariance(reference_states(0.7).tmsv)
    v_out = transform_full(v_in, cfg)
    ref1 = mode_covariance(
        ModeParams(n=0.5 * math.cosh(0.8), m=-0.5 * math.sinh(0.8) * np.exp(0.9j))
    )
    sigma_out = np.zeros((4, 4), dtype=complex)
    sigma_out[:2, :2] = ref1
    sigma_out[2:, 2:] = v_out[2:, 2:]
    sigma_in = transform_full(sigma_out, cfg.inverse)
    d_in = bures_from_fidelity(trace_overlap(v_in, sigma_in))
    d_port = bures_from_fidelity(trace_overlap(v_out[:2, :2], ref1))
    single_port_err = abs(d_in - compose_bures(d_port, 0.0))

    ok = worst_identity <= 1e-12 and single_port_err <= 1e-12
    _report(
        5, ok,
        "Bures composition identity (worst "
        f"{worst_identity:.2e}) and single-port case (err {single_port_err:.2e})",
    )


def test_criterion_6_surface_sweep(tmp_path):
    start = time.monotonic()
    cfg = sweep.SweepConfig()
    result = sweep.sweep_grid(cfg)
    path = tmp_path / "sweep.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        sweep.write_sweep_csv(result, fh)
    elapsed = time.monotonic() - start

    rows = [line.split(",") for line in path.read_text(encoding="utf-8").strip().split("\n")[1:]]
    dn = (cfg.n_max - cfg.n_min) / (cfg.n_steps - 1)

    by_m = {}
    for n_s, m_s, label, e_s in rows:
        by_m.setdefault(m_s, []).append((float(n_s), label, e_s))
    boundary_ok = True
    for m_s, entries in by_m.items():
        m = float(m_s)
        seps = [n for n, label, _ in entries if label == "separable"]
        if not seps:
            continue
        offset = min(seps) - (m + 0.5)
        if not (-1e-9 <= offset <= dn + 1e-9):
            boundary_ok = False

    mono_ok = True
    for row in result.degree:
        degrees = row[~np.isnan(row)].tolist()
        if any(b <= a for a, b in zip(degrees, degrees[1:])):
            mono_ok = False

    # anchor points on a grid that contains them exactly
    anchored = sweep.SweepConfig(
        r=1.0,
        n_min=math.cosh(2.0) / 2, n_max=3.5, n_steps=3,
        m_min=0.0, m_max=math.sinh(2.0) / 2, m_steps=2,
    )
    apath = tmp_path / "anchored.csv"
    with open(apath, "w", encoding="utf-8", newline="") as fh:
        sweep.write_sweep_csv(sweep.sweep_grid(anchored), fh)
    arows = [line.split(",") for line in apath.read_text(encoding="utf-8").strip().split("\n")[1:]]
    e_sep_anchor = float(arows[0][3])
    e_ent_anchor = float(arows[1][3])
    anchors_ok = (
        arows[0][2] == "separable"
        and arows[1][2] == "entangled"
        and abs(e_sep_anchor - 0.0) <= 1e-9
        and abs(e_ent_anchor - 1.0) <= 1e-9
    )

    ok = elapsed < 60.0 and boundary_ok and mono_ok and anchors_ok
    _report(
        6, ok,
        f"surface sweep: {result.degree.size} points in {elapsed:.1f}s, separability "
        f"boundary within one cell ({boundary_ok}), E monotone in m ({mono_ok}), "
        f"anchors E=0/E=1 ({e_sep_anchor:.1e}, {abs(e_ent_anchor - 1):.1e} off)",
    )


def test_criterion_7_derived_anchors():
    refs = reference_states(1.0)
    f_sep = trace_overlap(build_covariance(refs.sep), build_covariance(refs.tmsv))
    f_closed = 1.0 / (math.cosh(2.0) ** 2 - math.sinh(2.0) ** 2 / 4.0)
    d_sep = bures_from_fidelity(f_sep)
    report = entanglement_degree(GaussianParams(n1=1.88107, n2=1.88107, m_c=1.6), 1.0)
    ok = (
        abs(f_sep - f_closed) <= 1e-12
        and abs(separable_distance(1.0) - d_sep) <= 1e-12
        and abs(d_sep - 1.39326) <= 1e-4
        and abs(report.degree - 0.4719) <= 1e-3
    )
    _report(
        7, ok,
        f"derived anchors: d_B(sep, reference)={d_sep:.6f} (want 1.39326+-1e-4, "
        f"closed form off by {abs(separable_distance(1.0) - d_sep):.1e}), "
        f"degree at (1.88107, 1.6)={report.degree:.5f} (want 0.4719+-1e-3)",
    )


def test_criterion_8_thermal_model_gate():
    raw_ok = False
    try:
        tmtss_params(TmtssInputs(d=0.1, r=0.5, nbar=0.0))
    except ModelValidityError as err:
        raw_ok = abs(err.n - (-0.0604)) <= 1e-3

    degenerate_ok = False
    try:
        tmtss_params(TmtssInputs(d=0.3, r=0.0))
    except DegenerateStateError:
        degenerate_ok = True

    ok = raw_ok and degenerate_ok
    _report(
        8, ok,
        f"thermal model gate: nonphysical region reports raw n (ok={raw_ok}), "
        f"zero squeezing degenerates (ok={degenerate_ok})",
    )
