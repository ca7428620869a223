"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import time

import numpy as np
from scipy.stats import unitary_group

from triphot import (
    SourceSpec,
    SynthesisProblem,
    apply,
    calibrate_loss_for_visibility,
    coherence_length,
    coincidence_probability,
    degree_of_polarization,
    fidelity,
    fock_basis,
    half_wave,
    lift,
    predict_rate,
    quarter_wave,
    reachability_report,
    simulate_counts,
    source_state,
    su3_exp,
    sweep,
    synthesize,
    trit_basis,
    visibility,
)
from triphot.experiment import ExperimentConfig, fundamental_period, hwp_law, qwp_law
from triphot.optics import PlateSpec
from triphot.synthesis import FREE

PI = np.pi
QWP_PIN_VALUE = 0.7285533905932737  # 3/8 + sqrt(2)/4


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {status}  {description}{suffix}")
    assert passed, f"criterion {num}: {description}{suffix}"


def random_state(rng):
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z / np.sqrt(float(np.vdot(z, z).real))


def symmetric_restriction(j):
    basis = np.zeros((4, 3), dtype=complex)
    basis[0, 0] = 1.0
    basis[1, 1] = basis[2, 1] = 1.0 / np.sqrt(2.0)
    basis[3, 2] = 1.0
    return basis.conj().T @ np.kron(j, j) @ basis


def pipeline_weights(delta, chis, phis):
    """Fock weights |c_i|^2 behind a plate on the ideal source, read off
    predict_rate: |c2|^2 directly, |c1|^2/2 and |c3|^2/2 behind the x and y
    analysis blocks.  Shape (len(chis), len(phis), 3)."""
    out = np.empty((len(chis), len(phis), 3))
    for i, chi in enumerate(chis):
        for k, (analysis, scale) in enumerate((("x", 2.0), ("none", 1.0), ("y", 2.0))):
            cfg = ExperimentConfig(SourceSpec(), PlateSpec(delta, chi), analysis)
            out[i, :, k] = scale * predict_rate(cfg, phi=phis)
    return out


def test_criterion_01_half_wave_closed_form():
    t0 = time.perf_counter()
    chis = np.linspace(0.0, PI, 101)
    phis = np.linspace(0.0, 2 * PI, 101)
    probs = pipeline_weights(PI, chis, phis)
    c1sq, c2sq, c3sq = hwp_law(chis[:, None], phis[None, :])
    law = np.stack([c1sq, c2sq, c3sq], axis=-1)
    residual = float(np.max(np.abs(probs - law)))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "half-wave pipeline matches closed form on 101x101 grid (< 1e-12, < 1 s)",
        residual < 1e-12 and elapsed < 1.0,
        f"residual {residual:.2e}, {elapsed:.3f} s",
    )


def test_criterion_02_quarter_wave_closed_form_and_pin():
    chis = np.linspace(0.0, PI, 101)
    phis = np.linspace(0.0, 2 * PI, 101)
    probs = pipeline_weights(PI / 2, chis, phis)
    law = qwp_law(chis[:, None], phis[None, :])
    residual = float(np.max(np.abs(probs[:, :, 1] - law)))
    pin_pipeline = predict_rate(ExperimentConfig(SourceSpec(), PlateSpec.quarter(PI / 8)), phi=PI / 2)
    pin_residual = max(
        abs(pin_pipeline - qwp_law(PI / 8, PI / 2)), abs(pin_pipeline - QWP_PIN_VALUE)
    )
    report(
        2,
        "quarter-wave pipeline matches closed form; convention pin at chi=pi/8, phi=pi/2",
        residual < 1e-12 and pin_residual < 1e-12,
        f"grid residual {residual:.2e}, pin residual {pin_residual:.2e}",
    )


def test_criterion_03_trit_transition_anchors():
    zero, plus, minus = trit_basis("zero"), trit_basis("plus"), trit_basis("minus")
    fids = {
        "hwp(pi/8) at phi=pi: minus->zero": fidelity(
            zero, apply(lift(half_wave(PI / 8)), source_state(SourceSpec(phase=PI)))
        ),
        "qwp(pi/4) at phi=0: plus->zero": fidelity(
            zero, apply(lift(quarter_wave(PI / 4)), source_state(SourceSpec(phase=0.0)))
        ),
        # the pi phase shift between the two source beams performs the
        # minus -> plus switch; the axis-aligned half-wave plate leaves the
        # retuned state unchanged (a lifted plate alone cannot swap them)
        "pi phase shift + hwp(0): minus->plus": fidelity(
            plus, apply(lift(half_wave(0.0)), source_state(SourceSpec(phase=PI + PI)))
        ),
        "qwp(pi/4): minus invariant": fidelity(
            minus, apply(lift(quarter_wave(PI / 4)), minus)
        ),
    }
    for chi in np.linspace(0.0, PI, 17):
        fids[f"hwp at phi=0: plus invariant (chi={chi:.2f})"] = fidelity(
            plus, apply(lift(half_wave(chi)), source_state(SourceSpec(phase=0.0)))
        )
    worst = min(fids.values())
    report(
        3,
        "trit transition anchors all at fidelity 1 (< 1e-12, phase-blind)",
        abs(worst - 1.0) < 1e-12,
        f"worst deviation {abs(worst - 1.0):.2e}",
    )


def test_criterion_04_lift_oracle_and_homomorphism():
    rng = np.random.default_rng(20240)
    worst_oracle = 0.0
    worst_hom = 0.0
    unitaries = unitary_group.rvs(2, size=2000, random_state=rng)
    for j in unitaries[:1000]:
        worst_oracle = max(worst_oracle, float(np.max(np.abs(lift(j) - symmetric_restriction(j)))))
    for j1, j2 in zip(unitaries[:1000], unitaries[1000:]):
        worst_hom = max(
            worst_hom, float(np.max(np.abs(lift(j2 @ j1) - lift(j2) @ lift(j1))))
        )
    report(
        4,
        "symmetric lift equals tensor restriction and is a homomorphism (1000 unitaries, < 1e-12)",
        worst_oracle < 1e-12 and worst_hom < 1e-12,
        f"oracle {worst_oracle:.2e}, homomorphism {worst_hom:.2e}",
    )


def test_criterion_05_p_invariance_and_su3_witness():
    rng = np.random.default_rng(20241)
    worst = 0.0
    for _ in range(1000):
        s = random_state(rng)
        g = np.eye(3, dtype=complex)
        for _ in range(int(rng.integers(1, 6))):
            from triphot import retarder

            g = lift(retarder(rng.uniform(0, 2 * PI), rng.uniform(0, PI))) @ g
        worst = max(
            worst,
            abs(degree_of_polarization(apply(g, s)) - degree_of_polarization(s)),
        )
    # witness that general SU(3) elements are not polarization-degree
    # preserving, found by seeded random search
    witness = 0.0
    for _ in range(100):
        g = su3_exp(rng.uniform(-PI, PI, 8))
        s = random_state(rng)
        witness = max(
            witness, abs(degree_of_polarization(apply(g, s)) - degree_of_polarization(s))
        )
        if witness > 0.1:
            break
    report(
        5,
        "plates preserve P (1000 sequences, < 1e-10); some SU(3) element changes P by > 0.1",
        worst < 1e-10 and witness > 0.1,
        f"plate worst {worst:.2e}, witness change {witness:.3f}",
    )


def test_criterion_06_stokes_anchors():
    deviations = [
        abs(degree_of_polarization(fock_basis(0)) - 1.0),
        abs(degree_of_polarization(fock_basis(2)) - 1.0),
        abs(degree_of_polarization(trit_basis("plus"))),
        abs(degree_of_polarization(trit_basis("minus"))),
        abs(degree_of_polarization(trit_basis("zero"))),
    ]
    report(
        6,
        "P = 1 for |2,0> and |0,2>; P = 0 for all trit states (< 1e-12)",
        max(deviations) < 1e-12,
        f"worst deviation {max(deviations):.2e}",
    )


def test_criterion_07_correlator_decomposition_and_analysis_identity():
    from triphot import correlators

    rng = np.random.default_rng(20242)
    worst_sum = 0.0
    worst_analysis = 0.0
    for _ in range(1000):
        s = random_state(rng)
        gxy, gxx, gyy = correlators(s)
        worst_sum = max(worst_sum, abs(gxx / 2 + gxy + gyy / 2 - 1.0))
        eta1, eta2 = rng.uniform(0.0, 1.0, 2)
        p = coincidence_probability(s, "analysis_x", eta1, eta2)
        worst_analysis = max(worst_analysis, abs(p - abs(s[0]) ** 2 / 2 * eta1 * eta2))
    report(
        7,
        "gxx/2 + gxy + gyy/2 = 1 and analysis_x chain equals |c1|^2/2 * eta1 * eta2 (< 1e-12)",
        worst_sum < 1e-12 and worst_analysis < 1e-12,
        f"sum {worst_sum:.2e}, analysis {worst_analysis:.2e}",
    )


def test_criterion_08_period_doubling():
    t0 = time.perf_counter()
    steps = 160
    dx = PI / steps
    chis = np.arange(steps) * dx
    hwp_cfg = ExperimentConfig(source=SourceSpec(phase=PI), plate=PlateSpec.half(0.0))
    qwp_cfg = ExperimentConfig(source=SourceSpec(phase=0.0), plate=PlateSpec.quarter(0.0))
    t_hwp = fundamental_period(
        np.array([predict_rate(hwp_cfg, chi=c) for c in chis]), dx
    )
    t_qwp = fundamental_period(
        np.array([predict_rate(qwp_cfg, chi=c) for c in chis]), dx
    )
    elapsed = time.perf_counter() - t0
    report(
        8,
        "autocorrelation periods: hwp pi/4, qwp pi/2 (within one grid step, < 1 s)",
        abs(t_hwp - PI / 4) <= dx and abs(t_qwp - PI / 2) <= dx and elapsed < 1.0,
        f"hwp {t_hwp:.6f}, qwp {t_qwp:.6f}, {elapsed:.3f} s",
    )


def test_criterion_09_visibility_calibration():
    ratio = calibrate_loss_for_visibility(0.9)
    cfg = ExperimentConfig(
        source=SourceSpec(phase=0.0, t20=1.0, t02=ratio),
        plate=PlateSpec.half(PI / 8),
    )
    table = sweep(cfg, "phi", 0.0, 2 * PI, 241)
    v = visibility(table)
    report(
        9,
        "loss ratio 0.6268 reproduces 90% fringe visibility (within 1e-3)",
        abs(ratio - 0.6268) < 5e-5 and abs(v - 0.9) < 1e-3,
        f"ratio {ratio:.6f}, visibility {v:.6f}",
    )


def test_criterion_10_monte_carlo_consistency():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        source=SourceSpec(phase=PI, pair_rate=300.0),
        plate=PlateSpec.half(PI / 8),
        eta1=0.1,
        eta2=0.1,
        accidental_rate=0.1,
    )
    duration = 10_000.0
    records = simulate_counts(cfg, seed=20243, duration=duration, bin_width=1.0)
    mean = float(np.mean([r.coincidences for r in records]))
    expected = predict_rate(cfg)
    stderr = np.sqrt(expected / duration)
    elapsed = time.perf_counter() - t0
    report(
        10,
        "Monte Carlo mean rate within 4 standard errors of prediction over 1e4 s (< 10 s)",
        abs(mean - expected) < 4 * stderr and elapsed < 10.0,
        f"mean {mean:.4f}, predicted {expected:.4f}, 4se {4 * stderr:.4f}, {elapsed:.2f} s",
    )


def test_criterion_11_synthesis_recovery():
    t0 = time.perf_counter()

    def circ(x, y, period):
        d = (x - y) % period
        return min(d, period - d)

    r1 = synthesize(
        SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (PI,), False), 16, 1e-8, 0
    )
    ok1 = r1.fidelity > 1 - 1e-9 and circ(r1.plates[0].angle, PI / 8, PI / 4) < 1e-4

    r2 = synthesize(
        SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 1, (PI / 2,), False), 16, 1e-8, 0
    )
    ok2 = r2.fidelity > 1 - 1e-9 and circ(r2.plates[0].angle, PI / 4, PI / 2) < 1e-4

    r3 = synthesize(
        SynthesisProblem(trit_basis("minus"), trit_basis("plus"), 1, (PI,), True), 16, 1e-8, 0
    )
    ok3 = r3.fidelity > 1 - 1e-9 and circ(r3.source_phase, 0.0, 2 * PI) < 1e-4

    p4 = SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 1, (PI,), False)
    r4 = synthesize(p4, 16, 1e-8, 0)
    ok4 = r4.fidelity < 1e-9 and reachability_report(p4, r4) == "approximate"

    elapsed = time.perf_counter() - t0
    report(
        11,
        "synthesis recovers the three named transitions; half-wave plus->zero is approximate at 0",
        ok1 and ok2 and ok3 and ok4 and elapsed < 30.0,
        f"fidelities {r1.fidelity:.12f}/{r2.fidelity:.12f}/{r3.fidelity:.12f}, "
        f"approx max {r4.fidelity:.1e}, {elapsed:.2f} s",
    )


def test_criterion_12_coherence_length():
    value = coherence_length(650e-9, 10e-9)
    report(
        12,
        "coherence length of 650 nm light with 10 nm bandwidth is 42.25 um",
        abs(value - 4.225e-5) < 1e-12 * 4.225e-5,
        f"value {value * 1e6:.4f} um",
    )
