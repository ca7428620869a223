"""Tests for the interference apparatus model."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from triphot import experiment, observables, optics, qutrit
from triphot.errors import DegenerateTableError, ZeroStateError
from triphot.experiment import (
    CountRecord,
    CountTable,
    ExperimentConfig,
    SourceSpec,
    calibrate_loss_for_visibility,
    fundamental_period,
    hwp_law,
    predict_rate,
    qwp_law,
    simulate_counts,
    source_state,
    sweep,
    visibility,
)
from triphot.optics import PlateSpec

PI = np.pi
# The `observables.coincidence_probability` mode of each analysis setting.
MODES = {"none": "direct_xy", "x": "analysis_x", "y": "analysis_y"}


def ideal_config(plate, analysis="none", **kwargs):
    source = SourceSpec(phase=kwargs.pop("phase", 0.0), **kwargs)
    return ExperimentConfig(source=source, plate=plate, analysis=analysis)


def pipeline_weights(delta, chis, phis):
    """Fock weights |c_i|^2 behind a plate on the ideal source, read off
    predict_rate: |c2|^2 directly, |c1|^2/2 and |c3|^2/2 behind the x and y
    analysis blocks.  Shape (len(chis), len(phis), 3)."""
    out = np.empty((len(chis), len(phis), 3))
    for i, chi in enumerate(chis):
        for k, (analysis, scale) in enumerate((("x", 2.0), ("none", 1.0), ("y", 2.0))):
            out[i, :, k] = scale * predict_rate(ideal_config(PlateSpec(delta, chi), analysis), phi=phis)
    return out


class TestSourceState:
    def test_phase_zero_is_psi_plus(self):
        s = source_state(SourceSpec(phase=0.0))
        assert np.allclose(s, qutrit.trit_basis("plus"), atol=1e-15)

    def test_phase_pi_is_psi_minus(self):
        s = source_state(SourceSpec(phase=PI))
        assert qutrit.states_equal(s, qutrit.trit_basis("minus"), tol=1e-12)

    def test_blocked_arm(self):
        s = source_state(SourceSpec(phase=0.0, t02=0.0))
        assert np.allclose(s, qutrit.fock_basis(0), atol=1e-15)

    def test_both_arms_blocked(self):
        with pytest.raises(ValueError):
            SourceSpec(phase=0.0, t20=0.0, t02=0.0)

    @pytest.mark.parametrize("t20,t02", [(5e-324, 5e-324), (1e-310, 0.0), (0.0, 2e-308)])
    def test_subnormal_arms_rejected(self, t20, t02):
        # predict_rate divides by hypot(t20, t02): it used to write NaN rates
        with pytest.raises(ValueError, match="t20 and t02 cannot both be zero or subnormal"):
            SourceSpec(t20=t20, t02=t02)

    def test_smallest_normal_arms_give_finite_rates(self):
        tiny = np.finfo(float).tiny
        for t20, t02 in ((tiny, 0.0), (tiny, tiny), (0.0, tiny)):
            for analysis in ("none", "x", "y"):
                src = SourceSpec(t20=t20, t02=t02, pair_rate=1e308)
                cfg = ExperimentConfig(src, PlateSpec(1.0, 0.3), analysis)
                assert np.all(np.isfinite(predict_rate(cfg, phi=np.linspace(0.0, 2 * PI, 9))))


class TestLargestRate:
    def test_overflowing_rate_bound_rejected(self):
        source = SourceSpec(pair_rate=1e308)
        with pytest.raises(ValueError, match="pair_rate . eta1 . eta2 . accidental_rate"):
            ExperimentConfig(source, PlateSpec.half(0.0), accidental_rate=1e308)

    def test_largest_finite_rates_kept(self):
        cfg = ExperimentConfig(SourceSpec(pair_rate=1e308), PlateSpec.half(0.0),
                               eta1=0.5, accidental_rate=1e308)
        assert math.isfinite(predict_rate(cfg, phi=PI, chi=PI / 8))


class TestClosedFormLaws:
    def test_hwp_full_conversion_point(self):
        c1sq, c2sq, c3sq = hwp_law(PI / 8, PI)
        assert abs(c2sq - 1.0) < 1e-15
        assert abs(c1sq) < 1e-15 and abs(c3sq) < 1e-15

    def test_hwp_axis_aligned_never_converts(self):
        for phi in (0.0, 1.0, PI):
            assert hwp_law(0.0, phi)[1] < 1e-30

    def test_hwp_intermediate_point(self):
        c1sq, c2sq, c3sq = hwp_law(PI / 8, PI / 2)
        assert abs(c2sq - 0.5) < 1e-15
        assert abs(c1sq - 0.25) < 1e-15 and abs(c3sq - 0.25) < 1e-15

    def test_qwp_full_conversion_point(self):
        assert abs(qwp_law(PI / 4, 0.0) - 1.0) < 1e-15

    def test_qwp_axis_aligned_never_converts(self):
        for phi in (0.0, 1.0, PI):
            assert qwp_law(0.0, phi) < 1e-30

    def test_qwp_convention_pin_point(self):
        # freezes the retarder sign convention; value is 3/8 + sqrt(2)/4
        assert abs(qwp_law(PI / 8, PI / 2) - 0.7285533905932737) < 1e-12

    def test_pipeline_matches_hwp_law_on_grid(self):
        chis = np.linspace(0.0, PI, 41)
        phis = np.linspace(0.0, 2 * PI, 41)
        probs = pipeline_weights(PI, chis, phis)
        for i, chi in enumerate(chis):
            for k, phi in enumerate(phis):
                assert np.max(np.abs(probs[i, k] - np.array(hwp_law(chi, phi)))) < 1e-12

    def test_pipeline_matches_qwp_law_on_grid(self):
        chis = np.linspace(0.0, PI, 41)
        phis = np.linspace(0.0, 2 * PI, 41)
        probs = pipeline_weights(PI / 2, chis, phis)
        law = qwp_law(chis[:, None], phis[None, :])
        assert np.max(np.abs(probs[:, :, 1] - law)) < 1e-12

    def test_pipeline_pin_point(self):
        rate = predict_rate(ideal_config(PlateSpec.quarter(PI / 8)), phi=PI / 2)
        assert abs(rate - 0.7285533905932737) < 1e-12

    def test_grid_matches_scalar_pipeline(self):
        # An array phi gives the scalar calls' rates, and both equal
        # lift-and-apply on the source state: the rate is linear in
        # cos(theta), so with p(d) the pipeline probability at jitter draw d
        # its jitter average is (p(0) + p(pi))/2 + damp * (p(0) - p(pi))/2.
        rng = np.random.default_rng(30)
        phis = np.linspace(0.0, 2 * PI, 33)
        for analysis in ("none", "x", "y"):
            for jitter in (0.0, 0.8):
                cfg = ExperimentConfig(
                    source=SourceSpec(
                        t20=rng.uniform(0.2, 1.0),
                        t02=rng.uniform(0.2, 1.0),
                        phase_jitter=jitter,
                        pair_rate=300.0,
                    ),
                    plate=PlateSpec(rng.choice([PI, PI / 2, rng.uniform(0, 2 * PI)]), rng.uniform(0, PI)),
                    analysis=analysis,
                    eta1=rng.uniform(0.1, 1.0),
                    eta2=rng.uniform(0.1, 1.0),
                    accidental_rate=rng.uniform(0.0, 0.5),
                )
                rates = predict_rate(cfg, phi=phis)
                assert rates.shape == phis.shape
                scalar = np.array([predict_rate(cfg, phi=phi) for phi in phis])
                bound = 1e-15 * (cfg.source.pair_rate + cfg.accidental_rate)
                assert np.max(np.abs(rates - scalar)) <= bound
                g = optics.lift(optics.retarder(cfg.plate.retardance, cfg.plate.angle))
                damp = np.exp(-0.5 * jitter**2)
                for phi, rate in zip(phis, rates):
                    p0, p_pi = (
                        observables.coincidence_probability(
                            optics.apply(g, source_state(replace(cfg.source, phase=phi + draw))),
                            MODES[analysis], cfg.eta1, cfg.eta2,
                        )
                        for draw in (0.0, PI)
                    )
                    expected = (
                        cfg.source.pair_rate * ((p0 + p_pi) / 2 + damp * (p0 - p_pi) / 2)
                        + cfg.accidental_rate
                    )
                    assert abs(rate - expected) < 1e-12 * max(1.0, expected)

    def test_half_wave_leaves_plus_alone(self):
        # at phi = 0 a half-wave plate at any angle keeps the |1,1> weight at
        # zero and the state on psi_plus
        rng = np.random.default_rng(31)
        for chi in rng.uniform(0, PI, 50):
            out = optics.apply(optics.lift(optics.half_wave(chi)), source_state(SourceSpec(phase=0.0)))
            assert abs(out[1]) ** 2 < 1e-24
            assert abs(qutrit.fidelity(qutrit.trit_basis("plus"), out) - 1.0) < 1e-12


class TestPredictRate:
    def test_fig2_maximum(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        assert abs(predict_rate(cfg, phi=PI) - 1.0) < 1e-12

    def test_fig2_minimum(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        assert abs(predict_rate(cfg, phi=0.0)) < 1e-12

    def test_fig4_maximum(self):
        cfg = ideal_config(PlateSpec.quarter(PI / 4))
        assert abs(predict_rate(cfg, phi=0.0) - 1.0) < 1e-12

    def test_matches_deterministic_pipeline(self):
        rng = np.random.default_rng(32)
        for analysis in ("none", "x", "y"):
            for _ in range(25):
                cfg = ExperimentConfig(
                    source=SourceSpec(
                        phase=rng.uniform(0, 2 * PI),
                        t20=rng.uniform(0.2, 1.0),
                        t02=rng.uniform(0.2, 1.0),
                        pair_rate=rng.uniform(1.0, 500.0),
                    ),
                    plate=PlateSpec(rng.uniform(0, 2 * PI), rng.uniform(0, PI)),
                    analysis=analysis,
                    eta1=rng.uniform(0.1, 1.0),
                    eta2=rng.uniform(0.1, 1.0),
                    accidental_rate=rng.uniform(0.0, 0.5),
                )
                g = optics.lift(optics.retarder(cfg.plate.retardance, cfg.plate.angle))
                state = optics.apply(g, source_state(cfg.source))
                expected = (
                    cfg.source.pair_rate
                    * observables.coincidence_probability(state, MODES[analysis], cfg.eta1, cfg.eta2)
                    + cfg.accidental_rate
                )
                assert abs(predict_rate(cfg) - expected) < 1e-12 * max(1.0, expected)

    def test_jitter_damping_matches_quadrature(self):
        # Gauss-Hermite integration over the jitter as an independent oracle
        nodes, weights = np.polynomial.hermite.hermgauss(96)
        rng = np.random.default_rng(33)
        for sigma in (0.1, 0.7, 2.0):
            cfg = ExperimentConfig(
                source=SourceSpec(
                    phase=rng.uniform(0, 2 * PI), t02=0.8, phase_jitter=sigma, pair_rate=10.0
                ),
                plate=PlateSpec.half(rng.uniform(0, PI)),
                eta1=0.6,
                eta2=0.9,
                accidental_rate=0.2,
            )
            state_prob = []
            g = optics.lift(optics.retarder(cfg.plate.retardance, cfg.plate.angle))
            for x in nodes:
                jittered = replace(cfg.source, phase=cfg.source.phase + np.sqrt(2) * sigma * x)
                s = optics.apply(g, source_state(jittered))
                state_prob.append(
                    observables.coincidence_probability(s, "direct_xy", cfg.eta1, cfg.eta2)
                )
            oracle = cfg.source.pair_rate * float(
                np.dot(weights, state_prob) / np.sqrt(PI)
            ) + cfg.accidental_rate
            assert abs(predict_rate(cfg) - oracle) < 1e-9

    @pytest.mark.parametrize("analysis", ["none", "x", "y"])
    def test_phi_and_chi_override_together(self, analysis):
        cfg = ExperimentConfig(
            SourceSpec(t02=0.7, phase_jitter=0.4, pair_rate=300.0), PlateSpec.quarter(0.0),
            analysis, eta1=0.9, accidental_rate=0.1,
        )
        phis = np.linspace(0.0, 2 * PI, 7)
        for chi in (0.0, 0.3, 2.9, -1.0):
            both = predict_rate(cfg, phi=phis, chi=chi)
            moved = ExperimentConfig(cfg.source, PlateSpec.quarter(chi), analysis, 0.9, 1.0, 0.1)
            assert np.array_equal(both, predict_rate(moved, phi=phis))
            # a scalar phi takes numpy's scalar exp, which may differ by an ulp
            assert abs(both[2] - predict_rate(cfg, phi=phis[2], chi=chi)) < 1e-12 * both[2]


class TestSweep:
    def test_grid_is_inclusive_and_increasing(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, 2 * PI, 21)
        assert table.values[0] == 0.0 and abs(table.values[-1] - 2 * PI) < 1e-15
        assert np.all(np.diff(table.values) > 0)

    def test_phi_fringe_shape(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, 2 * PI, 201)
        expected = np.sin(table.values / 2) ** 2
        assert np.max(np.abs(table.rates - expected)) < 1e-12
        assert abs(table.values[np.argmax(table.rates)] - PI) < 2 * PI / 200 + 1e-12

    def test_chi_fringe_shape_half_wave(self):
        cfg = ideal_config(PlateSpec.half(0.0), phase=PI)
        table = sweep(cfg, "chi", 0.0, PI, 161)
        expected = np.sin(4 * table.values) ** 2
        assert np.max(np.abs(table.rates - expected)) < 1e-12

    def test_analysis_x_minima_at_conversion_angles(self):
        cfg = ExperimentConfig(
            source=SourceSpec(phase=PI), plate=PlateSpec.half(0.0), analysis="x"
        )
        table = sweep(cfg, "chi", 0.0, PI, 161)
        # G_xx is suppressed exactly where G_xy peaks
        idx = np.argmin(np.abs(table.values - PI / 8))
        assert table.rates[idx] < 1e-12
        # at chi = 0 the state keeps |c1|^2 = 1/2 and the chain passes 1/4
        assert abs(table.rates[0] - 0.25) < 1e-12

    def test_bad_arguments(self):
        cfg = ideal_config(PlateSpec.half(0.0))
        with pytest.raises(ValueError):
            sweep(cfg, "phi", 0.0, 1.0, 1)
        with pytest.raises(ValueError):
            sweep(cfg, "delta", 0.0, 1.0, 5)
        with pytest.raises(ValueError):
            sweep(cfg, "phi", 1.0, 0.0, 5)

    def test_steps_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(experiment, "MAX_STEPS", 10)
        cfg = ideal_config(PlateSpec.half(0.0))
        assert sweep(cfg, "phi", 0.0, 1.0, 10).values.size == 10
        with pytest.raises(ValueError, match="steps"):
            sweep(cfg, "phi", 0.0, 1.0, 11)

    def test_too_many_steps_rejected_before_allocation(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the step count was checked")

        monkeypatch.setattr(np, "linspace", no_grid)
        cfg = ideal_config(PlateSpec.half(0.0))
        with pytest.raises(ValueError, match=str(experiment.MAX_STEPS)):
            sweep(cfg, "phi", 0.0, 1.0, 10**9)


class TestPeriodDoubling:
    def test_quarter_wave_period_doubles_half_wave(self):
        steps = 160
        dx = PI / steps
        chis = np.arange(steps) * dx
        hwp_rates = np.array(
            [predict_rate(ideal_config(PlateSpec.half(0.0), phase=PI), chi=c) for c in chis]
        )
        qwp_rates = np.array(
            [predict_rate(ideal_config(PlateSpec.quarter(0.0), phase=0.0), chi=c) for c in chis]
        )
        t_hwp = fundamental_period(hwp_rates, dx)
        t_qwp = fundamental_period(qwp_rates, dx)
        assert abs(t_hwp - PI / 4) <= dx
        assert abs(t_qwp - PI / 2) <= dx
        assert abs(t_qwp / t_hwp - 2.0) < 1e-12

    def test_constant_signal_rejected(self):
        with pytest.raises(DegenerateTableError):
            fundamental_period(np.ones(64), 0.1)


class TestSimulateCounts:
    def test_deterministic_for_fixed_seed(self):
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=50.0)
        a = simulate_counts(cfg, seed=42, duration=20.0, bin_width=1.0)
        b = simulate_counts(cfg, seed=42, duration=20.0, bin_width=1.0)
        assert a == b

    def test_seed_changes_output(self):
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=50.0)
        a = simulate_counts(cfg, seed=1, duration=20.0, bin_width=1.0)
        b = simulate_counts(cfg, seed=2, duration=20.0, bin_width=1.0)
        assert a != b

    def test_accidentals_only(self):
        cfg = ExperimentConfig(
            source=SourceSpec(phase=0.0, pair_rate=100.0),
            plate=PlateSpec.half(0.0),
            accidental_rate=0.5,
            eta1=0.0,  # no real coincidences reach the detectors
            eta2=0.0,
        )
        records = simulate_counts(cfg, seed=3, duration=2000.0, bin_width=1.0)
        mean = np.mean([r.coincidences for r in records])
        # Poisson(0.5) over 2000 bins: 5 sigma band
        assert abs(mean - 0.5) < 5 * np.sqrt(0.5 / 2000)

    def test_mean_rate_matches_prediction(self):
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=100.0)
        records = simulate_counts(cfg, seed=4, duration=1000.0, bin_width=1.0)
        mean = np.mean([r.coincidences for r in records])
        expected = predict_rate(cfg)
        assert abs(mean - expected) < 4 * np.sqrt(expected / 1000.0)

    def test_record_times(self):
        cfg = ideal_config(PlateSpec.half(0.0), pair_rate=1.0)
        records = simulate_counts(cfg, seed=5, duration=3.0, bin_width=0.5)
        assert len(records) == 6
        assert [r.t_start for r in records] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]

    @pytest.mark.parametrize("seed", [-1, True, 1.5, None, "3"])
    def test_bad_seed_rejected(self, seed):
        cfg = ideal_config(PlateSpec.half(0.0))
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            simulate_counts(cfg, seed=seed, duration=3.0)

    def test_numpy_integer_seed_matches_int(self):
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=5.0)
        assert simulate_counts(cfg, np.int64(9), 20.0) == simulate_counts(cfg, 9, 20.0)

    def test_mean_past_poisson_limit_rejected(self, monkeypatch):
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=1e300)
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing is drawn
        with pytest.raises(ValueError, match=r"source\.pair_rate.*Poisson limit 9\.22337e\+18"):
            simulate_counts(cfg, seed=0, duration=3.0)

    def test_mean_at_poisson_limit_drawn(self):
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=experiment.POISSON_MEAN_MAX)
        assert len(simulate_counts(cfg, seed=0, duration=1.0)) == 1

    def test_bad_durations(self):
        cfg = ideal_config(PlateSpec.half(0.0))
        with pytest.raises(ValueError):
            simulate_counts(cfg, seed=0, duration=0.0)
        with pytest.raises(ValueError):
            simulate_counts(cfg, seed=0, duration=1.0, bin_width=-1.0)

    def test_dark_fringe_gives_no_counts(self):
        # a half-wave plate never converts psi_plus, so the rate is zero; in
        # floating point it must not come out a hair below zero, which the
        # Poisson draw would reject
        for chi in np.linspace(0.0, PI, 161):
            cfg = ideal_config(PlateSpec.half(chi), phase=0.0, pair_rate=100.0)
            assert all(r.coincidences == 0 for r in simulate_counts(cfg, seed=6, duration=5.0))

    @pytest.mark.parametrize(
        "duration,bin_width",
        [
            (np.inf, 1.0),
            (np.nan, 1.0),
            (1.0, np.nan),
            (1.0, 1e-320),
            (experiment.MAX_BINS + 1.0, 1.0),
        ],
    )
    def test_non_finite_or_too_many_bins_rejected_before_drawing(
        self, duration, bin_width, monkeypatch
    ):
        def no_draw(*args, **kwargs):
            raise AssertionError("bins drawn before the arguments were checked")

        monkeypatch.setattr(experiment, "predict_rate", no_draw)
        cfg = ideal_config(PlateSpec.half(0.0))
        with pytest.raises(ValueError):
            simulate_counts(cfg, seed=0, duration=duration, bin_width=bin_width)

    @pytest.mark.parametrize("duration,bin_width", [(10.0, 1.0), (0.7, 0.07)])
    def test_bin_limit_is_inclusive(self, duration, bin_width, monkeypatch):
        # exactly MAX_BINS bins pass, also when duration / bin_width rounds
        # below the integer (0.7 / 0.07 = 9.999999999999998); one more bin is
        # rejected
        monkeypatch.setattr(experiment, "MAX_BINS", 10)
        cfg = ideal_config(PlateSpec.half(0.0))
        assert len(simulate_counts(cfg, seed=1, duration=duration, bin_width=bin_width)) == 10
        with pytest.raises(ValueError, match="exceeds 10 bins"):
            simulate_counts(cfg, seed=1, duration=11 * bin_width, bin_width=bin_width)

    def test_matches_per_pair_sampler(self):
        # Reference: the per-pair sampler that Poisson thinning replaced.  Per
        # bin it draws the pair number, each pair's phase jitter and a
        # coincidence Bernoulli, plus Poisson accidentals, from its own child
        # stream; the fringe amplitudes come from three separate lifts.
        from scipy.stats import ks_2samp

        cfg = ExperimentConfig(
            source=SourceSpec(phase=1.0, t20=0.9, t02=0.6, phase_jitter=0.8, pair_rate=50.0),
            plate=PlateSpec.quarter(0.3),
            analysis="x",
            eta1=0.8,
            eta2=0.9,
            accidental_rate=0.2,
        )
        n_bins, seed = 20_000, 2026
        k = (
            optics.lift(optics.half_wave(PI / 8))
            @ optics.lift(optics.polarizer("x"))
            @ optics.lift(optics.retarder(cfg.plate.retardance, cfg.plate.angle))
        )
        src = cfg.source
        norm = np.hypot(src.t20, src.t02)
        alpha, beta = k[1, 0] * src.t20 / norm, k[1, 2] * src.t02 / norm
        reference = np.empty(n_bins, dtype=int)
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_bins)):
            rng = np.random.default_rng(child)
            n_pairs = int(rng.poisson(src.pair_rate))
            theta = src.phase + rng.normal(0.0, src.phase_jitter, n_pairs)
            p = np.abs(alpha + beta * np.exp(1j * theta)) ** 2 * cfg.eta1 * cfg.eta2
            reference[i] = np.count_nonzero(rng.random(n_pairs) < p)
            reference[i] += rng.poisson(cfg.accidental_rate)

        counts = np.array(
            [r.coincidences for r in simulate_counts(cfg, seed, float(n_bins))], dtype=float
        )
        expected = predict_rate(cfg)
        assert abs(counts.mean() - expected) < 4 * np.sqrt(expected / n_bins)
        assert ks_2samp(counts, reference).pvalue > 0.01

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountRecord(t_start=0.0, coincidences=-1)

    def test_memory_is_two_columns(self):
        # 200 000 bins as two 8-byte columns are 3.2 MB; one CountRecord per
        # bin peaked near 27 MB
        cfg = ideal_config(PlateSpec.half(PI / 8), phase=PI, pair_rate=300.0)
        simulate_counts(cfg, seed=1, duration=10.0)  # one-time set-up outside the trace
        tracemalloc.start()
        try:
            table = simulate_counts(cfg, seed=1, duration=200_000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == 200_000
        assert peak < 6 * 2**20


class TestCountTable:
    def test_len_equality_and_iteration(self):
        table = CountTable([0.0, 0.5, 1.0], [3, 0, 17])
        assert len(table) == 3
        assert table == CountTable(np.array([0.0, 0.5, 1.0]), np.array([3, 0, 17]))
        assert table != CountTable([0.0, 0.5, 1.0], [3, 0, 16])
        assert table != CountTable([0.0, 0.5, 1.5], [3, 0, 17])
        assert table != CountTable([0.0, 0.5], [3, 0])
        records = list(table)
        assert records == [CountRecord(0.0, 3), CountRecord(0.5, 0), CountRecord(1.0, 17)]
        assert all(type(r.t_start) is float and type(r.coincidences) is int for r in records)

    def test_empty_table(self):
        table = CountTable([], [])
        assert len(table) == 0
        assert list(table) == []

    @pytest.mark.parametrize(
        "t_start,counts",
        [
            ([0.0, 1.0], [1, -1]),  # negative count
            ([[0.0, 1.0]], [[1, 2]]),  # 2-d
            ([0.0, 1.0], [1, 2, 3]),  # mismatched lengths
            ([0.0, 1.0], [1.0, 2.5]),  # non-integer counts
        ],
    )
    def test_bad_columns_rejected(self, t_start, counts):
        with pytest.raises(ValueError):
            CountTable(t_start, counts)


class TestVisibility:
    def test_ideal_fringe(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, 2 * PI, 201)
        assert abs(visibility(table) - 1.0) < 1e-9

    def test_loss_imbalance_gives_ninety_percent(self):
        r = calibrate_loss_for_visibility(0.9)
        cfg = ExperimentConfig(
            source=SourceSpec(phase=0.0, t20=1.0, t02=r), plate=PlateSpec.half(PI / 8)
        )
        table = sweep(cfg, "phi", 0.0, 2 * PI, 241)
        assert abs(visibility(table) - 0.9) < 1e-3

    def test_constant_positive_table(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, 2 * PI, 51)
        flat = experiment.SweepTable("phi", table.values, np.full_like(table.rates, 2.0), cfg)
        assert abs(visibility(flat)) < 1e-12

    def test_zero_table_degenerate(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, 2 * PI, 51)
        zero = experiment.SweepTable("phi", table.values, np.zeros_like(table.rates), cfg)
        with pytest.raises(DegenerateTableError):
            visibility(zero)

    def test_needs_full_period(self):
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, PI, 51)
        with pytest.raises(ValueError):
            visibility(table)

    def test_chi_sweep_needs_period(self):
        cfg = ideal_config(PlateSpec.half(0.0), phase=PI)
        table = sweep(cfg, "chi", 0.0, PI, 161)
        with pytest.raises(ValueError):
            visibility(table)
        assert abs(visibility(table, period=PI / 4) - 1.0) < 1e-9

    def test_robust_to_noise(self):
        rng = np.random.default_rng(40)
        cfg = ideal_config(PlateSpec.half(PI / 8))
        table = sweep(cfg, "phi", 0.0, 2 * PI, 401)
        noisy = experiment.SweepTable(
            "phi", table.values, table.rates + rng.normal(0, 0.01, table.rates.size), cfg
        )
        assert abs(visibility(noisy) - 1.0) < 0.02


class TestCalibrateLoss:
    def test_perfect_visibility(self):
        assert calibrate_loss_for_visibility(1.0) == 1.0

    def test_ninety_percent(self):
        r = calibrate_loss_for_visibility(0.9)
        assert abs(r - 0.6268) < 5e-5
        assert abs(2 * r / (1 + r * r) - 0.9) < 1e-12

    def test_small_visibility_small_ratio(self):
        assert calibrate_loss_for_visibility(1e-6) < 1e-5

    def test_out_of_range(self):
        for v in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                calibrate_loss_for_visibility(v)
