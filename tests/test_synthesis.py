"""Tests for plate-setting synthesis."""

import numpy as np
import pytest

from triphot import optics, qutrit, synthesis
from triphot.qutrit import trit_basis
from triphot.synthesis import (
    SynthesisProblem,
    fidelity_objective,
    reachability_report,
    realized_fidelity,
    synthesize,
)

PI = np.pi


def minus_to_zero():
    return SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (PI,), False)


def plus_to_zero_qwp():
    return SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 1, (PI / 2,), False)


def minus_to_plus_free_phase():
    return SynthesisProblem(trit_basis("minus"), trit_basis("plus"), 1, (PI,), True)


def circular_distance(x, y, period):
    d = (x - y) % period
    return min(d, period - d)


class TestFidelityObjective:
    def test_half_wave_converts_minus(self):
        assert abs(fidelity_objective(minus_to_zero(), [PI / 8]) - 1.0) < 1e-12

    def test_half_wave_never_converts_plus(self):
        problem = SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 1, (PI,), False)
        for chi in np.linspace(0, PI, 50):
            assert fidelity_objective(problem, [chi]) < 1e-12

    def test_aligned_half_wave_with_retuned_phase(self):
        # the minus -> plus switch: the pi source-phase shift does the work,
        # the axis-aligned half-wave plate leaves the result alone
        assert abs(fidelity_objective(minus_to_plus_free_phase(), [0.0, 0.0]) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_objective(minus_to_zero(), [0.1, 0.2])

    def test_joined_beam_half_wave_cannot_swap_plus_minus(self):
        # the lift squares per-photon phases, so no single half-wave plate in
        # the joined beam moves psi_minus toward psi_plus at any angle
        plus, minus = trit_basis("plus"), trit_basis("minus")
        worst = max(
            qutrit.fidelity(plus, optics.apply(optics.lift(optics.half_wave(chi)), minus))
            for chi in np.linspace(0, PI, 2001)
        )
        assert worst < 1e-12


class TestSynthesize:
    def test_minus_to_zero_half_wave(self):
        result = synthesize(minus_to_zero(), 16, 1e-8, 0)
        assert result.fidelity > 1 - 1e-9
        assert circular_distance(result.plates[0].angle, PI / 8, PI / 4) < 1e-4
        assert result.source_phase is None

    def test_plus_to_zero_quarter_wave(self):
        result = synthesize(plus_to_zero_qwp(), 16, 1e-8, 0)
        assert result.fidelity > 1 - 1e-9
        assert circular_distance(result.plates[0].angle, PI / 4, PI / 2) < 1e-4

    def test_minus_to_plus_with_phase(self):
        result = synthesize(minus_to_plus_free_phase(), 16, 1e-8, 0)
        assert result.fidelity > 1 - 1e-9
        assert circular_distance(result.source_phase, 0.0, 2 * PI) < 1e-4
        assert result.plates[0].angle == 0.0  # tie broken to the smallest angle

    def test_plus_to_zero_half_wave_unreachable(self):
        problem = SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 1, (PI,), False)
        result = synthesize(problem, 16, 1e-8, 0)
        assert result.fidelity < 1e-9
        assert reachability_report(problem, result) == "approximate"

    def test_xx_to_zero_best_is_half(self):
        problem = SynthesisProblem(qutrit.fock_basis(0), trit_basis("zero"), 1, (PI,), False)
        result = synthesize(problem, 16, 1e-8, 0)
        # brute-force oracle over a dense angle grid
        oracle = max(
            fidelity_objective(problem, [chi]) for chi in np.linspace(0, PI, 10_000)
        )
        assert abs(oracle - 0.5) < 1e-7
        assert abs(result.fidelity - 0.5) < 1e-9
        assert reachability_report(problem, result) == "approximate"

    def test_identity_problem_with_free_retardance(self):
        problem = SynthesisProblem(
            trit_basis("zero"), trit_basis("zero"), 1, (synthesis.FREE,), False
        )
        result = synthesize(problem, 16, 1e-8, 0)
        assert result.fidelity > 1 - 1e-9
        assert reachability_report(problem, result) == "reachable"

    def test_deterministic(self):
        a = synthesize(minus_to_zero(), 16, 1e-8, 7)
        b = synthesize(minus_to_zero(), 16, 1e-8, 7)
        assert a == b

    def test_symmetry_class_of_optima(self):
        # every returned optimum for the half-wave minus -> zero problem is
        # congruent to pi/8 modulo pi/4
        for seed in (0, 1, 2):
            for density in (8, 16, 24):
                result = synthesize(minus_to_zero(), density, 1e-8, seed)
                assert result.fidelity > 1 - 1e-9
                assert circular_distance(result.plates[0].angle, PI / 8, PI / 4) < 1e-6

    def test_stored_fidelity_matches_recompute(self):
        for problem in (minus_to_zero(), plus_to_zero_qwp(), minus_to_plus_free_phase()):
            result = synthesize(problem, 16, 1e-8, 0)
            again = realized_fidelity(problem, result.plates, result.source_phase)
            assert abs(result.fidelity - again) < 1e-12

    def test_reversibility(self):
        for problem in (minus_to_zero(), plus_to_zero_qwp()):
            result = synthesize(problem, 16, 1e-8, 0)
            assert result.fidelity > 1 - 1e-9
            g = np.eye(3, dtype=complex)
            for spec in result.plates:
                g = spec.lifted() @ g
            back = optics.apply(g.conj().T, problem.target)
            assert abs(qutrit.fidelity(problem.input_state, back) - result.fidelity) < 1e-12

    def test_two_plate_budget(self):
        # one quarter-wave plate cannot send minus to zero, two can
        single = synthesize(
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (PI / 2,), False),
            16, 1e-8, 0,
        )
        double = synthesize(
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 2, (PI / 2,), False),
            16, 1e-8, 0,
        )
        assert single.fidelity < 1 - 1e-6
        assert double.fidelity > 1 - 1e-9

    def test_grid_density_validated(self):
        with pytest.raises(ValueError):
            synthesize(minus_to_zero(), 4, 1e-8, 0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_refine_tol_validated_before_any_evaluation(self, tol, monkeypatch):
        def no_eval(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(synthesis, "_objective", no_eval)
        with pytest.raises(ValueError, match="tolerance"):
            synthesize(minus_to_zero(), 16, tol, 0)


class TestProblemValidation:
    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 0, (PI,), False)
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 9, (PI,), False)

    def test_empty_retardances(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (), False)

    def test_bad_retardance_entry(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, ("loose",), False)

    def test_phase_optimization_needs_source_input(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("zero"), trit_basis("plus"), 1, (PI,), True)
