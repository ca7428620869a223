"""Tests for plate-setting synthesis."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from triphot import optics, qutrit, synthesis
from triphot.experiment import SourceSpec, source_state
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


def reference_fidelity(problem, assignment, params):
    """The per-point chain the kernel replaced: one lift(retarder) per plate,
    multiplied as 3x3 matrices and applied to the input state."""
    angles, rest = list(params[: problem.budget]), list(params[problem.budget :])
    deltas = [rest.pop(0) if r == synthesis.FREE else r for r in assignment]
    if problem.optimize_source_phase:
        state = source_state(SourceSpec(phase=rest.pop(0)))
    else:
        state = problem.input_state
    assert not rest
    g = np.eye(3, dtype=complex)
    for delta, chi in zip(deltas, angles):
        g = optics.lift(optics.retarder(delta, chi)) @ g
    return abs(np.vdot(problem.target, g @ state)) ** 2


def random_state(rng):
    return qutrit.make_state(*(rng.normal(size=3) + 1j * rng.normal(size=3)))


def kernel_cases():
    """Every assignment of a few retardance sets, budgets 1-3, with and
    without the source phase, on random input and target states."""
    rng = np.random.default_rng(2024)
    cases = []
    for budget, retardances, retune in product(
        (1, 2, 3), ((PI,), (PI / 2, PI), (synthesis.FREE,), (synthesis.FREE, 1.1)), (False, True)
    ):
        inp = trit_basis("minus") if retune else random_state(rng)
        problem = SynthesisProblem(inp, random_state(rng), budget, retardances, retune)
        for assignment in sorted(set(product(retardances, repeat=budget)), key=repr):
            cases.append((problem, assignment))
    return cases


def random_params(rng, problem, assignment, n=None):
    dims = synthesis._param_count(problem, assignment)
    shape = (dims,) if n is None else (n, dims)
    return rng.uniform(-2 * PI, 2 * PI, shape)


class TestFidelityKernel:
    def test_single_points_match_reference_chain(self):
        rng = np.random.default_rng(5)
        for problem, assignment in kernel_cases():
            for _ in range(5):
                p = random_params(rng, problem, assignment)
                value = synthesis._fidelity(problem, assignment, p)
                assert abs(value - reference_fidelity(problem, assignment, p)) <= 1e-12

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("retune", [False, True])
    def test_chunked_grid_matches_reference_chain(self, budget, retune):
        rng = np.random.default_rng(budget + 10 * retune)
        inp = trit_basis("plus") if retune else random_state(rng)
        problem = SynthesisProblem(inp, random_state(rng), budget, (synthesis.FREE, PI), retune)
        assignment = (synthesis.FREE, PI, synthesis.FREE)[:budget]
        chunk = synthesis._GRID_CHUNK
        n = 2 * chunk + 1809
        assert n >= 10_000 and n % chunk
        points = random_params(rng, problem, assignment, n)
        values = synthesis._grid_fidelities(problem, assignment, points)
        assert values.shape == (n,)
        # every chunk edge, and a sample of the rest
        edges = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, n - 1]
        for i in edges + list(rng.choice(n, 200, replace=False)):
            assert abs(values[i] - reference_fidelity(problem, assignment, points[i])) <= 1e-12
        singles = [synthesis._fidelity(problem, assignment, p) for p in points]
        assert np.max(np.abs(values - singles)) <= 1e-12

    def test_free_retardance_grid_memory_is_chunked(self):
        # 9^5 = 59 049 grid points; scored in one piece they peak near 19 MB
        problem = SynthesisProblem(
            trit_basis("plus"), trit_basis("minus"), 2, (synthesis.FREE,), True
        )
        tracemalloc.start()
        try:
            result = synthesize(problem, 9, 1e-8, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reachability_report(problem, result) == "reachable"
        assert peak < 8 * 2**20


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

    def test_huge_grid_density_rejected_before_allocation(self, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the density was checked")

        monkeypatch.setattr(np, "linspace", no_grid)
        monkeypatch.setattr(synthesis, "_grid_axes", no_grid)
        with pytest.raises(ValueError, match=str(synthesis._MAX_GRID_POINTS)):
            synthesize(minus_to_zero(), 10**9, 1e-8, 0)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_refine_tol_validated_before_any_evaluation(self, tol, monkeypatch):
        def no_eval(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(synthesis, "_fidelity", no_eval)
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
