"""Tests for plate-setting synthesis."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from triphot import optics, qutrit, synthesis
from triphot.experiment import SourceSpec, source_state
from triphot.optics import PlateSpec
from triphot.qutrit import trit_basis
from triphot.synthesis import (
    SynthesisProblem,
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
        fid = realized_fidelity(minus_to_zero(), [PlateSpec.half(PI / 8)], None)
        assert abs(fid - 1.0) < 1e-12

    def test_half_wave_never_converts_plus(self):
        problem = SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 1, (PI,), False)
        for chi in np.linspace(0, PI, 50):
            assert realized_fidelity(problem, [PlateSpec.half(chi)], None) < 1e-12

    def test_aligned_half_wave_with_retuned_phase(self):
        # the minus -> plus switch: the pi source-phase shift does the work,
        # the axis-aligned half-wave plate leaves the result alone
        fid = realized_fidelity(minus_to_plus_free_phase(), [PlateSpec.half(0.0)], 0.0)
        assert abs(fid - 1.0) < 1e-12

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
    dims = len(synthesis._layout(problem, assignment)[0])
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
        # brute-force oracle over a dense angle grid, through the optics pipeline
        oracle = max(
            realized_fidelity(problem, [PlateSpec.half(chi)], None)
            for chi in np.linspace(0, PI, 10_000)
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

    @pytest.mark.parametrize("seed", [-1, -5, 1.5, "0", None, True])
    @pytest.mark.parametrize("budget", [1, 2])
    def test_seed_validated_on_both_paths(self, seed, budget, monkeypatch):
        # budget 1 takes the closed form, budget 2 the search
        def no_eval(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(synthesis, "_fidelity", no_eval)
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), budget, (PI,), False)
        with pytest.raises(ValueError, match="seed"):
            synthesize(problem, 16, 1e-8, seed)

    def test_numpy_integer_seed_accepted(self):
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 2, (PI,), False)
        assert synthesize(problem, 8, 1e-8, np.int64(3)) == synthesize(problem, 8, 1e-8, 3)


def one_plate_cases():
    """Random inputs, targets and fixed retardances; every other case retunes
    the source phase of a plus or minus input."""
    rng = np.random.default_rng(11)
    cases = []
    for k in range(24):
        retune = k % 2 == 1
        inp = trit_basis(("plus", "minus")[k // 2 % 2]) if retune else random_state(rng)
        delta = float(rng.uniform(0.0, 2 * PI))
        cases.append(SynthesisProblem(inp, random_state(rng), 1, (delta,), retune))
    return cases


class TestOnePlateSolver:
    def test_no_dense_grid_point_beats_it(self):
        chi, phi = np.meshgrid(
            np.linspace(0, PI, 720, endpoint=False),
            np.linspace(0, 2 * PI, 360, endpoint=False),
            indexing="ij",
        )
        for problem in one_plate_cases():
            assignment = problem.retardances
            points = np.stack([chi.ravel(), phi.ravel()] if problem.optimize_source_phase
                              else [chi[:, 0]], axis=-1)
            dense = synthesis._grid_fidelities(problem, assignment, points).max()
            result = synthesize(problem)
            assert result.fidelity >= dense - 1e-12
            assert result.evaluations == (64 if problem.optimize_source_phase else 16)

    def test_solved_value_matches_realized_fidelity(self):
        for problem in one_plate_cases():
            delta = problem.retardances[0]
            found, _ = synthesis._solve_one_plate(problem, delta)
            for value, params in found:
                phase = params[1] if problem.optimize_source_phase else None
                realized = realized_fidelity(problem, (optics.PlateSpec(delta, params[0]),), phase)
                assert abs(value - realized) <= 1e-12
            result = synthesize(problem)
            assert abs(result.fidelity - max(value for value, _ in found)) <= 1e-12

    def test_symmetric_optima_break_to_smallest_angle(self):
        # optima at pi/8 + k pi/4 all reach 1; the smallest must win exactly
        result = synthesize(minus_to_zero())
        assert abs(result.plates[0].angle - PI / 8) <= 1e-12

    def test_immaterial_phase_is_zero(self):
        # plus -> |2,0>: F = 1/2 for every phase, so the phase ties at 0
        for delta in (PI, PI / 2):
            problem = SynthesisProblem(trit_basis("plus"), qutrit.fock_basis(0), 1, (delta,), True)
            result = synthesize(problem)
            assert abs(result.fidelity - 0.5) <= 1e-12
            assert result.source_phase == 0.0

    def test_retuned_minus_to_plus_is_exactly_zero(self):
        result = synthesize(minus_to_plus_free_phase())
        assert result.source_phase == 0.0
        assert result.plates[0].angle == 0.0

    def test_free_plate_still_searched(self):
        # a 'free' assignment of the same problem keeps the grid search
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (synthesis.FREE, PI))
        result = synthesize(problem, 16, 1e-8, 0)
        assert result.evaluations > 16 + 16
        assert result.fidelity > 1 - 1e-9


def haar_su2(rng, n):
    """n Haar-random SU(2) matrices, [[a, -b*], [b, a*]] with (a, b) uniform on S^3."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    a, b = q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3]
    return np.stack([np.stack([a, -b.conj()], -1), np.stack([b, a.conj()], -1)], -2)


class TestFidelityBound:
    def test_no_lifted_rotation_beats_it(self):
        rng = np.random.default_rng(5)
        gaps = []
        for _ in range(100):
            s, t = random_state(rng), random_state(rng)
            bound = synthesis.fidelity_bound(s, t)
            best = (np.abs(optics.lift(haar_su2(rng, 2000)) @ s @ t.conj()) ** 2).max()
            assert best <= bound + 1e-12
            gaps.append(bound - best)
        # 2000 samples come close to the bound, so it is not vacuous
        assert max(gaps) < 0.1

    @pytest.mark.parametrize("source, target, expected", [
        ("plus", "zero", 1.0),
        ("minus", "plus", 1.0),
        (0, 2, 1.0),
        ("zero", 0, 0.5),
        (2, "minus", 0.5),
    ])
    def test_exact_values(self, source, target, expected):
        s, t = (qutrit.fock_basis(x) if isinstance(x, int) else trit_basis(x)
                for x in (source, target))
        assert synthesis.fidelity_bound(s, t) == pytest.approx(expected, abs=1e-15)

    def test_equal_p_gives_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            s = random_state(rng)
            rotated = optics.lift(haar_su2(rng, 1)[0]) @ s
            assert abs(synthesis.fidelity_bound(s, rotated) - 1.0) <= 1e-15

    @pytest.mark.parametrize("c2", [1e-3, 1e-5, 1e-7])
    def test_accurate_near_full_polarization(self, c2):
        # 1 - P^2 = c2^4 / (1 + c2^2)^2: through P it would keep no digits
        near_fock = qutrit.make_state(1.0, c2, 0.0)
        expected = 0.5 * (1.0 + c2**2 / (1.0 + c2**2))
        assert abs(synthesis.fidelity_bound(near_fock, trit_basis("zero")) - expected) <= 1e-15

    def test_reported_with_the_result(self):
        for problem in (minus_to_zero(), plus_to_zero_qwp(), minus_to_plus_free_phase()):
            result = synthesize(problem, 16, 1e-8, 0)
            assert result.fidelity_bound == synthesis.fidelity_bound(
                problem.input_state, problem.target
            )
            assert result.fidelity <= result.fidelity_bound + 1e-12


STOP_SETS = {
    "hwp": (PI,), "qwp": (PI / 2,), "hwp,qwp": (PI, PI / 2), "qwp,hwp": (PI / 2, PI),
    "free": (synthesis.FREE,), "hwp,free": (PI, synthesis.FREE),
}


class TestEarlyStop:
    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("kinds", STOP_SETS)
    def test_same_answer_as_full_walk(self, monkeypatch, kinds, budget):
        # a smaller random grid keeps this fast; it still runs above 8**5 points
        monkeypatch.setattr(synthesis, "_MAX_GRID_POINTS", 4096)
        states = [trit_basis(x) for x in ("plus", "minus", "zero")]
        states += [qutrit.fock_basis(k) for k in range(3)]
        problems = [
            SynthesisProblem(s, t, budget, STOP_SETS[kinds], retune)
            for i, s in enumerate(states)
            for t in states
            for retune in (False, True)[: 2 if i < 2 else 1]
        ]
        stopped = [synthesize(p, 8, 1e-8, 0) for p in problems]
        monkeypatch.setattr(synthesis, "fidelity_bound", lambda *states: 2.0)
        for problem, early in zip(problems, stopped):
            full = synthesize(problem, 8, 1e-8, 0)
            assert (early.plates, early.source_phase, early.fidelity) == (
                full.plates, full.source_phase, full.fidelity
            )
            assert early.evaluations <= full.evaluations

    def test_stops_after_the_assignment_that_reaches_the_bound(self, monkeypatch):
        searched = []
        search = synthesis._search

        def counted_search(problem, assignment, *args):
            searched.append(assignment)
            return search(problem, assignment, *args)

        monkeypatch.setattr(synthesis, "_search", counted_search)
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 2, (PI / 2, PI))
        result = synthesize(problem, 16, 1e-8, 0)
        assert result.fidelity > 1 - 1e-9
        assert searched == [(PI / 2, PI / 2)]

    def test_walks_product_order_over_distinct_retardances(self, monkeypatch):
        # 8 plates of 3 kinds: every one of the 3**8 assignments once, in
        # `product` order; the stub search stays below the bound throughout
        walked = []

        def stub_search(problem, assignment, *args):
            walked.append(assignment)
            return [(0.0, (0.0,) * len(synthesis._layout(problem, assignment)[0]))], 1

        monkeypatch.setattr(synthesis, "_search", stub_search)
        kinds = (PI, PI / 2, synthesis.FREE)
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 8,
                                   (PI, PI / 2, PI, synthesis.FREE, PI / 2), False)
        assert problem.retardances == kinds
        result = synthesize(problem, 8, 1e-8, 0)
        assert walked == list(product(kinds, repeat=8))
        assert result.evaluations == 3**8
        assert [p.retardance for p in result.plates] == [PI] * 8

    def test_near_miss_walks_on(self):
        # a plate 1e-5 short of half-wave falls 2.5e-11 short of the bound,
        # beyond the tie tolerance, so the half-wave plate after it still wins
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (PI - 1e-5, PI))
        result = synthesize(problem)
        assert result.plates[0].retardance == PI
        assert result.fidelity == pytest.approx(1.0, abs=1e-15)


class TestProblemValidation:
    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 0, (PI,), False)
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 9, (PI,), False)

    def test_empty_retardances(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, (), False)

    def test_retardances_stored_without_repeats(self):
        problem = SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 2,
                                   (PI, PI / 2, PI, synthesis.FREE, PI / 2, synthesis.FREE))
        assert problem.retardances == (PI, PI / 2, synthesis.FREE)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("retune", [False, True])
    def test_repeated_retardance_gives_the_same_result(self, budget, retune):
        rng = np.random.default_rng(budget + 10 * retune)
        inp = trit_basis("minus") if retune else random_state(rng)
        target = random_state(rng)
        repeated = SynthesisProblem(inp, target, budget, (PI, PI / 2, PI), retune)
        distinct = SynthesisProblem(inp, target, budget, (PI, PI / 2), retune)
        assert repeated.retardances == distinct.retardances
        assert synthesize(repeated, 8, 1e-8, 4) == synthesize(distinct, 8, 1e-8, 4)

    def test_bad_retardance_entry(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("minus"), trit_basis("zero"), 1, ("loose",), False)

    def test_phase_optimization_needs_source_input(self):
        with pytest.raises(ValueError):
            SynthesisProblem(trit_basis("zero"), trit_basis("plus"), 1, (PI,), True)


def central_differences(problem, assignment, x, h):
    """Kernel gradient and Hessian at x by central differences of step h,
    with one Richardson step (error O(h^4))."""
    def at(h):
        e = np.eye(len(x)) * h
        fp, fm = (synthesis._grid_fidelities(problem, assignment, x + s * e) for s in (1, -1))
        grad = (fp - fm) / (2 * h)
        corners = [
            synthesis._grid_fidelities(
                problem, assignment, (x + a * e[:, None] + b * e[None, :]).reshape(-1, len(x))
            ).reshape(len(x), len(x))
            for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        ]
        return grad, (corners[0] - corners[1] - corners[2] + corners[3]) / (4 * h * h)

    (g1, h1), (g2, h2) = at(h), at(2 * h)
    return (4 * g1 - g2) / 3, (4 * h1 - h2) / 3


def stencil_derivatives(problem, assignment, x):
    """The refinement's gradient and Hessian at x, in the unscaled parameters."""
    stencil = synthesis._stencil(problem, assignment)
    f = synthesis._grid_fidelities(problem, assignment, x[None, :])
    grad, hess, _ = synthesis._derivatives(problem, assignment, stencil, x[None, :], f)
    scale = stencil[0]
    return grad[0] / scale, hess[0] / np.outer(scale, scale)


def nelder_mead_refine(problem, assignment, starts, values, refine_tol):
    """Nelder-Mead from each start, with the options the search used before
    its Newton refinement."""
    from scipy.optimize import minimize

    points, fidelities, evaluations = [], [], 0
    for x0 in starts:
        res = minimize(
            lambda p: -synthesis._fidelity(problem, assignment, p),
            x0,
            method="Nelder-Mead",
            options={"xatol": refine_tol, "fatol": 1e-15, "maxiter": 4000, "maxfev": 8000},
        )
        points.append(res.x)
        fidelities.append(-res.fun)
        evaluations += res.nfev
    return np.array(points), np.array(fidelities), evaluations


def reference_starts(problem, assignment, points, values):
    """Refinement starts picked with a full sort and a Python tie-break sort."""
    order = np.argsort(-values, kind="stable")
    tied = list(order[: np.count_nonzero(values >= values[order[0]] - synthesis._TIE_TOL)])
    periods, _ = synthesis._layout(problem, assignment)
    tied.sort(key=lambda i: synthesis._canonical(periods, points[i]))
    starts = [tied[0]]
    for i in order[: max(4, len(tied))]:
        if len(starts) >= 4:
            break
        if all(np.max(np.abs(points[i] - points[s])) > 1e-12 for s in starts):
            starts.append(i)
    return starts


class TestNewtonRefinement:
    def test_stencil_derivatives_match_central_differences(self):
        rng = np.random.default_rng(8)
        for problem, assignment in kernel_cases():
            for _ in range(2):
                x = random_params(rng, problem, assignment)
                grad, hess = stencil_derivatives(problem, assignment, x)
                fd_grad, fd_hess = central_differences(problem, assignment, x, 1e-3)
                assert np.max(np.abs(grad - fd_grad)) <= 1e-6
                assert np.max(np.abs(hess - fd_hess)) <= 1e-6
                assert np.array_equal(hess, hess.T)

    def test_one_plate_derivatives_match_envelope(self):
        # without the phase, the one-plate solver's envelope G is the fidelity
        # as a series in theta = 2 chi; the stencil takes theta as its parameter
        theta = np.arange(16) * (2 * PI / 16)
        n = np.arange(-synthesis._HARMONICS, synthesis._HARMONICS + 1)
        rng = np.random.default_rng(9)
        for problem in one_plate_cases()[::2]:
            assignment = problem.retardances
            p = np.exp(-1j * np.outer(n, theta)) @ synthesis._fidelity(
                problem, assignment, (0.5 * theta,)) / 16
            t = rng.uniform(0, 2 * PI, 5)
            _, g1, g2, _ = synthesis._envelope(p, np.zeros(len(n)), t)
            stencil = synthesis._stencil(problem, assignment)
            x = 0.5 * t[:, None]
            f = synthesis._grid_fidelities(problem, assignment, x)
            grad, hess, _ = synthesis._derivatives(problem, assignment, stencil, x, f)
            assert np.max(np.abs(grad[:, 0] - g1)) <= 1e-12
            assert np.max(np.abs(hess[:, 0, 0] - g2)) <= 1e-12

    def test_no_step_lowers_the_fidelity(self, monkeypatch):
        derivatives = synthesis._derivatives
        centres = []

        def record(problem, assignment, stencil, x, f):
            centres.append(f[0])
            return derivatives(problem, assignment, stencil, x, f)

        monkeypatch.setattr(synthesis, "_derivatives", record)
        rng = np.random.default_rng(13)
        for problem, assignment in kernel_cases():
            x0 = random_params(rng, problem, assignment, 1)
            f0 = synthesis._grid_fidelities(problem, assignment, x0)
            centres.clear()
            _, f, _ = synthesis._refine(problem, assignment, x0, f0, 1e-8)
            assert 1 <= len(centres) <= synthesis._MAX_STEPS
            assert np.all(np.diff(centres + [f[0]]) >= 0.0)

    def test_never_below_nelder_mead(self, monkeypatch):
        # the same starts refined both ways; only the Newton result is used
        newton = synthesis._refine
        best = {}

        def both(problem, assignment, starts, values, refine_tol):
            x, f, n = newton(problem, assignment, starts, values, refine_tol)
            assert np.all(f >= values)  # no step lowers the fidelity
            _, nm, _ = nelder_mead_refine(problem, assignment, starts, values, refine_tol)
            best["nm"] = max(best.get("nm", 0.0), nm.max())
            return x, f, n

        monkeypatch.setattr(synthesis, "_refine", both)
        rng = np.random.default_rng(12)
        cases = 0
        for budget, retardances in ((2, (PI,)), (2, (synthesis.FREE,)), (2, (0.7,)),
                                    (3, (1.1,)), (3, (PI / 2,))):
            for k in range(18):
                retune = k % 2 == 1
                inp = trit_basis(("plus", "minus")[k // 2 % 2]) if retune else random_state(rng)
                problem = SynthesisProblem(inp, random_state(rng), budget, retardances, retune)
                best.clear()
                result = synthesize(problem, 8, 1e-8, k)
                assert result.fidelity >= best["nm"] - 1e-12
                cases += 1
        assert cases >= 90

    def test_grid_ties_pick_smallest_canonical_point(self):
        # plus -> zero through half-wave plates: F = 0 at every point, so all
        # 200 000 random grid points tie
        problem = SynthesisProblem(trit_basis("plus"), trit_basis("zero"), 5, (PI,), False)
        found, _ = synthesis._search(problem, (PI,) * 5, 24, 1e-8, np.random.default_rng(3))
        points = np.random.default_rng(3).uniform(0.0, 1.0, (synthesis._MAX_GRID_POINTS, 5)) * PI
        assert max(value for value, _ in found) <= 1e-12
        assert found[0][1] == min(map(tuple, points.tolist()))

    def test_starts_match_sorted_selection(self, monkeypatch):
        refine = synthesis._refine
        seen = []

        def capture(problem, assignment, starts, values, refine_tol):
            seen.append(np.array(starts))
            return refine(problem, assignment, starts, values, refine_tol)

        monkeypatch.setattr(synthesis, "_refine", capture)
        for inp, target, retune in (("minus", "zero", False), ("minus", "zero", True),
                                    ("plus", "zero", False), ("zero", "plus", False)):
            for density in (8, 16):
                problem = SynthesisProblem(trit_basis(inp), trit_basis(target), 2, (PI,), retune)
                seen.clear()
                synthesis._search(problem, (PI, PI), density, 1e-8, None)
                points = np.stack(np.meshgrid(*synthesis._grid_axes(problem, (PI, PI), density),
                                              indexing="ij"), axis=-1).reshape(-1, 2 + retune)
                values = synthesis._grid_fidelities(problem, (PI, PI), points)
                starts = reference_starts(problem, (PI, PI), points, values)
                assert np.array_equal(seen[0], points[starts])
