"""Search for plate settings realizing trit transitions.

A synthesis problem asks for a sequence of retardation plates (and optionally
a retuned source phase) carrying an input pair state into a target state with
maximal fidelity.  Plates generate only the lifted SU(2) subgroup, so not
every target is reachable; the search reports the best fidelity found and
whether it clears the reachability threshold.

Strategy: a coarse uniform grid over all free angles, then Nelder-Mead
refinement of the best grid points.  The objective is smooth, low
dimensional and periodic, so this is cheap and derivative free.  Ties among
symmetric optima are broken toward the lexicographically smallest canonical
parameters (plate angles in [0, pi), phases in [0, 2*pi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import minimize

from . import optics, qutrit
from .experiment import SourceSpec, source_state
from .optics import PlateSpec

FREE = "free"
REACHABLE_THRESHOLD = 1.0 - 1e-6
_MAX_GRID_POINTS = 200_000
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SynthesisProblem:
    """Find plates mapping input_state to target.

    retardances is the set of allowed plate retardances; each entry is a
    value in radians or the string 'free' for a continuously adjustable
    plate.  With optimize_source_phase the input is an ideal balanced
    two-beam source whose phase becomes a search parameter.
    """

    input_state: np.ndarray
    target: np.ndarray
    budget: int = 1
    retardances: tuple = (math.pi,)
    optimize_source_phase: bool = False

    def __post_init__(self):
        object.__setattr__(self, "input_state", qutrit.require_normalized(self.input_state))
        object.__setattr__(self, "target", qutrit.require_normalized(self.target))
        if not (1 <= self.budget <= 8):
            raise ValueError(f"plate budget must be in 1..8, got {self.budget}")
        rets = tuple(self.retardances)
        if not rets:
            raise ValueError("retardances set must not be empty")
        for r in rets:
            if r != FREE and not (isinstance(r, (int, float)) and np.isfinite(r)):
                raise ValueError(f"retardance must be radians or 'free', got {r!r}")
        object.__setattr__(self, "retardances", rets)
        if self.optimize_source_phase:
            c1, c2, c3 = self.input_state
            if abs(c2) > 1e-9 or abs(abs(c1) - abs(c3)) > 1e-9:
                raise ValueError(
                    "optimize_source_phase needs an input expressible as a balanced "
                    "two-beam source state (|c2| = 0, |c1| = |c3|)"
                )


@dataclass(frozen=True)
class SynthesisResult:
    plates: tuple
    source_phase: float | None
    fidelity: float
    evaluations: int


def _default_assignment(problem: SynthesisProblem) -> tuple:
    return (problem.retardances[0],) * problem.budget


def _param_count(problem: SynthesisProblem, assignment: tuple) -> int:
    n = problem.budget + sum(1 for r in assignment if r == FREE)
    return n + (1 if problem.optimize_source_phase else 0)


def _decode(problem: SynthesisProblem, assignment: tuple, params: np.ndarray):
    """Split a parameter vector into plate specs and an optional source phase."""
    angles = params[: problem.budget]
    cursor = problem.budget
    plates = []
    for fixed in assignment:
        if fixed == FREE:
            delta = params[cursor]
            cursor += 1
        else:
            delta = fixed
        plates.append((float(delta), float(angles[len(plates)])))
    phase = float(params[cursor]) if problem.optimize_source_phase else None
    return plates, phase


def _objective(problem: SynthesisProblem, assignment: tuple, params: np.ndarray) -> float:
    plates, phase = _decode(problem, assignment, params)
    if phase is None:
        state = problem.input_state
    else:
        state = source_state(SourceSpec(phase=phase))
    g = np.eye(3, dtype=complex)
    for delta, chi in plates:
        g = optics.lift(optics.retarder(delta, chi)) @ g
    out = g @ state
    return abs(np.vdot(problem.target, out)) ** 2


def fidelity_objective(problem: SynthesisProblem, params) -> float:
    """Phase-blind fidelity of the candidate parameters for `problem`.

    The vector holds one axis angle per plate, then one retardance per
    'free' plate, then the source phase when that is being optimized.  Plates
    take the first entry of the allowed retardance set; `synthesize`
    enumerates the other assignments itself.
    """
    assignment = _default_assignment(problem)
    params = np.asarray(params, dtype=float)
    expected = _param_count(problem, assignment)
    if params.shape != (expected,):
        raise ValueError(f"expected {expected} parameters, got shape {params.shape}")
    return _objective(problem, assignment, params)


def realized_fidelity(problem: SynthesisProblem, plates, source_phase) -> float:
    """Recompute a result's fidelity through the public optics pipeline."""
    if source_phase is None:
        state = problem.input_state
    else:
        state = source_state(SourceSpec(phase=source_phase))
    for spec in plates:
        state = optics.apply(spec.lifted(), state)
    return qutrit.fidelity(problem.target, state)


def _grid_axes(problem: SynthesisProblem, assignment: tuple, density: int):
    axes = [np.linspace(0.0, math.pi, density, endpoint=False)] * problem.budget
    axes += [
        np.linspace(0.0, _TWO_PI, density, endpoint=False)
        for r in assignment
        if r == FREE
    ]
    if problem.optimize_source_phase:
        axes.append(np.linspace(0.0, _TWO_PI, density, endpoint=False))
    return axes


def _canonical(problem: SynthesisProblem, assignment: tuple, params: np.ndarray) -> tuple:
    out = []
    for i, p in enumerate(params):
        out.append(float(p) % math.pi if i < problem.budget else float(p) % _TWO_PI)
    return tuple(out)


def synthesize(
    problem: SynthesisProblem,
    grid_density: int = 16,
    refine_tol: float = 1e-8,
    seed: int = 0,
) -> SynthesisResult:
    """Grid search plus Nelder-Mead refinement; deterministic for fixed inputs.

    Returns the best plate sequence found; a low fidelity is a valid answer
    (see `reachability_report`).  The reported fidelity is recomputed from
    the returned settings through the optics pipeline.
    """
    if grid_density < 8:
        raise ValueError(f"grid density must be >= 8, got {grid_density}")
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refinement tolerance must be finite and > 0, got {refine_tol}")
    rng = np.random.default_rng(seed)
    evaluations = 0
    candidates = []  # (fidelity, assignment_index, canonical params, assignment)

    assignments = []
    for combo in product(problem.retardances, repeat=problem.budget):
        if combo not in assignments:
            assignments.append(combo)

    for a_idx, assignment in enumerate(assignments):
        axes = _grid_axes(problem, assignment, grid_density)
        dims = len(axes)
        n_full = grid_density**dims
        if n_full <= _MAX_GRID_POINTS:
            mesh = np.meshgrid(*axes, indexing="ij")
            points = np.stack([m.ravel() for m in mesh], axis=-1)
        else:
            highs = np.array([math.pi] * problem.budget + [_TWO_PI] * (dims - problem.budget))
            points = rng.uniform(0.0, 1.0, (_MAX_GRID_POINTS, dims)) * highs
        values = np.empty(len(points))
        for i, p in enumerate(points):
            values[i] = _objective(problem, assignment, p)
        evaluations += len(points)

        order = np.argsort(-values, kind="stable")
        best_val = values[order[0]]
        # tie-break exact grid ties toward the smallest canonical parameters
        tied = [i for i in order if values[i] >= best_val - 1e-12]
        tied.sort(key=lambda i: _canonical(problem, assignment, points[i]))
        starts = [points[tied[0]]]
        for i in order[: max(4, len(tied))]:
            if len(starts) >= 4:
                break
            if all(np.max(np.abs(points[i] - s)) > 1e-12 for s in starts):
                starts.append(points[i])

        candidates.append(
            (best_val, a_idx, _canonical(problem, assignment, starts[0]), assignment)
        )
        for x0 in starts:
            res = minimize(
                lambda p: -_objective(problem, assignment, p),
                x0,
                method="Nelder-Mead",
                options={"xatol": refine_tol, "fatol": 1e-15, "maxiter": 4000, "maxfev": 8000},
            )
            evaluations += int(res.nfev)
            candidates.append(
                (-res.fun, a_idx, _canonical(problem, assignment, res.x), assignment)
            )

    top = max(c[0] for c in candidates)
    eligible = [c for c in candidates if c[0] >= top - 1e-12]
    eligible.sort(key=lambda c: (c[1], c[2]))
    _, _, params, assignment = eligible[0]
    plates, phase = _decode(problem, assignment, np.array(params))
    plate_specs = tuple(PlateSpec(delta, chi) for delta, chi in plates)
    phase = phase % _TWO_PI if phase is not None else None
    fidelity = realized_fidelity(problem, plate_specs, phase)
    return SynthesisResult(
        plates=plate_specs, source_phase=phase, fidelity=fidelity, evaluations=evaluations
    )


def reachability_report(problem: SynthesisProblem, result: SynthesisResult) -> str:
    """'reachable' when the result's fidelity clears 1 - 1e-6, else 'approximate'."""
    return "reachable" if result.fidelity > REACHABLE_THRESHOLD else "approximate"
