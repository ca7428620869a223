"""Search for plate settings realizing trit transitions.

A synthesis problem asks for a sequence of retardation plates (and optionally
a retuned source phase) carrying an input pair state into a target state with
maximal fidelity.  Plates generate only the lifted SU(2) subgroup, so not
every target is reachable; the search reports the best fidelity found and
whether it clears the reachability threshold.

Strategy: a coarse uniform grid over all free angles, then Nelder-Mead
refinement of the best grid points.  The objective is smooth, low
dimensional and periodic, so this is cheap and derivative free.  Both stages
score candidates with one closed-form kernel, on a single parameter vector or
on columns of grid points.  Ties among
symmetric optima are broken toward the lexicographically smallest canonical
parameters (plate angles in [0, pi), phases in [0, 2*pi)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import optics, qutrit
from .experiment import SourceSpec, source_state
from .optics import PlateSpec

FREE = "free"
REACHABLE_THRESHOLD = 1.0 - 1e-6
_MAX_GRID_POINTS = 200_000
_TWO_PI = 2.0 * math.pi
_SQRT2 = math.sqrt(2.0)
_INV_SQRT2 = 1.0 / _SQRT2
# Grid points scored per kernel call: bounds the kernel's temporaries.
_GRID_CHUNK = 4096


def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported on first call: scipy loads only
    when a synthesis reaches refinement."""
    from scipy import optimize

    return optimize.minimize(*args, **kwargs)


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


def _decode(problem: SynthesisProblem, assignment: tuple, params):
    """Split parameters into (retardance, angle) pairs and an optional source
    phase.  Entries pass through as given: floats for one point, columns for
    many."""
    cursor = problem.budget
    plates = []
    for k, fixed in enumerate(assignment):
        if fixed == FREE:
            delta = params[cursor]
            cursor += 1
        else:
            delta = fixed
        plates.append((delta, params[k]))
    phase = params[cursor] if problem.optimize_source_phase else None
    return plates, phase


def _fidelity(problem: SynthesisProblem, assignment: tuple, params):
    """|<target|out>|^2 for one parameter vector or for parameter columns.

    The plates compose as 2x2 Jones matrices in the `optics.retarder`
    convention, J = cos(d/2) I + i sin(d/2) [[cos 2chi, sin 2chi],
    [sin 2chi, -cos 2chi]], and the product is lifted entry by entry onto
    the input state (the `optics.lift` formula).  Only elementwise arithmetic
    is used, so `params[k]` may be a float or a column of grid points.
    """
    plates, phase = _decode(problem, assignment, params)
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for delta, chi in plates:
        cos_d = np.cos(0.5 * delta)
        isin_d = 1j * np.sin(0.5 * delta)
        p01 = isin_d * np.sin(2.0 * chi)
        p_diag = isin_d * np.cos(2.0 * chi)
        p00, p11 = cos_d + p_diag, cos_d - p_diag
        a, b, c, d = p00 * a + p01 * c, p00 * b + p01 * d, p01 * a + p11 * c, p01 * b + p11 * d
    if phase is None:
        s0, s1, s2 = problem.input_state
    else:  # the ideal balanced source, as `source_state(SourceSpec(phase=phase))`
        s0, s1, s2 = _INV_SQRT2, 0.0, _INV_SQRT2 * np.exp(1j * phase)
    t0, t1, t2 = problem.target.conj()
    amp = (
        t0 * (a * a * s0 + _SQRT2 * a * b * s1 + b * b * s2)
        + t1 * (_SQRT2 * a * c * s0 + (a * d + b * c) * s1 + _SQRT2 * b * d * s2)
        + t2 * (c * c * s0 + _SQRT2 * c * d * s1 + d * d * s2)
    )
    return amp.real**2 + amp.imag**2


def _grid_fidelities(problem: SynthesisProblem, assignment: tuple, points: np.ndarray):
    """Kernel values for the rows of `points`, scored a chunk at a time."""
    values = np.empty(len(points))
    for lo in range(0, len(points), _GRID_CHUNK):
        values[lo : lo + _GRID_CHUNK] = _fidelity(
            problem, assignment, points[lo : lo + _GRID_CHUNK].T
        )
    return values


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
    return float(_fidelity(problem, assignment, params))


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
    if grid_density > _MAX_GRID_POINTS:
        raise ValueError(f"grid density must be <= {_MAX_GRID_POINTS}, got {grid_density}")
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
        values = _grid_fidelities(problem, assignment, points)
        evaluations += len(points)

        order = np.argsort(-values, kind="stable")
        best_val = values[order[0]]
        # tie-break exact grid ties toward the smallest canonical parameters
        tied = list(order[: np.count_nonzero(values >= best_val - 1e-12)])
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
                lambda p: -_fidelity(problem, assignment, p),
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
    phase = float(phase) % _TWO_PI if phase is not None else None
    fidelity = realized_fidelity(problem, plate_specs, phase)
    return SynthesisResult(
        plates=plate_specs, source_phase=phase, fidelity=fidelity, evaluations=evaluations
    )


def reachability_report(problem: SynthesisProblem, result: SynthesisResult) -> str:
    """'reachable' when the result's fidelity clears 1 - 1e-6, else 'approximate'."""
    return "reachable" if result.fidelity > REACHABLE_THRESHOLD else "approximate"
