"""Search for plate settings realizing trit transitions.

A synthesis problem asks for a sequence of retardation plates (and optionally
a retuned source phase) carrying an input pair state into a target state with
maximal fidelity.  Plates generate only the lifted SU(2) subgroup, which keeps
the degree of polarization P, so no plate sequence beats `fidelity_bound`; the
search reports the best fidelity found, the bound, and whether the fidelity
clears the reachability threshold.

Strategy: one plate of fixed retardance is solved in closed form.  Its
fidelity is a trigonometric polynomial of degree 4 in theta = 2*chi and of
degree 1 in the source phase, so 16 (or 64) kernel samples give it exactly;
the maximum over the phase is closed form and the maximum over theta comes
from Newton steps on the exact series.  Every other plate assignment (two or
more plates, or a 'free' retardance) takes a coarse uniform grid over all
free angles, then Newton refinement of the best grid points.  The fidelity
has a fixed degree in every parameter, so equally spaced samples along each
axis and each pair of axes give its exact gradient and Hessian; the grid
density, refinement tolerance and seed act only on this path (the seed must
be a non-negative integer).  Both paths score candidates with one
closed-form kernel, on columns of points, and return every candidate they
refine.  `synthesize` alone breaks ties among symmetric optima (fidelities
within 1e-12): toward the earliest assignment, then the lexicographically
smallest canonical parameters (plate angles in [0, pi), phases in
[0, 2*pi)).  Assignments are walked in order, and the walk ends at the first
that reaches the bound: later ones could only tie.

Tables that depend on no problem are built on first use, kept read-only and
reused: the one-plate solver's sample angles, DFT, harmonic weights and
envelope basis (`_series_tables`), the refinement stencil of each parameter
layout (`_stencil`), and the uniform search grid of each layout and density
(`_grid`).  Nothing keyed on a problem's states, target or result is kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import observables, optics, qutrit
from .conventions import FREE, RETARDANCE_NAMES
from .experiment import check_seed
from .optics import PlateSpec

REACHABLE_THRESHOLD = 1.0 - 1e-6
_MAX_GRID_POINTS = 200_000
_TWO_PI = 2.0 * math.pi
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Grid points scored per kernel call: bounds the kernel's temporaries.
_GRID_CHUNK = 4096
# Fidelities within this of the best count as ties.
_TIE_TOL = 1e-12
# Kernel values exceed `fidelity_bound` by at most their rounding (~1e-15), so a
# stop this far inside the tie tolerance leaves every later value a tie.
_BOUND_MARGIN = 1e-14
# One-plate solver: the fidelity's harmonics in theta = 2*chi, the samples
# that determine them, the envelope samples that seed Newton and its steps.
_HARMONICS = 4
_THETA_SAMPLES = 16
_ENVELOPE_SAMPLES = 256
_NEWTON_STEPS = 24
# Search refinement: the fidelity's largest frequency in a free retardance,
# the saddle-free Newton step's curvature floor, its largest component (both
# in the scaled parameters of `_stencil`), the halvings its line search
# tries, and the step cap.
_FREE_HARMONICS = 2
_CURVATURE_FLOOR = 1e-6
_TRUST_RADIUS = 0.5
_HALVINGS = 30
_MAX_STEPS = 64


@dataclass(frozen=True)
class SynthesisProblem:
    """Find plates mapping input_state to target.

    retardances is the set of allowed plate retardances; each entry is a
    value in radians or the string 'free' for a continuously adjustable
    plate.  It is stored without repeats, in first-seen order.  With
    optimize_source_phase the input is an ideal balanced two-beam source
    whose phase becomes a search parameter.
    """

    input_state: np.ndarray
    target: np.ndarray
    budget: int = 1
    retardances: tuple = (RETARDANCE_NAMES["half"],)
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
        object.__setattr__(self, "retardances", tuple(dict.fromkeys(rets)))
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
    fidelity_bound: float


def fidelity_bound(input_state, target) -> float:
    """F_max = cos^2((asin P_s - asin P_t) / 2), the best fidelity from
    `input_state` to `target` over all lifted SU(2) rotations, and so over
    every plate sequence (P is `observables.degree_of_polarization`).

    Computed as (1 + P_s P_t + R_s R_t) / 2, with R = sqrt(1 - P^2) taken as
    |2 c1 c3 - c2^2|: through P, R loses half its digits near P = 1.
    """
    p_s, p_t = (observables.degree_of_polarization(s) for s in (input_state, target))
    r_s, r_t = (abs(2.0 * s[0] * s[2] - s[1] * s[1]) for s in (input_state, target))
    return float(min(max(0.5 * (1.0 + p_s * p_t + r_s * r_t), 0.0), 1.0))


def _layout(problem: SynthesisProblem, assignment: tuple):
    """Each parameter's period and the fidelity's harmonic degree in it.

    Parameters come in the order one axis angle per plate (period pi, degree
    4 in theta = 2*chi), one retardance per 'free' plate (2*pi, 2), then the
    source phase when it is searched (2*pi, 1).  Returns (periods, degrees),
    two tuples: together they key the layout's cached tables."""
    n_free = sum(1 for r in assignment if r == FREE)
    n_phase = 1 if problem.optimize_source_phase else 0
    periods = (math.pi,) * problem.budget + (_TWO_PI,) * (n_free + n_phase)
    return periods, (_HARMONICS,) * problem.budget + (_FREE_HARMONICS,) * n_free + (1,) * n_phase


def _read_only(*arrays):
    """Mark `arrays` read-only, as every cached table is, and return them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


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
    [sin 2chi, -cos 2chi]], and the product is lifted entry by entry
    (`optics.lift_entries`) between the target and the input state.  Only
    elementwise arithmetic is used, so `params[k]` may be a float or a
    column of grid points.
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
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = optics.lift_entries(a, b, c, d)
    t0, t1, t2 = problem.target.conj()
    amp = (
        t0 * (g00 * s0 + g01 * s1 + g02 * s2)
        + t1 * (g10 * s0 + g11 * s1 + g12 * s2)
        + t2 * (g20 * s0 + g21 * s1 + g22 * s2)
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


@functools.lru_cache(maxsize=4)
def _grid(periods: tuple, density: int) -> np.ndarray:
    """The uniform search grid, `density` points per period along each axis,
    one row per point.  Read-only; an entry holds at most
    `_MAX_GRID_POINTS` rows of 5 parameters (8 MB)."""
    axes = [np.linspace(0.0, period, density, endpoint=False) for period in periods]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    points.flags.writeable = False
    return points


def _canonical(periods: tuple, params) -> tuple:
    """A parameter vector wrapped to [0, period) per entry, as a tuple."""
    return tuple(optics.wrap(np.asarray(params, dtype=float), periods).tolist())


@functools.lru_cache(maxsize=1)
def _series_tables():
    """The one-plate solver's tables, built on the first solve, read-only.

    Returns (harmonics, weights, chi, chi_phase, dft, grid, basis): the
    harmonics n = -4..4; the weights (1, i n, -n^2) that take a series'
    coefficients to those of its value and first two theta derivatives; the
    plate angles chi = theta/2 of the 16 theta samples; the (chi, phi)
    columns of each theta sample at 4 source phases; the DFT from the theta
    samples to the coefficients; the envelope grid over theta and its basis
    exp(i theta n).
    """
    n = np.arange(-_HARMONICS, _HARMONICS + 1)
    theta = np.arange(_THETA_SAMPLES) * (_TWO_PI / _THETA_SAMPLES)
    phases = np.arange(4) * (0.5 * math.pi)
    grid = np.arange(_ENVELOPE_SAMPLES) * (_TWO_PI / _ENVELOPE_SAMPLES)
    n, dn, d2n, chi, chi4, phi4, dft, grid, basis = _read_only(
        n,
        1j * n,
        -(n * n),
        0.5 * theta,
        np.repeat(0.5 * theta, 4),
        np.tile(phases, _THETA_SAMPLES),
        np.exp(-1j * np.outer(n, theta)) / _THETA_SAMPLES,
        grid,
        np.exp(1j * np.outer(grid, n)),
    )
    return n, (1.0, dn, d2n), chi, (chi4, phi4), dft, grid, basis


def _envelope(p: np.ndarray, q: np.ndarray, theta: np.ndarray, basis=None):
    """G = P + |Q| and its first two theta derivatives, with Q, at `theta`.

    P and Q are the series with coefficients `p` and `q` on harmonics
    -4..4.  Where Q = 0 the Q terms drop out (G is P there).  `basis`, when
    given, is exp(i theta n) at `theta` (the envelope grid's is tabled)."""
    n, weights = _series_tables()[:2]
    e = np.exp(1j * np.outer(theta, n)) if basis is None else basis
    pv, p1, p2 = ((e @ (p * w)).real for w in weights)
    qv, q1, q2 = (e @ (q * w) for w in weights)
    r = np.abs(qv)
    safe = np.maximum(r, 1e-30)  # keeps the Q terms finite, and 0 where Q = 0
    w = qv.conj() / safe
    g1 = p1 + (w * q1).real
    g2 = p2 + (w * q2).real + (w * q1).imag ** 2 / safe
    return pv + r, g1, g2, qv


def _snap(x: np.ndarray, step: float) -> np.ndarray:
    """Angles within rounding (1e-12) of a multiple of `step` set to it, so an
    optimum on a sample angle, such as pi/8 or 0, comes out exact."""
    k = np.round(x / step)
    return np.where(np.abs(x - k * step) <= 1e-12, k * step, x)


def _solve_one_plate(problem: SynthesisProblem, delta: float):
    """Exact optimum of one plate of retardance `delta`.

    The kernel's fidelity F has degree 4 in theta = 2*chi, so 16 samples give
    its Fourier coefficients exactly.  With the source phase free, F also has
    degree 1 in phi, so 4 phase samples split it as P(theta) +
    Re(Q(theta) e^{i phi}): the best phase is -arg Q and the envelope over the
    phase is G = P + |Q|.  G is sampled finely, and Newton steps on its exact
    derivatives refine every local maximum of the samples.  Where G is flat
    the one candidate is theta = 0, and where F does not depend on the phase
    its phase is 0, the smallest canonical parameters of a tie.

    Returns ([(fidelity, canonical parameters), ...], kernel samples taken).
    """
    _, _, chi, chi_phase, dft, grid, basis = _series_tables()
    if problem.optimize_source_phase:
        f = _fidelity(problem, (delta,), chi_phase).reshape(_THETA_SAMPLES, 4)
        p_samples = f.mean(axis=1)
        q_samples = 0.5 * ((f[:, 0] - f[:, 2]) + 1j * (f[:, 3] - f[:, 1]))
    else:
        f = p_samples = _fidelity(problem, (delta,), (chi,))
        q_samples = np.zeros(_THETA_SAMPLES)
    p, q = dft @ p_samples, dft @ q_samples

    step = _TWO_PI / _ENVELOPE_SAMPLES
    g = _envelope(p, q, grid, basis)[0]
    if g.max() - g.min() <= _TIE_TOL:
        t = np.zeros(1)  # every theta ties: the smallest one
    else:
        ring = np.concatenate((g[-1:], g, g[:1]))  # each sample between its neighbours
        t = grid[(g >= ring[:-2]) & (g >= ring[2:])]
        for _ in range(_NEWTON_STEPS):
            _, g1, g2, _ = _envelope(p, q, t)
            # a step only where G is concave, and never past a sample spacing
            dt = (-g1 / np.where(g2 < 0, g2, -np.inf)).clip(-step, step)
            t = t + dt
            if np.abs(dt).max() <= 1e-12:
                break
    t = _snap(t, step)
    values, _, _, qv = _envelope(p, q, t)
    columns = [optics.wrap(0.5 * t, math.pi)]
    if problem.optimize_source_phase:
        # F spans 2|Q| over the phase; within the tie tolerance every phase ties
        tied = 2.0 * np.abs(qv) <= _TIE_TOL
        values = np.where(tied, values - np.abs(qv) + qv.real, values)
        columns.append(optics.wrap(_snap(np.where(tied, 0.0, -np.angle(qv)), step), _TWO_PI))
    params = np.stack(columns, axis=-1)
    return list(zip(values.tolist(), map(tuple, params.tolist()))), f.size


def _derivative_weights(degree: int):
    """Weights on the samples f(2*pi*j/n), j = 0..n-1 with n = 2*degree + 1,
    of a trigonometric polynomial of that degree that give f'(0) and f''(0)
    exactly (the derivatives of its interpolating series)."""
    n = 2 * degree + 1
    t = np.arange(n) * (_TWO_PI / n)
    k = np.arange(1, degree + 1)[:, None]
    first = (2.0 / n) * (k * np.sin(k * t)).sum(axis=0)
    second = (-2.0 / n) * (k * k * np.cos(k * t)).sum(axis=0)
    return first, second


@functools.lru_cache(maxsize=32)
def _stencil(periods: tuple, degree: tuple):
    """Sample offsets, and the linear maps from their fidelities to the exact
    gradient and Hessian, for the parameter layout (`_layout`) with these
    periods and degrees.  Built once per layout; the arrays are read-only.

    Derivatives are taken in scaled parameters t: theta = 2*chi for a plate
    angle, and a free retardance or the source phase as it is.  The fidelity
    is a trigonometric polynomial of degree w_i in t_i (4 per plate angle, 2
    per free retardance, 1 for the phase), so along u = e_i or e_i + e_j it
    has degree w_i (+ w_j) and 2w + 1 samples over a period give its first
    two derivatives along u (`_derivative_weights`).  The mixed derivative
    is H_ij = (D_u^2 - H_ii - H_jj) / 2 for u = e_i + e_j.

    Returns (scale, offsets, grad_map, hess_map): parameter radians per unit
    of t, the M offsets of the samples around a centre, and the (1 + M, d)
    and (1 + M, d * d) maps applied to [f(centre), f(centre + offsets)].
    """
    scale = np.array(periods) / _TWO_PI
    dims = len(scale)
    directions = [(i,) for i in range(dims)] + list(combinations(range(dims), 2))
    degrees = [sum(degree[i] for i in u) for u in directions]
    # rows: the centre, then 2w samples along each direction in turn
    width = 1 + 2 * sum(degrees)
    offsets = np.zeros((width - 1, dims))
    first, second = np.zeros((2, len(directions), width))
    lo = 1
    for r, (u, w) in enumerate(zip(directions, degrees)):
        hi = lo + 2 * w
        t = np.arange(1, 2 * w + 1) * (_TWO_PI / (2 * w + 1))
        offsets[lo - 1 : hi - 1, list(u)] = np.outer(t, scale[list(u)])
        first[r, np.r_[0, lo:hi]], second[r, np.r_[0, lo:hi]] = _derivative_weights(w)
        lo = hi
    hess = np.zeros((dims, dims, width))
    hess[range(dims), range(dims)] = second[:dims]
    for r, (i, j) in enumerate(directions[dims:], start=dims):
        hess[i, j] = hess[j, i] = 0.5 * (second[r] - second[i] - second[j])
    return _read_only(scale, offsets, first[:dims].T, hess.reshape(dims * dims, width).T)


def _derivatives(problem: SynthesisProblem, assignment: tuple, stencil, x, f):
    """Exact gradient and Hessian in the scaled parameters at the rows of x,
    whose fidelities are f, from one kernel call over their stencils.

    Returns (gradients, Hessians, kernel evaluations)."""
    scale, offsets, grad_map, hess_map = stencil
    dims = len(scale)
    samples = _grid_fidelities(problem, assignment, (x[:, None, :] + offsets).reshape(-1, dims))
    v = np.concatenate([f[:, None], samples.reshape(len(x), -1)], axis=1)
    return v @ grad_map, (v @ hess_map).reshape(-1, dims, dims), samples.size


def _refine(problem: SynthesisProblem, assignment: tuple, starts, values, refine_tol: float):
    """Newton ascent from every start at once, on exact derivatives.

    Each step samples the `_stencil` around every active start in one kernel
    call and takes the saddle-free Newton step V diag(1/|lambda|) V^T g of
    the Hessian's eigen-decomposition, its |lambda| floored and its largest
    scaled component clipped to the trust radius.  A backtracking line search
    halves the step until the fidelity does not drop.  A start stops once its
    step, proposed or halved, is <= refine_tol radians in every parameter
    (that step is not tried), when no halving qualifies, or at the step cap.

    Returns (points, fidelities, kernel evaluations).
    """
    stencil = _stencil(*_layout(problem, assignment))
    scale = stencil[0]
    x, f = np.array(starts, dtype=float), np.array(values, dtype=float)
    active = np.arange(len(x))
    evaluations = 0
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        xa, fa = x[active], f[active]
        grad, hess, n = _derivatives(problem, assignment, stencil, xa, fa)
        evaluations += n
        lam, vec = np.linalg.eigh(hess)
        coef = np.einsum("sij,si->sj", vec, grad) / np.maximum(np.abs(lam), _CURVATURE_FLOOR)
        step = np.einsum("sij,sj->si", vec, coef)
        largest = np.abs(step).max(axis=1, keepdims=True)
        step *= np.minimum(1.0, _TRUST_RADIUS / np.maximum(largest, 1e-300))
        dx = step * scale
        moved = np.zeros(len(active), dtype=bool)
        pending = np.arange(len(active))
        for _ in range(_HALVINGS):
            # a step at or below the tolerance would end the start anyway
            pending = pending[np.abs(dx[pending]).max(axis=1) > refine_tol]
            if not pending.size:
                break
            trial = xa[pending] + dx[pending]
            ft = _grid_fidelities(problem, assignment, trial)
            evaluations += ft.size
            ok = ft >= fa[pending]
            taken = pending[ok]
            x[active[taken]], f[active[taken]] = trial[ok], ft[ok]
            moved[taken] = True
            pending = pending[~ok]
            dx[pending] *= 0.5
        # every step taken exceeded the tolerance; the rest ended their start
        active = active[moved]
    return x, f, evaluations


def _search(problem: SynthesisProblem, assignment: tuple, density: int, refine_tol: float, rng):
    """Grid search plus Newton refinement of one plate assignment.

    Returns ([(fidelity, canonical parameters), ...], kernel evaluations)."""
    periods, _ = _layout(problem, assignment)
    dims = len(periods)
    if density**dims <= _MAX_GRID_POINTS:
        points = _grid(periods, density)
    else:  # seeded random points, drawn afresh for every search
        points = rng.uniform(0.0, 1.0, (_MAX_GRID_POINTS, dims)) * periods
    values = _grid_fidelities(problem, assignment, points)
    evaluations = len(points)

    best_val = values.max()
    # tie-break grid ties toward the smallest canonical parameters
    tied = np.flatnonzero(values >= best_val - _TIE_TOL)
    first = tied[np.lexsort(optics.wrap(points[tied], periods).T[::-1])[0]]
    # the other starts: the best points in a stable descending sort
    # (grid points are distinct)
    fourth = np.partition(values, len(values) - 4)[len(values) - 4]
    head = np.flatnonzero(values >= fourth)
    head = head[np.argsort(-values[head], kind="stable")[:4]]
    starts = [first] + [i for i in head if i != first][:3]

    refined, fidelities, n = _refine(
        problem, assignment, points[starts], values[starts], refine_tol
    )
    found = [(best_val, _canonical(periods, points[first]))]
    found += [(float(v), _canonical(periods, p)) for v, p in zip(fidelities, refined)]
    return found, evaluations + n


def check_grid_density(grid_density: int) -> None:
    """Reject a grid density outside 8.._MAX_GRID_POINTS with ValueError."""
    if grid_density < 8:
        raise ValueError(f"grid density must be >= 8, got {grid_density}")
    if grid_density > _MAX_GRID_POINTS:
        raise ValueError(f"grid density must be <= {_MAX_GRID_POINTS}, got {grid_density}")


def check_refine_tol(refine_tol: float) -> None:
    """Reject a refinement tolerance that is not finite and > 0 with ValueError."""
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise ValueError(f"refinement tolerance must be finite and > 0, got {refine_tol}")


def synthesize(
    problem: SynthesisProblem,
    grid_density: int = 16,
    refine_tol: float = 1e-8,
    seed: int = 0,
) -> SynthesisResult:
    """Best plate settings for `problem`; deterministic for fixed inputs.

    Assignments of retardances to plates are walked in `itertools.product`
    order over `problem.retardances`.  Each assignment of one plate with a
    fixed retardance is solved in closed form from 16 kernel samples (64
    with the source phase free).  Every other assignment runs the grid
    search plus Newton refinement, the only path that `grid_density`,
    `refine_tol` and `seed` act on (all three are checked either way; `seed`
    must be a non-negative integer).  Refinement stops a start, untried, once
    its step is <= `refine_tol` radians in every parameter.  `evaluations`
    counts kernel samples of the assignments walked: the closed form's, grid
    points, and the refinement's stencil and line-search samples.

    Both paths return every candidate they refined, and the one tie-break is
    here: among candidates within 1e-12 of the best fidelity, the earliest
    assignment wins, then the smallest canonical parameters.  The walk stops
    after the first assignment whose best candidate reaches `fidelity_bound`
    within the tie tolerance: later ones could at best tie, and a tie goes
    to the earlier assignment.

    Returns the best plate sequence found; a low fidelity is a valid answer
    (see `reachability_report`).  The reported fidelity is the kernel's value
    at the returned settings, one call not counted in `evaluations`; it
    matches the lift-and-apply of the optics pipeline to rounding.
    """
    check_grid_density(grid_density)
    check_refine_tol(refine_tol)
    check_seed(seed)
    rng = None  # made on the first search: the closed form needs no numpy.random
    evaluations = 0
    # a retuned source phase moves the input along its SU(2) orbit: P still serves
    bound = fidelity_bound(problem.input_state, problem.target)
    candidates = []  # (fidelity, assignment_index, canonical params, assignment)
    # the retardances are distinct, so every assignment is walked once
    for a_idx, assignment in enumerate(product(problem.retardances, repeat=problem.budget)):
        if problem.budget == 1 and assignment[0] != FREE:
            found, n = _solve_one_plate(problem, assignment[0])
        else:
            if rng is None:
                rng = np.random.default_rng(seed)
            found, n = _search(problem, assignment, grid_density, refine_tol, rng)
        evaluations += n
        candidates += [(value, a_idx, params, assignment) for value, params in found]
        # no later assignment beats the bound, so it can at best tie, and ties
        # go to the smaller index: the rest would not change the answer
        if max(value for value, _ in found) >= bound - _TIE_TOL + _BOUND_MARGIN:
            break

    top = max(c[0] for c in candidates)
    eligible = [c for c in candidates if c[0] >= top - _TIE_TOL]
    eligible.sort(key=lambda c: (c[1], c[2]))
    _, _, params, assignment = eligible[0]
    plates, phase = _decode(problem, assignment, params)
    plate_specs = tuple(PlateSpec(delta, chi) for delta, chi in plates)
    fidelity = float(_fidelity(problem, assignment, params))
    return SynthesisResult(plate_specs, phase, fidelity, evaluations, bound)


def reachability_report(problem: SynthesisProblem, result: SynthesisResult) -> str:
    """'reachable' when the result's fidelity clears 1 - 1e-6, else 'approximate'."""
    return "reachable" if result.fidelity > REACHABLE_THRESHOLD else "approximate"
