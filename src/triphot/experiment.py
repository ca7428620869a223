"""Model of the two-beam pair-interference apparatus.

Two co-polarized pair sources are joined on a polarizing beamsplitter with a
relative phase phi, producing (|2,0> + e^{i phi} |0,2>)/sqrt(2) in the ideal
case.  A retardation plate under test transforms the state, an optional
analysis block (polarizer plus half-wave plate at pi/8) selects one Fock
amplitude, and two detectors behind a polarizing beamsplitter count
coincidences.  Imperfections enter through per-arm pair amplitude
transmissions (t20, t02), Gaussian jitter of phi (finite mutual coherence),
detector efficiencies and an additive accidental-coincidence rate.

Both an analytic rate predictor and a seeded Monte Carlo counter are
provided, together with the closed-form fringe laws for half- and
quarter-wave plates, sweep generation, period detection and fringe
visibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import optics, qutrit
from .conventions import ANALYSIS_CHOICES, ANALYSIS_HWP_ANGLE
from .errors import DegenerateTableError
from .optics import PlateSpec

# Largest bin count `simulate_counts` accepts: a million bins are two 8 MB
# columns, and `triphot mc` writing them as CSV peaks at about 175 MB RSS.
MAX_BINS = 10**6
# Largest grid `sweep` accepts: about 8 MB per array it builds.
MAX_STEPS = 10**6
# numpy's Poisson sampler rejects a mean above this (its POISSON_LAM_MAX).
POISSON_MEAN_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10


def check_seed(seed) -> None:
    """Require a non-negative integer seed: numpy's own error names no seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _store_floats(spec) -> None:
    """Store the float-annotated fields as plain floats, so a numpy scalar
    passed in writes to YAML and JSON like any other value.  (Annotations
    are strings in this module: `from __future__ import annotations`.)"""
    for field in fields(spec):
        if field.type == "float":
            object.__setattr__(spec, field.name, float(getattr(spec, field.name)))


@dataclass(frozen=True)
class SourceSpec:
    """Joined two-beam pair source.

    phase:        relative phase phi between the |2,0> and |0,2> beams
    t20, t02:     per-arm two-photon amplitude transmissions in [0, 1]
    phase_jitter: standard deviation of Gaussian jitter added to phi
    pair_rate:    surviving pairs per second entering the plate
    """

    phase: float = 0.0
    t20: float = 1.0
    t02: float = 1.0
    phase_jitter: float = 0.0
    pair_rate: float = 1.0

    def __post_init__(self):
        for name in ("t20", "t02"):
            t = getattr(self, name)
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {t!r}")
        # `predict_rate` divides by hypot(t20, t02), which overflows below the normal range
        if math.hypot(self.t20, self.t02) < np.finfo(float).tiny:
            raise ValueError("t20 and t02 cannot both be zero or subnormal")
        if not (0.0 <= self.phase_jitter < math.inf):
            raise ValueError(f"phase_jitter must be finite and >= 0, got {self.phase_jitter!r}")
        if not (0.0 < self.pair_rate < math.inf):
            raise ValueError(f"pair_rate must be finite and > 0, got {self.pair_rate!r}")
        if not np.isfinite(self.phase):
            raise ValueError("phase must be finite")
        _store_floats(self)


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceSpec
    plate: PlateSpec
    analysis: str = "none"
    eta1: float = 1.0
    eta2: float = 1.0
    accidental_rate: float = 0.0

    def __post_init__(self):
        if self.analysis not in ANALYSIS_CHOICES:
            raise ValueError(f"analysis must be one of {ANALYSIS_CHOICES}, got {self.analysis!r}")
        for name in ("eta1", "eta2"):
            eta = getattr(self, name)
            if not (0.0 <= eta <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {eta!r}")
        if not (0.0 <= self.accidental_rate < math.inf):
            raise ValueError(
                f"accidental_rate must be finite and >= 0, got {self.accidental_rate!r}"
            )
        _store_floats(self)
        # bounds every predicted rate; a Python float overflows to inf unwarned
        if self.source.pair_rate * self.eta1 * self.eta2 + self.accidental_rate == math.inf:
            raise ValueError("source.pair_rate * eta1 * eta2 + accidental_rate overflows a float")


@dataclass(frozen=True)
class SweepTable:
    """Rates on a grid of one swept parameter ('phi' or 'chi', radians)."""

    parameter: str
    values: np.ndarray
    rates: np.ndarray
    config: ExperimentConfig

    def __post_init__(self):
        if self.parameter not in ("phi", "chi"):
            raise ValueError(f"parameter must be 'phi' or 'chi', got {self.parameter!r}")
        values = np.asarray(self.values, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        if values.ndim != 1 or values.shape != rates.shape:
            raise ValueError("values and rates must be 1-d arrays of equal length")
        if values.size >= 2 and not np.all(np.diff(values) > 0):
            raise ValueError("parameter values must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "rates", rates)


class _CountFields(NamedTuple):
    t_start: float
    coincidences: int


class CountRecord(_CountFields):
    """One bin of a CountTable, as iterating the table yields it: a named
    tuple (t_start, coincidences), so `for t, c in table` works."""

    __slots__ = ()

    def __new__(cls, t_start: float, coincidences: int):
        if coincidences < 0:
            raise ValueError("coincidences must be nonnegative")
        return super().__new__(cls, t_start, coincidences)


@dataclass(frozen=True, eq=False)
class CountTable:
    """Binned coincidence counts: bin start times (s) and counts per bin.

    Iterating yields one CountRecord per bin, with a plain float and int.
    """

    t_start: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        t_start = np.asarray(self.t_start, dtype=float)
        counts = np.asarray(self.counts)
        if t_start.ndim != 1 or t_start.shape != counts.shape:
            raise ValueError("t_start and counts must be 1-d arrays of equal length")
        if counts.size and counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if counts.size and counts.min() < 0:
            raise ValueError("coincidences must be nonnegative")
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return self.counts.size

    def __iter__(self):
        # __post_init__ checked the counts, so each record skips CountRecord.__new__
        rows = zip(self.t_start.tolist(), self.counts.tolist())
        return map(tuple.__new__, repeat(CountRecord), rows)

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        return np.array_equal(self.t_start, other.t_start) and np.array_equal(
            self.counts, other.counts
        )


def source_state(src: SourceSpec) -> np.ndarray:
    """Pair state leaving the interferometer at the source phase, without jitter."""
    return qutrit.make_state(src.t20, 0.0, src.t02 * np.exp(1j * src.phase))


def hwp_law(chi: float, phi: float):
    """Closed-form Fock weights after a half-wave plate on the source state.

    Returns (|c1|^2, |c2|^2, |c3|^2) with
    |c2|^2 = sin^2(4 chi) sin^2(phi/2) and |c1|^2 = |c3|^2 = (1 - |c2|^2)/2.
    """
    c2sq = np.sin(4.0 * chi) ** 2 * np.sin(phi / 2.0) ** 2
    side = (1.0 - c2sq) / 2.0
    return side, c2sq, side


def qwp_law(chi: float, phi: float) -> float:
    """Closed-form |c2|^2 after a quarter-wave plate on the source state:
    sin^2(2 chi) (cos(phi/2) + cos(2 chi) sin(phi/2))^2."""
    return np.sin(2.0 * chi) ** 2 * (
        np.cos(phi / 2.0) + np.cos(2.0 * chi) * np.sin(phi / 2.0)
    ) ** 2


def predict_rate(
    cfg: ExperimentConfig, phi: float | np.ndarray | None = None, chi: float | None = None
) -> float | np.ndarray:
    """Expected coincidence rate (counts/second), jitter-averaged exactly.

    The plate and the optional analysis block (polarizer, then a half-wave
    plate at pi/8) are composed as Jones matrices and lifted once.  One pair
    with source-phase angle theta then gives a coincidence with probability
    |alpha + beta e^{i theta}|^2 * eta1 * eta2, a single harmonic in theta,
    so Gaussian jitter of width sigma damps the interference term by
    exp(-sigma^2/2).  With sigma = 0 the value equals the deterministic
    pipeline probability times the pair rate, plus accidentals.  `phi`
    overrides the source phase and `chi` the plate angle; an array `phi`
    gives an array of rates from that one lift.
    """
    plate = cfg.plate if chi is None else replace(cfg.plate, angle=chi)
    phase = cfg.source.phase if phi is None else phi
    jones = optics.retarder(plate.retardance, plate.angle)
    if cfg.analysis != "none":
        jones = optics.half_wave(ANALYSIS_HWP_ANGLE) @ optics.polarizer(cfg.analysis) @ jones
    k = optics.lift(jones)
    src = cfg.source
    norm = math.hypot(src.t20, src.t02)
    alpha = k[1, 0] * src.t20 / norm
    beta = k[1, 2] * src.t02 / norm
    damp = math.exp(-0.5 * src.phase_jitter * src.phase_jitter)
    # (1 - damp) * incoherent + damp * coherent part: never negative, so the
    # rate is a valid Poisson mean for `simulate_counts`.
    mean_p = (1.0 - damp) * (abs(alpha) ** 2 + abs(beta) ** 2) + damp * abs(
        alpha + beta * np.exp(1j * phase)
    ) ** 2
    return src.pair_rate * mean_p * cfg.eta1 * cfg.eta2 + cfg.accidental_rate


def sweep(cfg: ExperimentConfig, parameter: str, start: float, stop: float, steps: int) -> SweepTable:
    """Predicted rates on a uniform, endpoint-inclusive grid of phi or chi."""
    if parameter not in ("phi", "chi"):
        raise ValueError(f"parameter must be 'phi' or 'chi', got {parameter!r}")
    if not (2 <= steps <= MAX_STEPS):
        raise ValueError(f"steps must be in 2..{MAX_STEPS} (--steps), got {steps}")
    if not stop > start:
        raise ValueError("stop must exceed start (--start, --stop)")
    # in Python floats, which overflow to inf where numpy would warn
    if not math.isfinite(float(stop) - float(start)):
        raise ValueError(f"span from {start!r} to {stop!r} overflows a float (--start, --stop)")
    values = np.linspace(start, stop, steps)
    if not np.all(values[1:] > values[:-1]):
        raise ValueError(
            f"{steps} steps from {start!r} to {stop!r} repeat a value (--steps, --start, --stop)"
        )
    if parameter == "phi":
        rates = np.array([predict_rate(cfg, phi=v) for v in values])
    else:
        rates = np.array([predict_rate(cfg, chi=v) for v in values])
    return SweepTable(parameter=parameter, values=values, rates=rates, config=cfg)


def simulate_counts(
    cfg: ExperimentConfig, seed: int, duration: float, bin_width: float = 1.0
) -> CountTable:
    """Seeded Monte Carlo of binned coincidence counting.

    Each bin holds Poisson(predict_rate(cfg) * bin_width) coincidences, drawn
    from one generator seeded with `seed`.  This is the exact law of the
    per-pair experiment, not an approximation: the Poisson pair count thinned
    by independent coincidence marks (jitter draw, then Bernoulli) is Poisson
    with mean pair_rate * bin * E[p], and adding independent Poisson
    accidentals keeps it Poisson.  At most MAX_BINS bins are simulated.

    Returns a CountTable whose bin i starts at i * bin_width.
    """
    if not (math.isfinite(duration) and math.isfinite(bin_width)):
        raise ValueError("duration and bin_width must be finite (--duration, --bin)")
    if duration <= 0.0 or bin_width <= 0.0:
        raise ValueError("duration and bin_width must be positive (--duration, --bin)")
    bins = duration / bin_width + 1e-9
    # floor(bins) > MAX_BINS, written so that an infinite quotient is caught
    # before flooring
    if bins >= MAX_BINS + 1:
        raise ValueError(
            f"duration {duration!r} s in bins of {bin_width!r} s exceeds {MAX_BINS} bins "
            "(--duration, --bin)"
        )
    n_bins = math.floor(bins)
    if n_bins < 1:
        raise ValueError("duration shorter than one bin (--duration, --bin)")
    check_seed(seed)
    mean = float(predict_rate(cfg)) * bin_width
    if mean > POISSON_MEAN_MAX:
        raise ValueError(
            f"mean count per bin {mean:.6g} (rate from source.pair_rate, eta1, eta2 and "
            f"accidental_rate, times the bin) exceeds numpy's Poisson limit {POISSON_MEAN_MAX:.6g}"
        )
    # bin i starts at float(i) * bin_width, rounded once, as in i * bin_width
    t_start = np.arange(n_bins, dtype=float)
    t_start *= bin_width
    # Draw only after an array ufunc (the `*=` above).  predict_rate's complex
    # 2x2 `@` runs OpenBLAS's AVX-512 zgemm, which appears to leave the upper
    # vector registers dirty; the Poisson sampler then runs about 5x slower
    # (1e6 draws: 45 -> 239 ms on a 2-vCPU AVX-512 Xeon) until an
    # AVX-dispatched ufunc loop clears that state.  Same generator, same counts.
    counts = np.random.default_rng(seed).poisson(mean, n_bins)
    return CountTable(t_start, counts)


def fundamental_period(rates: np.ndarray, dx: float) -> float:
    """Smallest period of a uniformly sampled signal covering one circular span.

    Uses the circular autocorrelation: the fundamental period is the smallest
    positive lag whose autocorrelation matches the zero-lag value.  The
    samples must cover the circular domain exactly once without the duplicate
    endpoint.  Returns n*dx when no smaller period exists.
    """
    v = np.asarray(rates, dtype=float)
    n = v.size
    if n < 2 or dx <= 0.0:
        raise ValueError("need at least two samples with positive spacing")
    v = v - v.mean()
    power = float(v @ v)
    if power < 1e-300:
        raise DegenerateTableError("constant signal has no period")
    spectrum = np.abs(np.fft.rfft(v)) ** 2
    acf = np.fft.irfft(spectrum, n=n)
    hits = np.nonzero(acf[1:] >= acf[0] * (1.0 - 1e-9))[0]
    lag = int(hits[0]) + 1 if hits.size else n
    return lag * dx


def visibility(table: SweepTable, period: float | None = None) -> float:
    """Fringe visibility (max - min)/(max + min) from a single-harmonic fit.

    A least-squares fit of a0 + a1 cos + b1 sin with the known period is used
    instead of raw extrema so Monte Carlo noise does not bias the result.
    For phi sweeps the period defaults to 2*pi; chi sweeps need an explicit
    period (e.g. from `fundamental_period`).
    """
    if table.values.size == 0:
        raise DegenerateTableError("empty table")
    if period is None:
        if table.parameter != "phi":
            raise ValueError("chi sweeps need an explicit period")
        period = 2.0 * np.pi
    span = float(table.values[-1] - table.values[0])
    if span < period * (1.0 - 1e-9):
        raise ValueError("table must sample at least one full period")
    omega = 2.0 * np.pi / period
    x = table.values
    design = np.column_stack([np.ones_like(x), np.cos(omega * x), np.sin(omega * x)])
    (a0, a1, b1), *_ = np.linalg.lstsq(design, table.rates, rcond=None)
    amplitude = math.hypot(a1, b1)
    vmax, vmin = a0 + amplitude, a0 - amplitude
    if vmax + vmin <= 1e-300:
        raise DegenerateTableError("fitted fringe has zero mean rate")
    return (vmax - vmin) / (vmax + vmin)


def calibrate_loss_for_visibility(v: float) -> float:
    """Arm amplitude ratio r = t02/t20 <= 1 giving fringe visibility v.

    Inverts v = 2r/(1 + r^2): r = (1 - sqrt(1 - v^2))/v.
    """
    if not (0.0 < v <= 1.0):
        raise ValueError(f"visibility must be in (0, 1], got {v!r}")
    return (1.0 - math.sqrt(max(1.0 - v * v, 0.0))) / v
