"""Stokes parameters, correlation functions and detection probabilities.

Stokes parameters are expectations of the photon-number operators
(nx + ny, nx - ny, the +/-45 degree pair, the circular pair), so s0 = 2 for
every pair state.  The degree of polarization P is the reduced 3-vector norm
over s0; lifted plates and rotators leave it invariant, while two of the Fock
basis states have P = 1 and every trit basis state has P = 0.

Correlators are normally ordered second-order moments: gxy = <nx ny> picks
the |1,1> weight, gxx = <nx(nx-1)> and gyy = <ny(ny-1)> pick twice the |2,0>
and |0,2> weights.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import optics, qutrit
from .conventions import ANALYSIS_HWP_ANGLE
from .qutrit import _SQRT2


class StokesVector(NamedTuple):
    s0: float
    s1: float
    s2: float
    s3: float


class CorrelatorSet(NamedTuple):
    gxy: float
    gxx: float
    gyy: float


def stokes(s: np.ndarray) -> StokesVector:
    """Stokes parameters of a normalized pair state (photon-number units), or
    arrays of them over a [..., 3] numpy stack of states."""
    if getattr(s, "ndim", 1) > 1:
        return _stack_stokes(s)
    c1, c2, c3 = qutrit.require_normalized(s)
    cross = np.conj(c1) * c2 + np.conj(c2) * c3
    return StokesVector(
        s0=2.0,
        s1=2.0 * (abs(c1) ** 2 - abs(c3) ** 2),
        s2=2.0 * _SQRT2 * cross.real,
        s3=2.0 * _SQRT2 * cross.imag,
    )


def _stack_stokes(s: np.ndarray) -> StokesVector:
    """`stokes` of each state of a [..., 3] stack, after one norm check for
    all of them.  Each value is bit-identical to the one-state call: numpy's
    array abs and complex product round otherwise, so this takes abs as
    hypot, squares as pow and the complex products in real arithmetic."""
    s = np.asarray(s, dtype=complex)
    if s.shape[-1] != 3:
        raise ValueError(f"states must be a [..., 3] stack, got shape {s.shape}")
    weights = np.float_power(np.hypot(s.real, s.imag), 2)
    if not np.all(abs(weights.sum(axis=-1) - 1.0) <= qutrit.NORM_TOL):
        raise ValueError("state is not normalized")
    (x1, x2, x3), (y1, y2, y3) = np.moveaxis(s.real, -1, 0), np.moveaxis(s.imag, -1, 0)
    cross_real = (x1 * x2 + y1 * y2) + (x2 * x3 + y2 * y3)  # conj(c1) c2 + conj(c2) c3
    cross_imag = (x1 * y2 - y1 * x2) + (x2 * y3 - y2 * x3)
    return StokesVector(
        s0=2.0,
        s1=2.0 * (weights[..., 0] - weights[..., 2]),
        s2=2.0 * _SQRT2 * cross_real,
        s3=2.0 * _SQRT2 * cross_imag,
    )


def degree_of_polarization(s: np.ndarray) -> float | np.ndarray:
    """P = |(s1, s2, s3)| / s0, in [0, 1]; an array of them for a [..., 3]
    stack, each bit-identical to the one-state call."""
    v = stokes(s)
    if getattr(s, "ndim", 1) > 1:
        return np.sqrt(sum(np.float_power(x, 2) for x in v[1:])) / v.s0
    return float(np.sqrt(v.s1**2 + v.s2**2 + v.s3**2) / v.s0)


def correlators(s: np.ndarray) -> CorrelatorSet:
    """Normally ordered polarization correlators (gxy, gxx, gyy)."""
    c1, c2, c3 = qutrit.require_normalized(s)
    return CorrelatorSet(
        gxy=abs(c2) ** 2,
        gxx=2.0 * abs(c1) ** 2,
        gyy=2.0 * abs(c3) ** 2,
    )


COINCIDENCE_MODES = ("direct_xy", "analysis_x", "analysis_y")


def coincidence_probability(s: np.ndarray, mode: str, eta1: float, eta2: float) -> float:
    """Probability of a coincidence click for one pair reaching the detectors.

    direct_xy:   the pair meets the polarizing beamsplitter directly; only the
                 |1,1> component splits, so p = gxy * eta1 * eta2.
    analysis_x:  a polarizer passes the x component, a half-wave plate at
                 pi/8 rotates it by 45 degrees, then the beamsplitter; the
                 chain gives p = |c1|^2 / 2 * eta1 * eta2.
    analysis_y:  same with the y polarizer and |c3|^2.

    Detectors do not resolve photon number: two photons on one detector are a
    single click and never a coincidence.
    """
    for name, eta in (("eta1", eta1), ("eta2", eta2)):
        if not (0.0 <= eta <= 1.0):
            raise ValueError(f"{name} must be in [0, 1], got {eta!r}")
    if mode == "direct_xy":
        return correlators(s).gxy * eta1 * eta2
    if mode in ("analysis_x", "analysis_y"):
        proj = optics.lift(optics.polarizer(mode[-1]))
        survivor, survival = optics.apply_conditioned(proj, s)
        if survivor is None:
            return 0.0
        rotated = optics.apply(optics.lift(optics.half_wave(ANALYSIS_HWP_ANGLE)), survivor)
        return survival * correlators(rotated).gxy * eta1 * eta2
    raise ValueError(f"mode must be one of {COINCIDENCE_MODES}, got {mode!r}")


def coherence_length(wavelength: float, bandwidth: float) -> float:
    """Coherence length wavelength^2 / bandwidth of a filtered wavepacket."""
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    return wavelength**2 / bandwidth
