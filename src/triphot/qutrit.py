"""Polarization qutrit of a collinear photon pair.

A photon pair sharing one spatial mode with two polarization modes spans a
three-dimensional space.  The Fock basis is |2,0>, |1,1>, |0,2>, where
|Nx,Ny> holds Nx photons polarized along x (horizontal) and Ny along y
(vertical).  States are plain complex numpy vectors of length 3 holding the
amplitudes (c1, c2, c3) over that basis, normalized at construction.

The trit basis consists of the three pair states built from orthogonally
polarized photons:

    psi_plus  = (|2,0> + |0,2>)/sqrt(2)   one right- and one left-circular photon
    psi_minus = (|2,0> - |0,2>)/sqrt(2)   photons linear at +45 and -45 degrees
    psi_zero  = |1,1>                     one x and one y photon

Ternary digits are assigned as plus -> 0, minus -> 1, zero -> 2; the mapping
(`TRIT_DIGITS`, defined in `conventions`) is fixed for the whole package.

Global phase carries no physics.  States keep their concrete phase so linear
algebra stays exact; use `fidelity`/`states_equal` for phase-blind comparison.
"""

from __future__ import annotations

import math

import numpy as np

from .conventions import TRIT_DIGITS, TRIT_LABELS  # noqa: F401  (TRIT_DIGITS re-exported)
from .errors import ZeroStateError

# Largest deviation of a squared norm from 1 that a state check accepts.
NORM_TOL = 1e-10
_ZERO_NORM_SQ = 1e-30

_SQRT2 = np.sqrt(2.0)


def make_state(c1: complex, c2: complex, c3: complex) -> np.ndarray:
    """Normalize amplitudes (c1, c2, c3) into a unit state vector.  Rejects
    non-finite amplitudes, a (near-)zero norm (ZeroStateError) and a squared
    norm past the float range."""
    c = np.array([c1, c2, c3], dtype=complex)
    if not np.all(np.isfinite(c.view(float))):
        raise ValueError("amplitudes must be finite")
    nsq = float(np.vdot(c, c).real)
    if nsq <= _ZERO_NORM_SQ:
        raise ZeroStateError("cannot normalize a (near-)zero amplitude triple")
    if nsq == math.inf:
        raise ValueError("squared norm of the amplitude triple overflows a float; scale it down")
    return c / np.sqrt(nsq)


def fock_basis(k: int) -> np.ndarray:
    """Return |2,0>, |1,1> or |0,2> for k = 0, 1, 2."""
    if k not in (0, 1, 2):
        raise IndexError(f"Fock basis index must be 0, 1 or 2, got {k!r}")
    e = np.zeros(3, dtype=complex)
    e[k] = 1.0
    return e


def trit_basis(label: str) -> np.ndarray:
    """Return the trit basis state for label 'plus', 'minus' or 'zero'."""
    if label == "plus":
        return np.array([1.0, 0.0, 1.0], dtype=complex) / _SQRT2
    if label == "minus":
        return np.array([1.0, 0.0, -1.0], dtype=complex) / _SQRT2
    if label == "zero":
        return np.array([0.0, 1.0, 0.0], dtype=complex)
    raise ValueError(f"unknown trit label {label!r}, expected one of {TRIT_LABELS}")


def require_normalized(s: np.ndarray) -> np.ndarray:
    """Validate that `s` is a unit 3-vector; returns it as a complex array."""
    s = np.asarray(s, dtype=complex)
    if s.shape != (3,):
        raise ValueError(f"state must be a length-3 vector, got shape {s.shape}")
    # written so that a NaN norm fails the test too
    if not abs(float(np.vdot(s, s).real) - 1.0) <= NORM_TOL:
        raise ValueError("state is not normalized")
    return s


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Hermitian inner product <a|b> of two normalized states."""
    a = require_normalized(a)
    b = require_normalized(b)
    return complex(np.vdot(a, b))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2, invariant under global phases of either state."""
    return abs(overlap(a, b)) ** 2


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> bool:
    """Phase-blind equality: true when the fidelity deviates from 1 by < tol."""
    return abs(fidelity(a, b) - 1.0) < tol
