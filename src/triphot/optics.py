"""Jones calculus for polarization elements and its action on photon pairs.

Single-photon elements are 2x2 complex Jones matrices acting on (ex, ey)
columns.  Their action on a photon pair is the symmetric lift: a 3x3 matrix
over the ordered basis (|2,0>, |1,1>, |0,2>).  Lifted lossless elements form
the three-dimensional image of SU(2) inside SU(3); general SU(3) elements are
produced by exponentiating Gell-Mann generators.

Retarder phase convention (frozen): the polarization component along the
plate axis (angle chi from x) leads by the retardance delta,

    J(delta, chi) = R(chi) @ diag(e^{+i delta/2}, e^{-i delta/2}) @ R(-chi).

The opposite sign fails the quarter-wave interference law at chi=pi/8,
phi=pi/2; a regression test pins this choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conventions import RETARDANCE_NAMES, TRIT_LABELS
from .errors import NonUnitaryOperatorError
from . import qutrit
from .qutrit import _SQRT2

UNITARY_TOL = 1e-10
_TWO_PI = 2.0 * np.pi


def retarder(delta: float, chi: float) -> np.ndarray:
    """Jones matrix of a retardation plate (retardance delta, axis angle chi)."""
    d = np.diag([np.exp(0.5j * delta), np.exp(-0.5j * delta)])
    return rotator(chi) @ d @ rotator(-chi)


def half_wave(chi: float) -> np.ndarray:
    return retarder(RETARDANCE_NAMES["half"], chi)


def quarter_wave(chi: float) -> np.ndarray:
    return retarder(RETARDANCE_NAMES["quarter"], chi)


def rotator(theta: float) -> np.ndarray:
    """Polarization rotator by theta: 2x2 rotation whose columns are the
    rotated x and y axes."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def wrap(value, period: float):
    """value, a float or an array, reduced to [0, period).  `%` rounds a tiny
    negative value up to the period itself; that remainder folds onto 0."""
    value = value % period
    return value - period * (value == period)


def polarizer(axis: str) -> np.ndarray:
    """Ideal linear polarizer passing the x or y component (contractive)."""
    if axis == "x":
        return np.diag([1.0 + 0j, 0.0])
    if axis == "y":
        return np.diag([0.0, 1.0 + 0j])
    raise ValueError(f"polarizer axis must be 'x' or 'y', got {axis!r}")


@dataclass(frozen=True)
class PlateSpec:
    """A retardation plate: retardance and axis angle, canonicalized to
    delta in [0, 2*pi), chi in [0, pi)."""

    retardance: float
    angle: float

    def __post_init__(self):
        for name, period in (("retardance", _TWO_PI), ("angle", np.pi)):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, wrap(float(value), period))

    @classmethod
    def half(cls, chi: float) -> "PlateSpec":
        return cls(RETARDANCE_NAMES["half"], chi)

    @classmethod
    def quarter(cls, chi: float) -> "PlateSpec":
        return cls(RETARDANCE_NAMES["quarter"], chi)


def lift(j: np.ndarray) -> np.ndarray:
    """Symmetric lift of a 2x2 Jones matrix, or of a stack [..., 2, 2] of
    them, to the photon-pair space ([..., 3, 3]).

    For j = [[a, b], [c, d]] the lift equals the restriction of the tensor
    product j (x) j to the symmetric subspace in the normalized basis
    {e_xx, (e_xy + e_yx)/sqrt(2), e_yy}.  The map is a homomorphism and sends
    unitaries to unitaries.
    """
    j = np.asarray(j, dtype=complex)
    if j.shape[-2:] != (2, 2):
        raise ValueError(f"Jones matrix must be 2x2 or a stack of 2x2, got shape {j.shape}")
    # One matrix unpacks to numpy scalars, the cheap path for per-point callers.
    single = j.ndim == 2
    a, b, c, d = j.flat if single else np.moveaxis(j.reshape(*j.shape[:-2], 4), -1, 0)
    g = np.array(lift_entries(a, b, c, d))
    return g if single else np.moveaxis(g, (0, 1), (-2, -1))


def lift_entries(a, b, c, d) -> tuple:
    """The lift of [[a, b], [c, d]] as three rows of three entries.

    Only elementwise arithmetic is used, so the entries may be scalars or
    arrays of one shape, and each lifted entry takes that shape.
    """
    return (
        (a * a, _SQRT2 * a * b, b * b),
        (_SQRT2 * a * c, a * d + b * c, _SQRT2 * b * d),
        (c * c, _SQRT2 * c * d, d * d),
    )


def is_unitary(g: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    g = np.asarray(g, dtype=complex)
    return bool(np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0]))) <= tol)


def apply(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply a unitary pair operator to a state; renormalizes defensively.

    Raises NonUnitaryOperatorError for non-unitary operators; route lossy maps
    (polarizers, unequal transmissions) through `apply_conditioned` instead.
    """
    g = np.asarray(g, dtype=complex)
    s = qutrit.require_normalized(s)
    if not is_unitary(g):
        raise NonUnitaryOperatorError(
            "operator is not unitary; use apply_conditioned for lossy maps"
        )
    out = g @ s
    return out / np.sqrt(float(np.vdot(out, out).real))


def apply_conditioned(g: np.ndarray, s: np.ndarray):
    """Apply a contractive pair operator; returns (state or None, survival).

    `survival` is the pair survival probability |g s|^2.  When it is
    numerically zero the state slot is None: no pair ever emerges.
    """
    g = np.asarray(g, dtype=complex)
    s = qutrit.require_normalized(s)
    opnorm = float(np.linalg.norm(g, 2))
    if opnorm > 1.0 + 1e-12:
        raise ValueError(f"operator norm {opnorm} exceeds 1; not a lossy/lossless element")
    out = g @ s
    survival = float(np.vdot(out, out).real)
    if survival < 1e-30:
        return None, survival
    return out / np.sqrt(survival), survival


# Gell-Mann matrices, standard ordering.
GELL_MANN = (
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / np.sqrt(3.0),
)


def su3_exp(params) -> np.ndarray:
    """SU(3) element exp(i * sum_k params[k] * lambda_k).

    Computed by eigendecomposition of the Hermitian generator, so unitarity
    and unit determinant hold to machine precision.
    """
    params = np.asarray(params, dtype=float)
    if params.shape != (8,):
        raise ValueError(f"expected 8 generator coefficients, got shape {params.shape}")
    if not np.all(np.isfinite(params)):
        raise ValueError("generator coefficients must be finite")
    h = sum(t * lam for t, lam in zip(params, GELL_MANN))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


# The trit basis (plus, minus, zero) as columns, times diag(1, i, i).  On this
# frame the lift of every 2x2 unitary is a global phase times a real rotation:
# the spin-1 representation of SU(2) is SO(3).
REAL_FRAME = np.column_stack([qutrit.trit_basis(label) for label in TRIT_LABELS]) * [1, 1j, 1j]


def is_in_plate_subgroup(g: np.ndarray) -> bool:
    """Whether a unitary pair operator is the lift of some 2x2 unitary.

    Plates realize only that subgroup of U(3), which on `REAL_FRAME` F acts
    as a global phase times SO(3).  So g belongs exactly when F^dag g F,
    divided by the phase of its largest entry, is real: every imaginary part
    below 1e-9.  A real unitary is orthogonal, and one of determinant -1 is a
    rotation times -1, the lift of i times the identity, so it belongs too.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (3, 3):
        raise ValueError(f"pair operator must be 3x3, got shape {g.shape}")
    if not is_unitary(g, 1e-9):
        raise NonUnitaryOperatorError("subgroup test expects a unitary operator")
    m = REAL_FRAME.conj().T @ g @ REAL_FRAME
    pivot = m.flat[np.argmax(np.abs(m))]
    return bool(np.max(np.abs((m * (abs(pivot) / pivot)).imag)) < 1e-9)
