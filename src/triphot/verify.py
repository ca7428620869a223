"""Self-check suites behind the `triphot verify` command.

Each check returns its worst residual and tolerance so the command can print
one line per suite and fail loudly when a build breaks a convention (the
quarter-wave pin point is the canary for the retarder sign).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import experiment, observables, optics
from .experiment import ExperimentConfig, SourceSpec
from .optics import PlateSpec

# Frozen value of the quarter-wave law at chi=pi/8, phi=pi/2, the point that
# pins the retarder sign convention: 3/8 + sqrt(2)/4.
QWP_PIN_CHI = np.pi / 8
QWP_PIN_PHI = np.pi / 2
QWP_PIN_VALUE = 0.7285533905932737

# Largest --grid and --samples `run_checks` accepts.  Peaks at the caps under
# tracemalloc: about 32 MB per grid suite, 80 / 70 / 45 MB for the lift
# oracle / homomorphism / P-invariance suites.
MAX_GRID = 1001
MAX_SAMPLES = 10**5


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def _symmetric_restriction(j: np.ndarray) -> np.ndarray:
    """Independent route to the pair operator: j (x) j cut to the symmetric
    subspace in the basis {e_xx, (e_xy + e_yx)/sqrt(2), e_yy}, for a stack
    [..., 2, 2] of Jones matrices."""
    r = 1.0 / np.sqrt(2.0)
    basis = np.array([[1.0, 0.0, 0.0], [0.0, r, 0.0], [0.0, r, 0.0], [0.0, 0.0, 1.0]])
    kron = np.einsum("...ik,...jl->...ijkl", j, j).reshape(*j.shape[:-2], 4, 4)
    return basis.T @ kron @ basis


def _fock_weight(delta: float, analysis: str, chis, phis: np.ndarray) -> np.ndarray:
    """One Fock weight behind a plate, read off `predict_rate` on the ideal
    default source and detectors: |c2|^2 directly, |c1|^2/2 and |c3|^2/2
    behind the x and y analysis blocks.  Shape (len(chis), len(phis))."""
    scale = 1.0 if analysis == "none" else 2.0
    cfg = ExperimentConfig(SourceSpec(), PlateSpec(delta, 0.0), analysis)
    return np.array([scale * experiment.predict_rate(cfg, phi=phis, chi=chi) for chi in chis])


def check_half_wave_grid(grid: int = 101) -> CheckResult:
    chis = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid)
    laws = experiment.hwp_law(chis[:, None], phis[None, :])
    residual = max(
        float(np.max(np.abs(_fock_weight(np.pi, analysis, chis, phis) - law)))
        for analysis, law in zip(("x", "none", "y"), laws)
    )
    return CheckResult("half-wave closed form grid", residual, 1e-12)


def check_quarter_wave_grid(grid: int = 101) -> CheckResult:
    chis = np.linspace(0.0, np.pi, grid)
    phis = np.linspace(0.0, 2.0 * np.pi, grid)
    probs = _fock_weight(np.pi / 2, "none", chis, phis)
    law = experiment.qwp_law(chis[:, None], phis[None, :])
    return CheckResult("quarter-wave closed form grid", float(np.max(np.abs(probs - law))), 1e-12)


def check_quarter_wave_pin() -> CheckResult:
    pipeline = _fock_weight(np.pi / 2, "none", [QWP_PIN_CHI], np.array([QWP_PIN_PHI]))[0, 0]
    law = experiment.qwp_law(QWP_PIN_CHI, QWP_PIN_PHI)
    residual = max(abs(pipeline - law), abs(pipeline - QWP_PIN_VALUE))
    return CheckResult("quarter-wave convention pin (chi=pi/8, phi=pi/2)", float(residual), 1e-12)


def haar_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random 2x2 unitaries, shape (n, 2, 2): QR of a complex Gaussian
    with R's diagonal phases moved into Q.  Same draws, draw for draw, as
    scipy.stats.unitary_group.rvs(2, size=n, random_state=rng)."""
    z = 1 / math.sqrt(2) * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    return q * (d / abs(d))[..., np.newaxis, :]


def check_lift_oracle(samples: int = 1000, seed: int = 12345) -> CheckResult:
    js = haar_unitaries(np.random.default_rng(seed), samples)
    residual = float(np.max(np.abs(optics.lift(js) - _symmetric_restriction(js))))
    return CheckResult("pair-lift tensor oracle", residual, 1e-12)


def check_lift_homomorphism(samples: int = 1000, seed: int = 54321) -> CheckResult:
    j1, j2 = haar_unitaries(np.random.default_rng(seed), 2 * samples).reshape(2, samples, 2, 2)
    residual = np.max(np.abs(optics.lift(j2 @ j1) - optics.lift(j2) @ optics.lift(j1)))
    return CheckResult("pair-lift homomorphism", float(residual), 1e-12)


def check_p_invariance(samples: int = 1000, seed: int = 2024) -> CheckResult:
    """Haar unitaries stand for every lossless plate sequence: any SU(2)
    element is a quarter-, half-, quarter-wave plate triple."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(samples, 3)) + 1j * rng.normal(size=(samples, 3))
    states = z / np.linalg.norm(z, axis=-1, keepdims=True)
    moved = (optics.lift(haar_unitaries(rng, samples)) @ states[..., np.newaxis])[..., 0]
    p = observables.degree_of_polarization
    residual = float(np.max(abs(p(moved) - p(states))))
    return CheckResult("polarization-degree invariance under plates", residual, 1e-10)


def run_checks(grid: int = 101, samples: int = 1000, seed: int = 12345) -> list[CheckResult]:
    if not (2 <= grid <= MAX_GRID):
        raise ValueError(f"grid must be in 2..{MAX_GRID} (--grid), got {grid}")
    if not (1 <= samples <= MAX_SAMPLES):
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES} (--samples), got {samples}")
    experiment.check_seed(seed)
    return [
        check_half_wave_grid(grid),
        check_quarter_wave_grid(grid),
        check_quarter_wave_pin(),
        check_lift_oracle(samples, seed),
        check_lift_homomorphism(samples, seed + 1),
        check_p_invariance(samples, seed + 2),
    ]
