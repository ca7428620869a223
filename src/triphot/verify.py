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

# Largest --grid and --samples `run_checks` accepts: at the caps a grid suite
# peaks at about 32 MB under tracemalloc and the lift oracle at about 29 MB.
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
    subspace in the basis {e_xx, (e_xy + e_yx)/sqrt(2), e_yy}."""
    basis = np.zeros((4, 3), dtype=complex)
    basis[0, 0] = 1.0
    basis[1, 1] = basis[2, 1] = 1.0 / np.sqrt(2.0)
    basis[3, 2] = 1.0
    return basis.conj().T @ np.kron(j, j) @ basis


def _fock_weight(delta: float, analysis: str, chis, phis: np.ndarray) -> np.ndarray:
    """One Fock weight behind a plate, read off `predict_rate` on the ideal
    default source and detectors: |c2|^2 directly, |c1|^2/2 and |c3|^2/2
    behind the x and y analysis blocks.  Shape (len(chis), len(phis))."""
    scale = 1.0 if analysis == "none" else 2.0
    cfgs = (ExperimentConfig(SourceSpec(), PlateSpec(delta, chi), analysis) for chi in chis)
    return np.array([scale * experiment.predict_rate(cfg, phi=phis) for cfg in cfgs])


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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for j in haar_unitaries(rng, samples):
        worst = max(worst, float(np.max(np.abs(optics.lift(j) - _symmetric_restriction(j)))))
    return CheckResult("pair-lift tensor oracle", worst, 1e-12)


def check_lift_homomorphism(samples: int = 1000, seed: int = 54321) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        j1, j2 = haar_unitaries(rng, 2)
        worst = max(
            worst,
            float(np.max(np.abs(optics.lift(j2 @ j1) - optics.lift(j2) @ optics.lift(j1)))),
        )
    return CheckResult("pair-lift homomorphism", worst, 1e-12)


def random_state(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z / np.sqrt(float(np.vdot(z, z).real))


def random_plate_sequence(rng: np.random.Generator, max_plates: int = 5) -> np.ndarray:
    g = np.eye(3, dtype=complex)
    for _ in range(int(rng.integers(1, max_plates + 1))):
        if rng.random() < 0.8:
            j = optics.retarder(rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.0, np.pi))
        else:
            j = optics.rotator(rng.uniform(0.0, np.pi))
        g = optics.lift(j) @ g
    return g


def check_p_invariance(samples: int = 1000, seed: int = 2024) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        s = random_state(rng)
        g = random_plate_sequence(rng)
        p_before = observables.degree_of_polarization(s)
        p_after = observables.degree_of_polarization(optics.apply(g, s))
        worst = max(worst, abs(p_after - p_before))
    return CheckResult("polarization-degree invariance under plates", worst, 1e-10)


def run_checks(grid: int = 101, samples: int = 1000, seed: int = 12345) -> list[CheckResult]:
    if not (2 <= grid <= MAX_GRID):
        raise ValueError(f"grid must be in 2..{MAX_GRID} (--grid), got {grid}")
    if not (1 <= samples <= MAX_SAMPLES):
        raise ValueError(f"samples must be in 1..{MAX_SAMPLES} (--samples), got {samples}")
    return [
        check_half_wave_grid(grid),
        check_quarter_wave_grid(grid),
        check_quarter_wave_pin(),
        check_lift_oracle(samples, seed),
        check_lift_homomorphism(samples, seed + 1),
        check_p_invariance(samples, seed + 2),
    ]
