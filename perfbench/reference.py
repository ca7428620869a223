"""Reference values for output checks, computed off the timed code paths.

The pair operator of a Jones matrix is built here from the tensor product
j (x) j cut to the symmetric subspace, not from `optics.lift`, and jitter is
averaged by Gauss-Hermite quadrature, not by the closed-form damping factor
that `experiment.predict_rate` uses.  Written files are read back with a
minimal parser of the CSV layout, because the package's own readers fail at
this commit (they call the missing `io._parse_retardance`).
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_MAGIC = "# triphot v1"
_SQRT2 = math.sqrt(2.0)
# Columns e_xx, (e_xy + e_yx)/sqrt2, e_yy of the symmetric subspace of C^2 (x) C^2.
_SYM = np.zeros((4, 3))
_SYM[0, 0] = _SYM[3, 2] = 1.0
_SYM[1, 1] = _SYM[2, 1] = 1.0 / _SQRT2
# Probabilists' Gauss-Hermite rule: E[f(sigma Z)] = sum w_i f(sigma x_i).
_GH_X, _GH_W = np.polynomial.hermite_e.hermegauss(40)
_GH_W = _GH_W / math.sqrt(2.0 * math.pi)


def retarder(delta: float, chi) -> np.ndarray:
    """Jones matrix R(chi) diag(e^{i d/2}, e^{-i d/2}) R(-chi), batched over chi."""
    c, s = np.cos(chi), np.sin(chi)
    ep, em = np.exp(0.5j * delta), np.exp(-0.5j * delta)
    j = np.empty(np.shape(chi) + (2, 2), dtype=complex)
    j[..., 0, 0] = c * c * ep + s * s * em
    j[..., 0, 1] = j[..., 1, 0] = c * s * (ep - em)
    j[..., 1, 1] = s * s * ep + c * c * em
    return j


def pair_operator(j: np.ndarray) -> np.ndarray:
    """Restriction of j (x) j to the symmetric subspace, batched: [..., 2, 2] -> [..., 3, 3]."""
    k = np.einsum("...ij,...kl->...ikjl", j, j).reshape(j.shape[:-2] + (4, 4))
    return _SYM.T @ k @ _SYM


def _jitter_nodes(sigma: float):
    if sigma == 0.0:
        return np.zeros(1), np.ones(1)
    return sigma * _GH_X, _GH_W


def source_states(t20: float, t02: float, phases: np.ndarray) -> np.ndarray:
    """Source pair states (t20, 0, t02 e^{i phase}) / norm, shape [..., 3]."""
    norm = math.hypot(t20, t02)
    out = np.zeros(np.shape(phases) + (3,), dtype=complex)
    out[..., 0] = t20 / norm
    out[..., 2] = t02 * np.exp(1j * phases) / norm
    return out


def _grid(cfg, parameter: str, values: np.ndarray):
    """Plate angle and source phase at each swept value."""
    if parameter == "phi":
        return np.full(values.shape, cfg.plate.angle), values
    return values, np.full(values.shape, cfg.source.phase)


def direct_rates(cfg, parameter: str, values: np.ndarray) -> np.ndarray:
    """Rates with no analysis block: pair rate x E_jitter[|c2|^2] x eta1 eta2 + accidentals."""
    chis, phases = _grid(cfg, parameter, np.asarray(values, dtype=float))
    g = pair_operator(retarder(cfg.plate.retardance, chis))
    src = cfg.source
    mean_p = np.zeros(chis.shape)
    for x, w in zip(*_jitter_nodes(src.phase_jitter)):
        out = np.einsum("...ij,...j->...i", g, source_states(src.t20, src.t02, phases + x))
        mean_p += w * np.abs(out[..., 1]) ** 2
    return src.pair_rate * mean_p * cfg.eta1 * cfg.eta2 + cfg.accidental_rate


def law_rates(cfg, parameter: str, values: np.ndarray, hwp_law, qwp_law) -> np.ndarray:
    """Rates from the package's closed-form half- and quarter-wave laws (ideal source)."""
    chis, phases = _grid(cfg, parameter, np.asarray(values, dtype=float))
    if abs(cfg.plate.retardance - math.pi) < 1e-15:
        c2sq = hwp_law(chis, phases)[1]
    else:
        c2sq = qwp_law(chis, phases)
    return cfg.source.pair_rate * c2sq * cfg.eta1 * cfg.eta2 + cfg.accidental_rate


def analysis_rates(cfg, parameter: str, values: np.ndarray, coincidence_probability) -> np.ndarray:
    """Rates with an analysis block, from `observables.coincidence_probability`
    on the state after the plate, one point at a time."""
    chis, phases = _grid(cfg, parameter, np.asarray(values, dtype=float))
    src = cfg.source
    mode = "analysis_" + cfg.analysis
    out = np.empty(chis.shape)
    for i, (chi, phase) in enumerate(zip(chis, phases)):
        g = pair_operator(retarder(cfg.plate.retardance, chi))
        p = 0.0
        for x, w in zip(*_jitter_nodes(src.phase_jitter)):
            state = g @ source_states(src.t20, src.t02, np.float64(phase + x))
            p += w * coincidence_probability(state, mode, cfg.eta1, cfg.eta2)
        out[i] = src.pair_rate * p + cfg.accidental_rate
    return out


def plate_fidelity(apply, input_state, target, plates) -> float:
    """Fidelity after applying each plate's pair operator with `optics.apply`."""
    state = input_state
    for spec in plates:
        state = apply(pair_operator(retarder(spec.retardance, spec.angle)), state)
    return abs(np.vdot(target, state)) ** 2


def stokes_expectation(amps) -> tuple[float, float, float, float]:
    """(P, gxy, gxx, gyy) of the normalized amplitudes (c1, c2, c3)."""
    c = np.asarray(amps, dtype=complex)
    c = c / np.linalg.norm(c)
    s1 = 2.0 * (abs(c[0]) ** 2 - abs(c[2]) ** 2)
    cross = np.conj(c[0]) * c[1] + np.conj(c[1]) * c[2]
    p = math.sqrt(s1**2 + 8.0 * abs(cross) ** 2) / 2.0
    return p, abs(c[1]) ** 2, 2.0 * abs(c[0]) ** 2, 2.0 * abs(c[2]) ** 2


def read_csv(path: str, kind: str, columns: str):
    """Parse a triphot CSV file: returns (config mapping, run mapping, rows).

    Raises ValueError on any deviation from the documented layout.
    """
    with open(path) as handle:
        text = handle.read()
    if not text.endswith("\n"):
        raise ValueError(f"{path}: missing final newline")
    lines = text[:-1].split("\n")
    if lines[0] != CSV_MAGIC or lines[1] != f"# kind: {kind}":
        raise ValueError(f"{path}: bad magic or kind line")
    if not lines[2].startswith("# config: "):
        raise ValueError(f"{path}: missing config line")
    config = json.loads(lines[2][len("# config: "):])
    body = 3
    run = None
    if lines[3].startswith("# run: "):
        run = json.loads(lines[3][len("# run: "):])
        body = 4
    if lines[body] != columns:
        raise ValueError(f"{path}: unexpected column header {lines[body]!r}")
    return config, run, [line.split(",") for line in lines[body + 1:]]
