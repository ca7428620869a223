"""Polarization qutrit simulator for collinear photon pairs.

A photon pair in one spatial mode with two polarization modes is a
three-state system.  This package represents such states, transforms them
with retardation plates (via the symmetric lift of Jones matrices) and
general SU(3) elements, predicts and simulates coincidence-counting fringes
for the two-beam interference apparatus, and synthesizes plate settings that
switch between the three zero-polarization trit states.

`import triphot` loads only `errors`.  Every other public name, and the
submodules named in `_EXPORTS`, resolve on first use: `triphot.sweep` imports
`experiment` (and numpy) the first time it is read.
"""

import importlib

from . import errors  # noqa: F401  (numpy-free; resolves the exception names)

__version__ = "0.1.0"

# Each public name, once, under the module that defines it.
_EXPORTS = {
    "errors": ("ConfigError", "DegenerateTableError", "NonUnitaryOperatorError", "ZeroStateError"),
    "qutrit": ("fidelity", "fock_basis", "make_state", "overlap", "pair_state", "states_equal",
               "trit_basis"),
    "optics": ("PlateSpec", "apply", "apply_conditioned", "half_wave", "is_in_plate_subgroup",
               "lift", "polarizer", "quarter_wave", "retarder", "rotator", "su3_exp"),
    "observables": ("coherence_length", "coincidence_probability", "correlators",
                    "degree_of_polarization", "stokes"),
    "experiment": ("CountRecord", "CountTable", "ExperimentConfig", "SourceSpec", "SweepTable",
                   "calibrate_loss_for_visibility", "hwp_law", "predict_rate", "qwp_law",
                   "simulate_counts", "source_state", "sweep", "visibility"),
    "synthesis": ("SynthesisProblem", "SynthesisResult", "reachability_report", "synthesize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
