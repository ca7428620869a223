"""Polarization qutrit simulator for collinear photon pairs.

A photon pair in one spatial mode with two polarization modes is a
three-state system.  This package represents such states, transforms them
with retardation plates (via the symmetric lift of Jones matrices) and
general SU(3) elements, predicts and simulates coincidence-counting fringes
for the two-beam interference apparatus, and synthesizes plate settings that
switch between the three zero-polarization trit states.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateTableError,
    NonUnitaryOperatorError,
    ZeroStateError,
)
from .qutrit import (
    fidelity,
    fock_basis,
    make_state,
    overlap,
    pair_state,
    states_equal,
    trit_basis,
)
from .optics import (
    PlateSpec,
    apply,
    apply_conditioned,
    compose,
    half_wave,
    is_in_plate_subgroup,
    lift,
    polarizer,
    quarter_wave,
    retarder,
    rotator,
    su3_exp,
)
from .observables import (
    coherence_length,
    coincidence_probability,
    correlators,
    degree_of_polarization,
    stokes,
)
from .experiment import (
    CountRecord,
    CountTable,
    ExperimentConfig,
    SourceSpec,
    SweepTable,
    calibrate_loss_for_visibility,
    hwp_law,
    predict_rate,
    qwp_law,
    simulate_counts,
    source_state,
    sweep,
    visibility,
)

from .synthesis import (
    SynthesisProblem,
    SynthesisResult,
    fidelity_objective,
    reachability_report,
    synthesize,
)

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateTableError",
    "NonUnitaryOperatorError",
    "ZeroStateError",
    "fidelity",
    "fock_basis",
    "make_state",
    "overlap",
    "pair_state",
    "states_equal",
    "trit_basis",
    "PlateSpec",
    "apply",
    "apply_conditioned",
    "compose",
    "half_wave",
    "is_in_plate_subgroup",
    "lift",
    "polarizer",
    "quarter_wave",
    "retarder",
    "rotator",
    "su3_exp",
    "coherence_length",
    "coincidence_probability",
    "correlators",
    "degree_of_polarization",
    "stokes",
    "CountRecord",
    "CountTable",
    "ExperimentConfig",
    "SourceSpec",
    "SweepTable",
    "calibrate_loss_for_visibility",
    "hwp_law",
    "predict_rate",
    "qwp_law",
    "simulate_counts",
    "source_state",
    "sweep",
    "visibility",
    "SynthesisProblem",
    "SynthesisResult",
    "fidelity_objective",
    "reachability_report",
    "synthesize",
]
