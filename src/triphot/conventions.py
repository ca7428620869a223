"""Names and settings fixed for the whole package, importable without numpy.

The command line builds its parser and prints `triphot info` from these
alone; the computing modules import them from here.
"""

import math

TRIT_LABELS = ("plus", "minus", "zero")
TRIT_DIGITS = {"plus": 0, "minus": 1, "zero": 2}

ANALYSIS_CHOICES = ("none", "x", "y")

# The retardance of a plate whose retardance the synthesis search chooses.
FREE = "free"

# Defaults of `triphot verify` and `verify.run_checks`: grid points per axis,
# random samples per suite, and the seed of the first random suite.
VERIFY_GRID, VERIFY_SAMPLES, VERIFY_SEED = 101, 1000, 12345

# Named plate retardances, in radians.
RETARDANCE_NAMES = {"half": math.pi, "quarter": math.pi / 2}

# Axis angle of the analysis block's half-wave plate: behind the polarizer it turns
# the surviving polarization by 45 degrees, so co-polarized pairs split.
ANALYSIS_HWP_ANGLE = math.pi / 8
