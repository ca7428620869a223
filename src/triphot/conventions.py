"""Names fixed for the whole package, importable without numpy.

The command line builds its parser and prints `triphot info` from these
alone; `qutrit`, `experiment` and `synthesis` import them from here.
"""

TRIT_LABELS = ("plus", "minus", "zero")
TRIT_DIGITS = {"plus": 0, "minus": 1, "zero": 2}

ANALYSIS_CHOICES = ("none", "x", "y")

# The retardance of a plate whose retardance the synthesis search chooses.
FREE = "free"
