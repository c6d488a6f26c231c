"""Shared numerical tolerances.

All tolerances are absolute unless the name says otherwise.  The defaults
leave several digits of double-precision headroom at the dimensions this
library targets (local dimensions up to ~8).  Every upper-case name here is
a tolerance: :func:`tolerance_table` embeds each one in every CLI report.
"""

# Generic absolute tolerance: Hermiticity, orthogonality, trace checks.
ATOL = 1e-9

# Eigenvalues of quantum states may dip this far below zero.
PSD_TOL = 1e-9

# Singular values at or below this are treated as rank deficiency.
RANK_CUTOFF = 1e-10

# Relative residual allowed when a decomposition is multiplied back out.
RECON_TOL = 1e-9

# 2-norm residual below which a nonnegative fit counts as feasible.
FEAS_TOL = 1e-8

# Residual above which infeasibility is macroscopic (used by deletion tests).
INFEAS_THRESHOLD = 1e-3

# Decomposition weights must stay above this (constructions divide by them).
MIN_WEIGHT = 1e-12


def tolerance_table() -> dict:
    """All tolerances above, lower-cased, as a plain dict for embedding in reports."""
    return {name.lower(): value for name, value in globals().items() if name.isupper()}
