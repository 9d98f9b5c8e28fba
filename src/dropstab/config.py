"""Numerical tolerances shared across the package.

Every rank decision, residual gate and unit-circle guard in the library reads
its threshold from here, so sensitivity studies edit one place.  The library
reads these constants when a function runs, not when it is defined, so a
value assigned here (``config.STAIRCASE_RTOL = 1e-6``) takes effect on the
next call.
"""

# Relative tolerance for staircase rank decisions (controllability /
# observability truncation, minimal realization).  Scaled by the norm of the
# matrix being decomposed.
STAIRCASE_RTOL = 1e-9

# Absolute residual accepted from the eigensolver: max_i ||A v_i - w_i v_i||.
EIG_RESIDUAL_TOL = 1e-8

# Relative residual accepted from the Stein solver.
STEIN_RESIDUAL_TOL = 1e-10

# Spectral radius must clear 1 by this much before the Stein equation is
# considered solvable.
STEIN_RADIUS_MARGIN = 1e-12

# Pole-collision guard for transfer evaluation.
EVALUATE_POLE_TOL = 1e-12

# Band around the unit circle inside which eigenvalues/zeros are rejected as
# numerically ambiguous (neither stable nor unstable).
UNIT_CIRCLE_BAND = 1e-9

# Two unstable zeros closer than this are treated as a repeated zero and
# rejected by the inner-outer factorization.
ZERO_SEPARATION_TOL = 1e-6

# Relative distance within which the assumption checker counts two polynomial
# roots as one repeated root (scaled by max(1, |z|)).
ROOT_CLUSTER_TOL = 1e-6

# Condition-number ceiling for feedthrough inversion.
INVERT_COND_MAX = 1e12

# Strict-inequality guard used by the membership verdict: a scaling counts as
# a certificate only if max_j p_j (phi_jj + 1) < 1 - MEMBER_GUARD.
MEMBER_GUARD = 1e-9

# Gamma search box (log10 of each free gamma entry) and budgets.
GAMMA_LOG_MIN = -6.0
GAMMA_LOG_MAX = 6.0
GAMMA_GRID_POINTS = 25
GAMMA_REFINE_MAXFEV = 200
