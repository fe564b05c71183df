"""Numeric tolerances used across the checks.

Every comparison reads its tolerance from this module when the check runs,
never as a parameter default bound at import, so a `--tolerance` override
set by the CLI for one command reaches every check that uses it.
"""

# certification target for freshly computed character tables
ORTHOGONALITY = 1e-8
# acceptance threshold when re-certifying an imported table
TABLE_ACCEPT = 1e-6
# each degree must sit within this distance of a positive integer
DEGREE_INTEGRALITY = 1e-6
# the eigensolver aborts if a degree is off by more than this
DEGREE_ERROR = 1e-4
# eigenvalues closer than this trigger a retry with fresh coefficients
EIGEN_COLLISION = 1e-6
# max retries for the random recombination
MAX_RETRIES = 20

# agreement between the character route and the dense eigensolve
LAMBDA_AGREE = 1e-6
# the trivial character must give eigenvalue 1 within this
LAMBDA_ONE = 1e-10
# weighted-walk lambda vs. plain lambda for class-indicator weights
WLAMBDA_AGREE = 1e-8

# generic slack for inequality checks
SLACK = 1e-9
# slack for the strict deviation bound
STRICT_SLACK = 1e-12
# relative agreement between the exact and character-formula pair counts
PAB_RELATIVE = 1e-8
# distribution weights must sum to one within this
DIST_UNIT = 1e-12

# power iteration
POWER_TOL = 1e-9
POWER_MAX_ITER = 10 ** 5

NAMES = {
    "orthogonality": "ORTHOGONALITY",
    "table-accept": "TABLE_ACCEPT",
    "degree-integrality": "DEGREE_INTEGRALITY",
    "degree-error": "DEGREE_ERROR",
    "eigen-collision": "EIGEN_COLLISION",
    "lambda-agree": "LAMBDA_AGREE",
    "lambda-one": "LAMBDA_ONE",
    "wlambda-agree": "WLAMBDA_AGREE",
    "slack": "SLACK",
    "strict-slack": "STRICT_SLACK",
    "pab-relative": "PAB_RELATIVE",
    "dist-unit": "DIST_UNIT",
    "power-tol": "POWER_TOL",
}
