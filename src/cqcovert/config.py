"""Numerical tolerances and resource limits shared across the package.

All quantities computed by this package are in nats (natural logarithms).
The constants below are the single source of truth for every cutoff; report
emitters include them verbatim so results are auditable.
"""

import os

# Eigenvalues at or below this are treated as zero (support cutoff).  Double
# precision eigensolvers leave O(1e-14) noise on unit-scale matrices, so all
# logs and inverses are taken "on support" with this floor.
SUPPORT_TOL = 1e-12

# Raw input matrices must equal their conjugate transpose this tightly to
# pass validation; constructors then symmetrize exactly.
HERMITICITY_TOL = 1e-12

# Most negative eigenvalue a density matrix may carry before rejection;
# eigenvalues in [-PSD_TOL, 0) are clipped to zero.
PSD_TOL = 1e-10

# Allowed deviation of a density matrix trace from 1.
TRACE_TOL = 1e-10

# Eigenvalues closer than this are merged into one spectral group (pinching).
GROUP_TOL = 1e-9

# supp(A) within supp(B) is decided by ||(I - P_B) P_A||_2 <= this slack.
SUPPORT_INCLUSION_TOL = 1e-9

# Entropy-like results in [-NATS_CLIP, 0) are floating-point cancellation
# noise and are rounded up to 0; anything more negative is an error.
NATS_CLIP = 1e-9

# Two states count as equal when their trace-norm distance is below this.
STATE_EQUALITY_TOL = 1e-9

# States commute when, in the eigenbasis of a generic combination of them,
# no off-diagonal entry exceeds this rounding-level slack.
COMMUTE_TOL = 1e-13

# Mixture-feasibility policy: minimum informative mass for a witness, and
# the equality residual the linear program must achieve.
MIXTURE_MASS_TOL = 1e-7
MIXTURE_RESIDUAL_TOL = 1e-8

# Convex-program policy; the iteration cap counts outer Frank-Wolfe iterations.
KKT_TOL = 1e-9
FRANK_WOLFE_GAP_TOL = 1e-7
FRANK_WOLFE_MAX_ITERS = 10_000

# Brute-force simplex grid size guard.
MAX_GRID_POINTS = 2_000_000

# Tensor-product dimension cap (exact eigensolves scale cubically).
DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "CQCOVERT_DIM_CAP"


def dim_cap() -> int:
    """Current tensor-product dimension cap, overridable via environment."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{DIM_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 2:
        raise ValueError(f"{DIM_CAP_ENV} must be at least 2, got {cap}")
    return cap


def tolerances() -> dict:
    """All tolerance settings, for embedding in report metadata."""
    return {
        "support_tol": SUPPORT_TOL,
        "hermiticity_tol": HERMITICITY_TOL,
        "psd_tol": PSD_TOL,
        "trace_tol": TRACE_TOL,
        "group_tol": GROUP_TOL,
        "support_inclusion_tol": SUPPORT_INCLUSION_TOL,
        "nats_clip": NATS_CLIP,
        "state_equality_tol": STATE_EQUALITY_TOL,
        "commute_tol": COMMUTE_TOL,
        "mixture_mass_tol": MIXTURE_MASS_TOL,
        "mixture_residual_tol": MIXTURE_RESIDUAL_TOL,
        "kkt_tol": KKT_TOL,
        "frank_wolfe_gap_tol": FRANK_WOLFE_GAP_TOL,
        "dim_cap": dim_cap(),
    }
