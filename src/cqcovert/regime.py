"""Regime classification for a sanitized channel.

Three regimes are possible.  If the idle eavesdropper state rho(0) can be
written as a mixture of the others with an informative symbol (one whose
receiver state differs from sigma(0)) in the mixture support, a positive
covert rate is achievable.  Failing that, if every receiver state lives
inside supp(sigma(0)), throughput follows the square-root law; otherwise it
scales faster than square-root but sub-linearly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .config import (
    MIXTURE_MASS_TOL,
    MIXTURE_RESIDUAL_TOL,
    STATE_EQUALITY_TOL,
    SUPPORT_TOL,
)
from .channel import CQWiretapChannel, InputDistribution
from .divergences import holevo_information
from .operators import hermitian_to_realvec


class Regime(str, Enum):
    POSITIVE_RATE = "PositiveRate"
    SQUARE_ROOT = "SquareRoot"
    SUPER_SQUARE_ROOT = "SuperSquareRoot"


@dataclass(frozen=True)
class RegimeReport:
    """Classification outcome with its witnessing data.

    ``mixture_witness`` is present exactly when the regime is PositiveRate.
    ``support_violations`` lists symbols whose receiver state escapes
    supp(sigma(0)).  ``lp_residual`` is the equality residual of the
    feasibility solve.  ``mixture_on_uninformative_only`` flags channels
    where rho(0) is a mixture of the others but only via symbols carrying no
    receiver-side information; these are reported as SquareRoot (their
    achievable rate is zero) with this flag raised.
    """

    regime: Regime
    mixture_witness: Optional[InputDistribution]
    support_violations: tuple
    lp_residual: float
    mixture_on_uninformative_only: bool = False


def informative_symbols(ch: CQWiretapChannel) -> list:
    """Nonzero symbols whose receiver state differs from sigma(0) in trace norm."""
    diffs = ch.receiver.mats[1:] - ch.receiver.mats[0]
    gaps = np.abs(np.linalg.eigvalsh(diffs)).sum(axis=1)
    return [x for x, gap in zip(range(1, ch.k), gaps) if gap > STATE_EQUALITY_TOL]


def _require_sanitized(rho0_spectrum: np.ndarray):
    """Reject an unsanitized channel, given the ascending spectrum of its rho(0)."""
    if rho0_spectrum[0] <= SUPPORT_TOL:
        raise ValueError("channel is not sanitized: rho(0) is singular")


def _mixture_constraints(ch: CQWiretapChannel):
    """``(a_eq, b_eq)`` with a_eq P = b_eq iff Sum_x P(x) rho(x) = rho(0)
    and Sum_x P(x) = 1."""
    rows = hermitian_to_realvec(ch.eavesdropper.mats)
    return np.vstack([rows.T, np.ones((1, ch.k))]), np.concatenate([rows[0], [1.0]])


def _mixture_residual(ch: CQWiretapChannel, probs) -> float:
    """Frobenius norm of Sum_x P(x) rho(x) - rho(0)."""
    return float(np.linalg.norm(ch.eavesdropper.mixture(probs) - ch.eavesdropper.mats[0]))


def _mixture_lp(ch: CQWiretapChannel):
    """Search for a mixture witness by one linear program.

    Variables are P(x) for every symbol (uninformative symbols may serve as
    mixture components); the objective maximizes the mass on informative
    symbols, so a witness exists iff the maximum exceeds MIXTURE_MASS_TOL.
    Returns ``(witness, residual, uninformative_only)``.
    """
    informative = informative_symbols(ch)
    a_eq, b_eq = _mixture_constraints(ch)

    def solve(objective_symbols):
        cost = np.zeros(ch.k)
        cost[objective_symbols] = -1.0
        return linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")

    if not informative:
        # No symbol can carry information; the degenerate point mass at 0 is
        # the only solution of interest.
        return None, 0.0, False

    res = solve(informative)
    if res.status == 2:  # infeasible: not even P = delta_0 fits (cannot happen post-sanitize)
        return None, float("inf"), False
    if res.status != 0:
        raise RuntimeError(f"mixture feasibility LP failed: {res.message}")

    mass = -float(res.fun)
    if mass > MIXTURE_MASS_TOL:
        probs = np.clip(res.x, 0.0, None)
        witness = InputDistribution(probs / probs.sum())
        residual = _mixture_residual(ch, witness.probs)
        if residual > MIXTURE_RESIDUAL_TOL:
            raise RuntimeError(
                f"mixture LP returned residual {residual:.3e} above "
                f"{MIXTURE_RESIDUAL_TOL}; channel data is ill-conditioned"
            )
        # The witness must carry receiver-side information.  A vertex fully
        # concentrated on informative symbols with identical receiver states
        # has zero Holevo information; blending in the off symbol fixes that
        # without leaving the feasible set.
        if holevo_information(ch.sigma, witness) <= 0.0:
            blended = 0.5 * witness.probs + 0.5 * np.eye(ch.k)[0]
            witness = InputDistribution(blended)
        return witness, residual, False

    # No informative witness; check whether mixtures exist at all off the
    # point mass, to flag the rate-zero corner case.  With every nonzero
    # symbol informative that is the LP just solved.
    uninformative_only = False
    if len(informative) < ch.k - 1:
        res2 = solve(list(range(1, ch.k)))
        uninformative_only = bool(res2.status == 0 and -float(res2.fun) > MIXTURE_MASS_TOL)
    residual = _mixture_residual(ch, np.clip(res.x, 0.0, None)) if res.x is not None else float("inf")
    return None, residual, uninformative_only


def check_support_condition(ch: CQWiretapChannel) -> list:
    """Symbols whose receiver state has support outside supp(sigma(0))."""
    _require_sanitized(ch.eavesdropper.w[0])
    return [x for x in range(1, ch.k) if np.isinf(ch.receiver.divergences[x])]


def classify(ch: CQWiretapChannel) -> RegimeReport:
    """Classify a sanitized channel into its covert-throughput regime."""
    violations = tuple(check_support_condition(ch))  # first: it rejects an unsanitized channel
    witness, residual, uninformative_only = _mixture_lp(ch)
    if witness is not None:
        regime = Regime.POSITIVE_RATE
    elif violations:
        regime = Regime.SUPER_SQUARE_ROOT
    else:
        regime = Regime.SQUARE_ROOT
    return RegimeReport(
        regime=regime,
        mixture_witness=witness,
        support_violations=violations,
        lp_residual=residual,
        mixture_on_uninformative_only=uninformative_only,
    )
