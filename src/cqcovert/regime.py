"""Regime classification for a sanitized channel.

Three regimes are possible.  If the idle eavesdropper state rho(0) can be
written as a mixture of the others with an informative symbol (one whose
receiver state differs from sigma(0)) in the mixture support, a positive
covert rate is achievable.  Failing that, if every receiver state lives
inside supp(sigma(0)), throughput follows the square-root law; otherwise it
scales faster than square-root but sub-linearly.  The mixture LP runs only
where a certificate from the ray QP, whose solver ``scaling`` shares, fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .config import (
    KKT_TOL,
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
    witness LP's solution, and 0.0, the residual of P = delta_0, when a
    certificate proved that no witness exists or no symbol is informative.
    ``mixture_on_uninformative_only`` flags channels where rho(0) is a
    mixture of the others but only via symbols carrying no receiver-side
    information, none informative included; these are reported as
    SquareRoot (their achievable rate is zero) with this flag raised.
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


def _equality_kkt(a_mat, d, support):
    """``(v, mu)`` with A_SS v_S = mu d_S, d_S^T v_S = 1 and v = 0 off S.

    Least squares, so a singular A (a duplicated symbol, or more symbols
    than the eavesdropper's real dimension) still gives a solution.
    """
    s = list(support)
    size = len(s)
    kkt = np.zeros((size + 1, size + 1))
    kkt[:size, :size] = a_mat[np.ix_(s, s)]
    kkt[:size, size] = -d[s]
    kkt[size, :size] = d[s]
    rhs = np.zeros(size + 1)
    rhs[size] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    v = np.zeros(len(d))
    v[s] = sol[:size]
    return v, sol[size]


def _kkt_candidate(a_mat, d, support, scale):
    """Solve the equality KKT system on one support and verify optimality.

    Returns ``(v, objective, kkt_residual)`` when the candidate satisfies
    primal feasibility, stationarity on the support, and dual feasibility
    off it; otherwise None.
    """
    s = list(support)
    if not np.any(d[s] > 0.0):
        return None
    v, mu = _equality_kkt(a_mat, d, s)
    if np.min(v[s]) < -1e-12:
        return None
    v = np.clip(v, 0.0, None)

    grad = a_mat @ v - mu * d
    tol = KKT_TOL * max(1.0, scale)
    primal = abs(float(d @ v) - 1.0)
    stationarity = float(np.abs(grad[s]).max())
    dual = max(0.0, -float(np.delete(grad, s).min(initial=0.0)))
    residual = max(primal, stationarity, dual)
    if residual > tol:
        return None
    objective = 0.5 * float(v @ a_mat @ v)
    return v, objective, residual


def _solve_ray_qp(a_mat, d):
    """min 1/2 v^T A v  s.t.  d^T v = 1, v >= 0, for PSD A.

    Primal active-set method (Nocedal & Wright, ch. 16) with the loop of
    Lawson & Hanson's NNLS.  The free set starts as {argmax d}, and each
    pass solves the equality KKT system on it.  A target with a component
    <= 0 is approached up to the first blocking bound, and the indices that
    reach 0 leave the free set; otherwise the target becomes the iterate and
    the index with the most negative gradient (A v - mu d)_j joins.  When no
    gradient is below -tol, ``_kkt_candidate`` certifies the free set (a KKT
    point of a convex program is a global minimum).  Raises ArithmeticError
    if it does not, or after 3 r passes, the NNLS cap.
    """
    r = len(d)
    scale = max(float(np.abs(a_mat).max()), float(np.abs(d).max()), 1.0)
    free = np.zeros(r, dtype=bool)
    free[np.argmax(d)] = True
    v = np.zeros(r)
    for _ in range(3 * r):
        target, mu = _equality_kkt(a_mat, d, np.flatnonzero(free))
        blocking = np.flatnonzero(free & (target <= 0.0))
        if blocking.size:
            # v >= 0 >= target on the blocking indices; one already at 0 stops the step.
            ratio = np.divide(v[blocking], v[blocking] - target[blocking],
                              out=np.zeros(blocking.size), where=v[blocking] > 0.0)
            step = float(ratio.min())
            v = v + step * (target - v)
            hit = blocking[ratio <= step]
            v[hit] = 0.0
            free[hit] = False
            continue
        v = target
        grad = np.where(free, np.inf, a_mat @ v - mu * d)
        enter = int(np.argmin(grad))
        if grad[enter] >= -KKT_TOL * scale:
            found = _kkt_candidate(a_mat, d, np.flatnonzero(free), scale)
            if found is None:
                raise ArithmeticError("active-set solution failed KKT verification")
            return found
        free[enter] = True
    raise ArithmeticError(f"active-set QP did not converge in {3 * r} passes (r = {r})")


def _no_mixture_certificate(deltas, gram, symbols) -> bool:
    """Whether a Hermitian H proves that every P with residual at most
    MIXTURE_RESIDUAL_TOL puts mass below MIXTURE_MASS_TOL on ``symbols`` (S).

    The residual of P is Sum_{x != 0} P(x) Delta_x over the rows Delta_x =
    rho(x) - rho(0) of ``deltas``, so with g_x = <Delta_x, H>, l = min_S g_x > 0
    and LP duality, mass_S <= (||H||_F residual + max(0, -min_{not S} g_x)) / l.
    H = Sum v_x Delta_x, v from the ray QP on their Frobenius ``gram`` and 1_S.
    Each g_x is lowered by a bound on the rounding of Delta_x and of its dZ^2-term
    dot product (Neumaier & Shcherbina, 2004).  False when the QP raises.
    """
    target = np.zeros(len(gram))
    target[np.asarray(symbols) - 1] = 1.0
    try:
        v = _solve_ray_qp(gram, target)[0]
    except ArithmeticError:
        return False
    h = v @ deltas
    slack = (deltas.shape[1] + 4) * np.finfo(float).eps
    norm = float(np.linalg.norm(h)) * (1.0 + slack)
    g = (deltas.conj() @ h).real - slack * norm * np.sqrt(np.diag(gram))
    low = g[target > 0.0].min()
    off = -g[target == 0.0].min(initial=0.0)
    return low > 0.0 and (norm * MIXTURE_RESIDUAL_TOL + off) / low < MIXTURE_MASS_TOL


def _mixture_lp(ch: CQWiretapChannel):
    """Search for a mixture witness by a certificate or one linear program.

    Variables are P(x) for every symbol (uninformative symbols may serve as
    mixture components); the objective maximizes the mass on informative
    symbols, so a witness exists iff the maximum exceeds MIXTURE_MASS_TOL.
    Each LP runs only when ``_no_mixture_certificate`` fails to bound that
    maximum; ``solve`` then returns None.  Returns ``(witness, residual,
    uninformative_only)``, residual 0.0 (P = delta_0) if no LP ran.
    """
    informative = informative_symbols(ch)
    stack = ch.eavesdropper.stack
    deltas = (stack[1:] - stack[0]).reshape(ch.k - 1, -1)
    gram = (deltas @ deltas.conj().T).real

    def solve(objective_symbols):
        if _no_mixture_certificate(deltas, gram, objective_symbols):
            return None
        a_eq, b_eq = _mixture_constraints(ch)
        cost = np.zeros(ch.k)
        cost[objective_symbols] = -1.0
        return linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")

    # With no informative symbol there is no witness to search for.
    res = solve(informative) if informative else None
    if res is not None:
        if res.status == 2:  # infeasible: not even P = delta_0 fits (cannot happen post-sanitize)
            return None, float("inf"), False
        if res.status != 0:
            raise RuntimeError(f"mixture feasibility LP failed: {res.message}")
        if -float(res.fun) > MIXTURE_MASS_TOL:
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
    # symbol informative that is the search just made.
    uninformative_only = False
    if len(informative) < ch.k - 1:
        res2 = solve(list(range(1, ch.k)))
        uninformative_only = bool(res2 is not None and res2.status == 0
                                  and -float(res2.fun) > MIXTURE_MASS_TOL)
    residual = 0.0 if res is None else _mixture_residual(ch, np.clip(res.x, 0.0, None))
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
