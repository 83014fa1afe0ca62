"""Covert throughput quantities: positive-rate capacity, the square-root
scaling constant, perturbative expansion checks, and the converse chain.

The scaling constant maximizes a ratio of a linear numerator (receiver-side
divergences) over the square root of a quadratic form (eavesdropper-side
chi-squared).  On the simplex the quadratic form equals v^T (Q - 11^T) v
with Q the symmetrized chi-squared Gram matrix, and the ratio is invariant
under positive rescaling of v, so the maximization reduces to the convex
program

    minimize 1/2 v^T (Q - 11^T) v   subject to   d^T v = 1, v >= 0,

whose minimum m* gives the constant as 1/sqrt(m*).  One primal active-set
method, ``regime._solve_ray_qp``, solves it for every alphabet size; its
final support is certified by the KKT conditions, and the constant is
cross-checked against a brute-force simplex grid.  The same QP, with d = 1,
takes each Newton step of the covert-rate maximization, and it finds the
certificate by which ``classify`` skips its LP, so all share one solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.optimize import linprog

from .config import (
    FRANK_WOLFE_GAP_TOL,
    FRANK_WOLFE_MAX_ITERS,
    MAX_GRID_POINTS,
    SUPPORT_TOL,
)
from .channel import (
    CQWiretapChannel,
    InputDistribution,
    _letter_mass,
    _mixture_divergence,
    _receiver_pass,
)
from .divergences import (
    Letters,
    _clip_nonnegative,
    _entropy_of_spectrum,
    chi_squared,
)
from .errors import DimensionCapError, WrongRegimeError
from .operators import DensityOperator, _support_leaks, dlog_kernel
from .regime import (Regime, _mixture_constraints, _mixture_residual, _require_sanitized,
                     _solve_ray_qp, classify, informative_symbols)


def divergence_vector(ch: CQWiretapChannel) -> np.ndarray:
    """Receiver-side divergences d(x) = D(sigma(x) || sigma(0)) for x != 0."""
    d = ch.receiver.divergences[1:].copy()  # the result must not alias the channel
    if not np.all(np.isfinite(d)):
        raise WrongRegimeError(
            "some receiver state has support outside supp(sigma(0)); "
            "the channel is not in the square-root regime"
        )
    return d


def chi_sq_gram(ch: CQWiretapChannel) -> np.ndarray:
    """Symmetrized chi-squared Gram matrix over nonzero symbols.

    Q[x][y] = 1/2 tr[(rho(x) rho(y) + rho(y) rho(x)) rho(0)^{-1}].  The
    anticommutator makes each entry real while leaving the quadratic form
    unchanged, so p^T Q p - 1 equals the chi-squared divergence of the
    p-mixture from rho(0) for any probability vector p.
    """
    letters = ch.eavesdropper
    _require_sanitized(letters.w[0])
    mats = letters.mats[1:]
    gram = np.einsum("iab,jba->ij", mats, mats @ letters.inverse).real
    return (gram + gram.T) / 2.0


@dataclass(frozen=True)
class ScalingConstantResult:
    """Square-root-law scaling constant with its backing data.

    ``optimizer`` is the maximizing distribution over the full alphabet
    (mass 0 on the off symbol); ``d`` and ``gram`` are the divergence vector
    and chi-squared Gram over nonzero symbols; ``qp_objective`` is the
    minimum of the convex reformulation; ``support`` lists the symbols the
    optimizer actually uses.
    """

    L: float
    optimizer: InputDistribution
    d: np.ndarray
    gram: np.ndarray
    qp_objective: float
    kkt_residual: float
    support: tuple


def _ratio_at(d, gram, p_nonzero) -> float:
    num = float(p_nonzero @ d)
    quad = float(p_nonzero @ gram @ p_nonzero) - 1.0
    if quad <= 0.0:
        return 0.0 if num <= 0.0 else float("inf")
    return num / math.sqrt(0.5 * quad)


def scaling_constant(ch: CQWiretapChannel) -> ScalingConstantResult:
    """Scaling constant of the square-root law, in nats per sqrt(n delta).

    Maximizes the divergence-over-root-chi-squared ratio over distributions
    on every nonzero symbol via the convex reformulation described in the
    module docstring, then validates the optimum: the quadratic form must
    match its trace identity, and the ratio evaluated at the optimizer must
    reproduce the constant.  A symbol with sigma(x) = sigma(0) adds nothing
    to the numerator but can still lower the chi-squared denominator, so it
    stays in the optimization.  Raises WrongRegimeError outside the
    square-root regime.
    """
    report = classify(ch)
    if report.regime != Regime.SQUARE_ROOT:
        raise WrongRegimeError(
            f"scaling constant is defined in the square-root regime only; "
            f"channel classified as {report.regime.value}"
        )

    d = divergence_vector(ch)
    gram = chi_sq_gram(ch)
    centered = gram - 1.0
    wmin = float(np.linalg.eigvalsh((centered + centered.T) / 2.0)[0])
    if wmin < -1e-9:
        raise ArithmeticError(f"centered Gram matrix has eigenvalue {wmin:.3e} < -1e-9")

    if not informative_symbols(ch):
        # d vanishes up to rounding, so no v >= 0 has d^T v = 1.
        uniform = np.zeros(ch.k)
        uniform[1:] = 1.0 / (ch.k - 1)
        return ScalingConstantResult(
            L=0.0,
            optimizer=InputDistribution(uniform),
            d=d,
            gram=gram,
            qp_objective=float("inf"),
            kkt_residual=float("nan"),
            support=(),
        )

    v, objective, kkt_residual = _solve_ray_qp(centered, d)
    if objective <= 1e-12:
        raise WrongRegimeError(
            "chi-squared denominator vanishes at the optimum: the channel "
            "admits a mixture and is not in the square-root regime"
        )

    # Runtime check of the identity that justifies convexity:
    # v^T (Q - 11^T) v = tr[(rho_v - s rho(0))^2 rho(0)^{-1}] with s = sum(v).
    s_total = float(v.sum())
    p_nonzero = v / s_total
    probs = np.concatenate([[0.0], p_nonzero])
    rho = ch.eavesdropper
    identity_rhs = (s_total ** 2) * rho.chi_squared_of(rho.mixture(probs))
    identity_lhs = float(v @ centered @ v)
    if abs(identity_lhs - identity_rhs) > 1e-9 * max(1.0, abs(identity_lhs)):
        raise ArithmeticError(
            f"quadratic-form identity violated: {identity_lhs!r} vs {identity_rhs!r}"
        )

    value = 1.0 / math.sqrt(objective)
    ratio = _ratio_at(d, gram, p_nonzero)
    if abs(ratio - value) > 1e-8 * max(1.0, value):
        raise ArithmeticError(
            f"ratio at optimizer ({ratio!r}) disagrees with QP value ({value!r})"
        )

    optimizer = InputDistribution(probs)
    support = tuple(int(x) for x in np.nonzero(probs > 0.0)[0])
    return ScalingConstantResult(
        L=value,
        optimizer=optimizer,
        d=d,
        gram=gram,
        qp_objective=objective,
        kkt_residual=kkt_residual,
        support=support,
    )


def _compositions(total: int, parts: int) -> np.ndarray:
    """All length-``parts`` nonnegative integer vectors summing to ``total``, lexicographically."""
    cols, left = [], np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        rows = np.repeat(np.arange(len(left)), left + 1)
        value = np.arange(len(rows)) - np.repeat(np.cumsum(left + 1) - (left + 1), left + 1)
        cols, left = [c[rows] for c in cols] + [value], left[rows] - value
    return np.column_stack(cols + [left])


def scaling_constant_grid_oracle(ch: CQWiretapChannel, resolution: float) -> float:
    """Brute-force maximum of the scaling ratio over a simplex grid.

    Enumerates every distribution on the nonzero symbols with entries that
    are multiples of ``resolution`` and evaluates the ratio directly.  The
    result lower-bounds the true constant and is the designated validation
    oracle for :func:`scaling_constant`.
    """
    gram = chi_sq_gram(ch)  # first: it rejects an unsanitized channel
    if ch.k > 5:
        raise DimensionCapError("grid oracle is limited to alphabets of size k <= 5")
    steps = int(round(1.0 / resolution))
    if steps < 1:
        raise ValueError(f"resolution {resolution} coarser than the whole simplex")
    r = ch.k - 1
    count = math.comb(steps + r - 1, r - 1)
    if count > MAX_GRID_POINTS:
        raise DimensionCapError(
            f"grid would contain {count} points, above the cap {MAX_GRID_POINTS}"
        )

    grid = _compositions(steps, r).astype(float) / steps
    d = divergence_vector(ch)
    centered = gram - 1.0

    num = grid @ d
    quad = np.einsum("ij,ij->i", grid @ centered, grid)
    quad = np.clip(quad, 0.0, None)

    degenerate = quad <= 1e-15
    if np.any(degenerate & (num > 1e-12)):
        raise WrongRegimeError(
            "grid hit a zero-denominator point with informative mass; "
            "the channel admits a mixture"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(degenerate, 0.0, num / np.sqrt(0.5 * quad))
    return float(ratio.max())


@dataclass(frozen=True)
class RateResult:
    """Covert capacity in the positive-rate regime, in nats per channel use.

    ``converged`` is whether the final duality gap is below FRANK_WOLFE_GAP_TOL.
    """

    rate: float
    optimizer: InputDistribution
    feasibility_residual: float
    iterations: int
    gap: float
    converged: bool


def _holevo_derivatives(letters: Letters):
    """``at(probs) -> (chi, gradient, hessian)`` of P -> chi(P) by one eigh of sigma_bar.  The
    gradient D(sigma(x) || sigma_bar) - 1, infinite for sigma(x) outside supp(sigma_bar), is
    capped there above every finite one; the Hessian is -tr[sigma(x) Dlog(sigma_bar)[sigma(y)]]."""
    mats, wa, va, entropies = letters.mats, letters.w, letters.v, letters.entropies

    def at(probs):
        wb, vb = np.linalg.eigh(np.tensordot(probs, mats, axes=1))
        on = wb > SUPPORT_TOL
        rotated = vb.conj().T @ mats @ vb
        grad = -np.diagonal(rotated, axis1=1, axis2=2).real[:, on] @ np.log(wb[on]) - entropies - 1
        leaks = _support_leaks(wa, va, wb, vb)
        grad[leaks] = grad[~leaks].max(initial=0.0) + math.log(len(wb)) + 1.0
        half = rotated.reshape(len(mats), -1) * np.sqrt(dlog_kernel(wb)).ravel()
        return _entropy_of_spectrum(wb) - float(probs @ entropies), grad, -(half.conj() @ half.T).real

    return at


def covert_rate(ch: CQWiretapChannel) -> RateResult:
    """Maximum covert rate: Holevo information maximized over mixtures.

    In the positive-rate regime, maximizes chi(P) over the polytope of
    distributions whose eavesdropper mixture reproduces rho(0) by fully-
    corrective Frank-Wolfe (Lacoste-Julien & Jaggi, 2015).  Its LP vertex
    certifies each point by the gap, clipped at 0; damped Newton steps then
    re-maximize chi over the hull of the active vertices until the hull's own
    gap is below FRANK_WOLFE_GAP_TOL.  Otherwise the rate is 0 at the off symbol.
    """
    report = classify(ch)
    if report.regime != Regime.POSITIVE_RATE:
        return RateResult(rate=0.0, optimizer=InputDistribution.point_mass(ch.k, 0),
                          feasibility_residual=0.0, iterations=0, gap=0.0, converged=True)

    a_eq, b_eq = _mixture_constraints(ch)
    at = _holevo_derivatives(ch.receiver)
    atoms, weights = np.array(report.mixture_witness.probs)[:, None], np.ones(1)
    chi, grad, hess = at(atoms[:, 0])
    gap, iterations = float("inf"), 0
    for iterations in range(1, FRANK_WOLFE_MAX_ITERS + 1):
        lp = linprog(-grad, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        if lp.status != 0:
            raise RuntimeError(
                f"vertex LP failed ({lp.message}); contradicts the PositiveRate classification"
            )
        vertex = np.clip(lp.x, 0.0, None)
        vertex = vertex / vertex.sum()
        gap = max(0.0, float(grad @ (vertex - atoms @ weights)))
        if gap < FRANK_WOLFE_GAP_TOL:
            break
        atoms = np.column_stack([atoms[:, weights > 0.0], vertex])
        weights = np.append(weights[weights > 0.0], 0.0)
        slopes = atoms.T @ grad
        while slopes.max() - slopes @ weights >= FRANK_WOLFE_GAP_TOL:
            # max slopes^T s - s^T N s / 2 over s = u - weights is one ray QP with d = 1, as c^T u =
            # u^T (c 1^T + 1 c^T) u / 2 on the simplex; the shift is for N singular (commuting letters).
            newton = -atoms.T @ hess @ atoms
            newton += SUPPORT_TOL * max(1.0, float(np.abs(newton).max())) * np.eye(len(weights))
            c = slopes + newton @ weights
            step = _solve_ray_qp(newton - c[:, None] - c[None, :], np.ones(len(weights)))[0]
            step = step / step.sum() - weights
            t, rise = 1.0, float(slopes @ step)
            while rise > 0.0 and not np.array_equal(weights + t * step, weights):
                trial = at(atoms @ (weights + t * step))
                # Sufficient increase, or (by concavity) a nonnegative slope at the trial point.
                if trial[0] >= chi + t * rise / 4 or trial[1] @ (atoms @ step) >= 0.0:
                    break
                t /= 2
            else:
                raise ArithmeticError("Newton step on the active vertices found no ascent")
            weights, (chi, grad, hess) = weights + t * step, trial
            slopes = atoms.T @ grad

    current = atoms @ weights
    return RateResult(rate=_clip_nonnegative(chi, "Holevo information"),
                      optimizer=InputDistribution(current),
                      feasibility_residual=_mixture_residual(ch, current),
                      iterations=iterations, gap=gap, converged=gap < FRANK_WOLFE_GAP_TOL)


@dataclass(frozen=True)
class ChiSquaredExpansionReport:
    """Ratios of the exact divergence to its small-perturbation quadratic model."""

    alphas: tuple
    ratios: tuple
    chi_squared_value: float
    degenerate: bool


def chi_sq_expansion_check(rho_zero: DensityOperator, rho_tilde: DensityOperator,
                           alphas) -> ChiSquaredExpansionReport:
    """Check that D((1-a) rho0 + a rho_tilde || rho0) ~ a^2/2 * chi^2 as a -> 0.

    Reports r(a) = D / (a^2/2 * chi^2) for each requested mixing weight;
    the ratios approach 1.  Identical inputs make the ratio undefined and
    are flagged as degenerate.
    """
    alphas = tuple(float(a) for a in alphas)
    if any(not 0.0 < a <= 0.1 for a in alphas):
        raise ValueError("mixing weights must lie in (0, 0.1]")
    chi2 = chi_squared(rho_tilde, rho_zero)
    if chi2 <= 1e-12:
        return ChiSquaredExpansionReport(alphas, (), chi2, True)
    divs = Letters([rho_zero]).divergences_of(
        np.stack([(1.0 - a) * rho_zero.mat + a * rho_tilde.mat for a in alphas]))
    ratios = tuple(float(div / (0.5 * a * a * chi2)) for a, div in zip(alphas, divs))
    return ChiSquaredExpansionReport(alphas, ratios, chi2, False)


@dataclass(frozen=True)
class HolevoExpansionReport:
    """Slopes chi(P_a)/a against their small-perturbation limit."""

    alphas: tuple
    slopes: tuple
    limit: float


def holevo_expansion_check(ch: CQWiretapChannel, p_tilde: InputDistribution,
                           alphas) -> HolevoExpansionReport:
    """Check the first-order behavior of Holevo information near the off symbol.

    With P_a = (1-a) delta_0 + a p_tilde, the slope chi(P_a)/a converges to
    Sum_{x != 0} p_tilde(x) D(sigma(x) || sigma(0)) as a -> 0.
    """
    if p_tilde.probs[0] != 0.0:
        raise ValueError("the perturbing distribution must put zero mass on symbol 0")
    alphas = tuple(float(a) for a in alphas)
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ValueError("mixing weights must lie in (0, 1)")
    # Only symbols with positive weight: a zero-weight sigma(x) outside
    # supp(sigma(0)) has an infinite divergence but adds nothing to the limit.
    letters = ch.receiver
    used = np.flatnonzero(p_tilde.probs > 0.0)
    limit = float(p_tilde.probs[used] @ letters.divergences[used])
    probs = np.outer(alphas, p_tilde.probs)
    probs[:, 0] = 1.0 - np.array(alphas)
    slopes = tuple(float(chi / a) for a, chi in zip(alphas, letters.holevo_informations(probs)))
    return HolevoExpansionReport(alphas, slopes, limit)


@dataclass(frozen=True)
class ConverseChainReport:
    """Every link of the two converse chains, evaluated exactly.

    Receiver chain: joint Holevo information <= sum of per-letter Holevo
    informations <= n times the Holevo information of the averaged letter
    distribution.  Eavesdropper chain: joint divergence from the idle state
    >= sum of per-letter divergences >= n times the divergence of the
    averaged letter state.
    """

    n: int
    holevo_joint: float
    holevo_marginal_sum: float
    holevo_avg_scaled: float
    div_joint: float
    div_marginal_sum: float
    div_avg_scaled: float
    slack: ClassVar[float] = 1e-9

    @property
    def receiver_ok(self) -> bool:
        return (self.holevo_joint <= self.holevo_marginal_sum + self.slack
                and self.holevo_marginal_sum <= self.holevo_avg_scaled + self.slack)

    @property
    def eavesdropper_ok(self) -> bool:
        return (self.div_joint >= self.div_marginal_sum - self.slack
                and self.div_marginal_sum >= self.div_avg_scaled - self.slack)


def converse_chain(ch: CQWiretapChannel, codewords, weights,
                   strict: bool = True) -> ConverseChainReport:
    """Evaluate both converse chains on an explicit weighted codeword ensemble.

    ``codewords`` is an (m, n) integer array; ``weights`` the ensemble
    distribution over its rows.  Entropies of the n-letter states are
    computed exactly, so n is limited by the dimension cap.  With
    ``strict``, a violated link raises instead of returning.
    """
    codewords = np.atleast_2d(np.asarray(codewords, dtype=int))
    weights = np.asarray(weights, dtype=float)
    if len(weights) != codewords.shape[0]:
        raise ValueError("one weight per codeword required")
    if abs(weights.sum() - 1.0) > 1e-10 or weights.min() < 0.0:
        raise ValueError("weights must form a probability vector")
    receiver_entropy, _ = _receiver_pass(ch, codewords, weights, decode=False)
    div_joint = _mixture_divergence(ch, codewords, weights)
    return _chain_from_joint_terms(ch, codewords, weights, receiver_entropy, div_joint, strict)


def _chain_from_joint_terms(ch, codewords, weights, receiver_entropy: float,
                            div_joint: float, strict: bool = True) -> ConverseChainReport:
    """Both chains around their two n-letter terms, computed by the caller:
    the receiver mixture's entropy and the eavesdropper mixture's divergence."""
    n = codewords.shape[1]
    sigma, rho = ch.receiver, ch.eavesdropper
    conditional = float(_letter_mass(codewords, weights, ch.k) @ sigma.entropies)
    holevo_joint = _clip_nonnegative(receiver_entropy - conditional, "joint Holevo information")

    # The n marginals and their mean p_bar, each link from one stacked call.
    marginals = [np.bincount(codewords[:, i], weights=weights, minlength=ch.k) for i in range(n)]
    dists = marginals + [np.mean(marginals, axis=0)]
    holevo = sigma.holevo_informations(np.array(dists))
    div = rho.divergences_of(np.stack([rho.mixture(p) for p in dists]))

    report = ConverseChainReport(
        n=n,
        holevo_joint=holevo_joint,
        holevo_marginal_sum=float(sum(holevo[:-1])),
        holevo_avg_scaled=n * float(holevo[-1]),
        div_joint=div_joint,
        div_marginal_sum=float(div[:-1].sum()),
        div_avg_scaled=n * float(div[-1]),
    )
    if strict and not (report.receiver_ok and report.eavesdropper_ok):
        raise ArithmeticError(f"converse chain violated: {report}")
    return report
