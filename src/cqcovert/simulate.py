"""Desk-scale exact simulation of the random-coding construction.

Codebooks are drawn i.i.d. from a sparse input distribution that puts mass
1 - alpha on the off symbol and spreads alpha over the optimizing nonzero
distribution, with alpha shrinking like 1/sqrt(n) so the covertness budget
is met with margin.  Covertness and decoding error are then evaluated
exactly on the n-letter spaces: the covertness divergence from the full
codebook mixture, and the decoding error of the square-root (pretty-good)
measurement over the codeword output states.

Randomness comes from numpy's Philox counter-based generator keyed by the
cell seed, with symbols drawn by inverse CDF, so reports are reproducible
bit for bit across runs and platforms.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .config import GROUP_TOL, SUPPORT_TOL
from .channel import (
    CQWiretapChannel,
    InputDistribution,
    average_output_state,
    _check_codeword,
    _mixture_divergence,
    _n_letter_dim,
    _receiver_pass,
)
from .divergences import chi_squared, relative_entropies
from .errors import DimensionCapError, WrongRegimeError
from .operators import matrix_fn
from .scaling import ConverseChainReport, _chain_from_joint_terms, scaling_constant


@dataclass(frozen=True)
class SimParams:
    """Knobs of one simulation cell.

    ``delta`` is the covertness budget in nats; ``beta``, ``gamma`` and
    ``theta`` are the slack constants of the construction, each in (0, 1).
    """

    delta: float
    n: int
    num_messages: int
    seed: int = 0
    beta: float = 0.5
    gamma: float = 0.5
    theta: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(
                f"covertness budget must be a positive finite number, got {self.delta}")
        for name in ("beta", "gamma", "theta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.num_messages < 1:
            raise ValueError("need at least one message")
        if self.n < 1:
            raise ValueError("blocklength must be at least 1")


@dataclass(frozen=True)
class Codebook:
    """M codewords of length n plus the distribution they were drawn from."""

    n: int
    num_messages: int
    codewords: np.ndarray
    sampling_distribution: InputDistribution


@dataclass(frozen=True)
class SimulationReport:
    """Per-(n, M, seed) record of one simulated cell.

    ``covert_div`` is the exact divergence of the realized codebook mixture
    from the idle state; ``covert_div_avg`` the same for the ensemble-average
    product state (n times the single-letter divergence).  ``converse_bound``
    is the throughput ceiling assembled from the converse chain and the
    realized error.  Cells that exceed the dimension cap carry ``skipped``
    with NaN values.
    """

    n: int
    num_messages: int
    seed: int
    k_n: float
    epsilon_n: float
    covert_div: float
    covert_div_avg: float
    normalized_throughput: float
    a_hat: float
    converse_bound: float
    meets_targets: bool
    chain: Optional[ConverseChainReport] = None
    skipped: Optional[str] = None


def alpha_n(ch: CQWiretapChannel, nonzero_dist: InputDistribution,
            delta: float, n: int, beta: float) -> float:
    """Per-use probability of a non-idle symbol at blocklength n.

    Sized as (1 - beta) sqrt(delta / n) over the root of half the
    chi-squared divergence of the nonzero-symbol mixture from rho(0), so
    the quadratic covertness expansion meets the budget with margin beta.
    Clamped into (0, 1].  An array of blocklengths gives one value per entry.
    """
    mix = average_output_state(ch, nonzero_dist, "eavesdropper")
    chi2 = chi_squared(mix, ch.rho[0])
    if chi2 <= 1e-15:
        raise WrongRegimeError(
            "nonzero-symbol mixture equals rho(0); the channel admits a mixture"
        )
    value = (1.0 - beta) * np.sqrt(delta / np.asarray(n)) / math.sqrt(0.5 * chi2)
    return np.minimum(value, 1.0)


def build_input_distribution(alpha: float, nonzero_dist: InputDistribution) -> InputDistribution:
    """Codebook sampling distribution: mass 1 - alpha on the off symbol,
    alpha spread over the nonzero symbols."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if nonzero_dist.probs[0] != 0.0:
        raise ValueError("the nonzero distribution must put zero mass on symbol 0")
    probs = alpha * nonzero_dist.probs.copy()
    probs[0] = 1.0 - alpha
    return InputDistribution(probs)


def sample_codebook(pn: InputDistribution, n: int, num_messages: int, seed: int) -> Codebook:
    """Draw M codewords of length n i.i.d. from ``pn``, reproducibly.

    Symbols are drawn by inverse CDF from Philox counter-based streams
    keyed by (seed, message), so the uniform behind symbol i of message m
    depends only on (seed, m, i): identical seeds give identical codebooks
    on every platform, and growing n or M extends a codebook instead of
    resampling it (common random numbers across sweep cells).
    """
    u = np.stack([
        np.random.Generator(np.random.Philox(key=[seed, m])).random(n)
        for m in range(num_messages)
    ])
    cdf = np.cumsum(pn.probs)
    symbols = np.searchsorted(cdf, u, side="right")
    symbols = np.minimum(symbols, len(pn.probs) - 1).astype(int)
    symbols.setflags(write=False)
    return Codebook(n=n, num_messages=num_messages, codewords=symbols,
                    sampling_distribution=pn)


def _uniform(cb: Codebook) -> np.ndarray:
    return np.full(cb.num_messages, 1.0 / cb.num_messages)


def covertness_divergence(ch: CQWiretapChannel, cb: Codebook) -> float:
    """Exact divergence of the realized codebook's eavesdropper mixture from
    the idle product state (one eigvalsh; see ``channel._mixture_divergence``)."""
    return _mixture_divergence(ch, cb.codewords, _uniform(cb))


def pgm_error_probability(ch: CQWiretapChannel, cb: Codebook) -> float:
    """Average decoding error of the square-root measurement.

    The POVM elements are S^{-1/2} (sigma_m / M) S^{-1/2} on the support of
    the average output state S; the remainder element on ker(S) counts as a
    declared decoding failure.  Duplicate codewords are legal and share
    their success probability through the measurement itself.
    """
    return _receiver_pass(ch, cb.codewords, _uniform(cb), decode=True)[1]


def psi_n(ch: CQWiretapChannel, pn: InputDistribution, codeword, s: float) -> float:
    """Exponent diagnostic of the pinched hypothesis test, single-letterized.

    Computes -n Sum_x Q(x) log tr[rho(x) m^{s/2} rho(x)^{-s} m^{s/2}] where
    Q is the empirical type of the codeword and m the pn-average
    eavesdropper state (which must be full rank).  Negative powers of
    rho(x) are taken on its support, which restricts the trace accordingly.
    Never builds the n-letter tensor: both states involved are products.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError(f"s must lie in [0, 1), got {s}")
    symbols = _check_codeword(codeword, ch.k)
    mix = average_output_state(ch, pn, "eavesdropper")
    if float(np.linalg.eigvalsh(mix.mat)[0]) <= SUPPORT_TOL:
        raise ValueError("the sampling-average eavesdropper state must be full rank")
    half_power = matrix_fn(mix, lambda w: w ** (s / 2.0)).mat
    n = len(symbols)
    counts = np.bincount(symbols, minlength=ch.k)
    total = 0.0
    for x in np.nonzero(counts)[0]:
        neg_power = matrix_fn(ch.rho[x], lambda w: w ** (-s), on_support_only=True).mat
        value = float(np.einsum(
            "ij,jk,kl,li->", ch.rho[x].mat, half_power, neg_power, half_power
        ).real)
        if value <= 0.0:
            raise ArithmeticError(f"non-positive trace argument {value!r} for symbol {x}")
        total += (counts[x] / n) * math.log(value)
    return -n * total + 0.0


def pinched_test_statistic(ch: CQWiretapChannel, pn: InputDistribution,
                           codeword, a: float, delta: float) -> float:
    """Success probability of the pinched threshold test at level a.

    Pinches the codeword's eavesdropper product state in the eigenbasis of
    the i.i.d. average state m^{(x) n} and returns the overlap of the
    codeword state with the projector onto the positive part of
    (pinched - e^{sqrt(n delta) a} m^{(x) n}).  Lies in [0, 1] and is
    non-increasing in a.

    With m = U diag(l) U^H the eigenbasis is U^{(x) n} and the spectrum is
    the Kronecker product of l, grouped where sorted neighbours differ by
    more than GROUP_TOL.  In that basis the pinched state is block diagonal:
    the block of a group is the entrywise product of the letter blocks of
    U^H rho(x_c) U.  So the positive part is taken block by block, in
    Sum_g g^3 work and without any d^n x d^n matrix.
    """
    symbols = _check_codeword(codeword, ch.k)
    n = len(symbols)
    _n_letter_dim(ch, "eavesdropper", n)
    spectrum, u = np.linalg.eigh(average_output_state(ch, pn, "eavesdropper").mat)
    exponent = math.sqrt(n * delta) * a
    if exponent > 700.0:
        return 0.0
    threshold = math.exp(exponent)
    letters = u.conj().T @ np.stack([r.mat for r in ch.rho]) @ u
    product = reduce(np.kron, [spectrum] * n)
    order = np.argsort(-product, kind="stable")
    value = 0.0
    for group in np.split(order, np.flatnonzero(-np.diff(product[order]) > GROUP_TOL) + 1):
        block = np.ones((len(group), len(group)), dtype=np.complex128)
        for x, i in zip(symbols, np.unravel_index(group, (ch.eavesdropper_dim,) * n)):
            block *= letters[x][np.ix_(i, i)]
        w, v = np.linalg.eigh(block - threshold * np.diag(product[group]))
        v = v[:, w > SUPPORT_TOL]
        value += float(np.einsum("ij,ij->", v.conj(), block @ v).real)
    if not -1e-9 <= value <= 1.0 + 1e-9:
        raise ArithmeticError(f"test statistic {value!r} escaped [0, 1]")
    return value


def a_hat(ch: CQWiretapChannel, nonzero_dist: InputDistribution,
          theta: float, gamma: float, beta: float) -> float:
    """Achievable-threshold estimate from eavesdropper-side divergences.

    (1-theta)(1-gamma)(1-beta) times Sum_{x != 0} P(x) D(rho(x) || rho(0))
    over the root of half the chi-squared of the nonzero mixture; decreasing
    in each slack.
    """
    mix = average_output_state(ch, nonzero_dist, "eavesdropper")
    chi2 = chi_squared(mix, ch.rho[0])
    if chi2 <= 1e-15:
        raise WrongRegimeError("nonzero-symbol mixture equals rho(0)")
    numerator = float(nonzero_dist.probs[1:] @ relative_entropies(ch.rho[1:], ch.rho[0]))
    return (1.0 - theta) * (1.0 - gamma) * (1.0 - beta) * numerator / math.sqrt(0.5 * chi2)


def _run_cell(ch, pn: InputDistribution, covert_avg: float, params: SimParams,
              eps_target: float, a_hat_value: float) -> SimulationReport:
    """One (n, M, seed) cell; ``pn`` and ``covert_avg`` depend on n only."""
    n, m, seed = params.n, params.num_messages, params.seed
    nan = float("nan")
    try:
        cb = sample_codebook(pn, n, m, seed)
        covert = covertness_divergence(ch, cb)
        weights = _uniform(cb)
        entropy, error = _receiver_pass(ch, cb.codewords, weights, decode=m > 1)
        epsilon = error if m > 1 else 0.0
        k_n = math.log(m)
        normalized = k_n / math.sqrt(n * params.delta)

        chain = _chain_from_joint_terms(ch, cb.codewords, weights, entropy, covert)
        if epsilon >= 1.0 - 1e-12:
            bound = float("inf")
        else:
            bound = ((chain.holevo_avg_scaled + 1.0)
                     / ((1.0 - epsilon) * math.sqrt(n * params.delta)))

        return SimulationReport(
            n=n, num_messages=m, seed=seed,
            k_n=k_n,
            epsilon_n=epsilon,
            covert_div=covert,
            covert_div_avg=covert_avg,
            normalized_throughput=normalized,
            a_hat=a_hat_value,
            converse_bound=bound,
            meets_targets=bool(epsilon <= eps_target and covert <= params.delta),
            chain=chain,
        )
    except DimensionCapError as exc:
        return SimulationReport(
            n=n, num_messages=m, seed=seed,
            k_n=nan, epsilon_n=nan, covert_div=nan, covert_div_avg=nan,
            normalized_throughput=nan, a_hat=a_hat_value, converse_bound=nan,
            meets_targets=False, chain=None, skipped=str(exc),
        )


def _check_eps_target(eps_target: float):
    if not (math.isfinite(eps_target) and 0.0 <= eps_target <= 1.0):
        raise ValueError(f"decoding-error target must be a finite number in [0, 1], "
                         f"got {eps_target}")


def _run_cells(ch, eps_target: float, a_hat_value: float, jobs) -> list:
    """``_run_cell`` over ``(pn, covert_avg, params)`` jobs: one pool task."""
    return [_run_cell(ch, pn, covert_avg, params, eps_target, a_hat_value)
            for pn, covert_avg, params in jobs]


def sqrt_law_sweep(ch: CQWiretapChannel, delta: float, n_list, m_list,
                   eps_target: float, seeds, beta: float = 0.5,
                   gamma: float = 0.5, theta: float = 0.5, workers: int = 1) -> list:
    """Simulate every (n, M, seed) cell and report the full table, sorted by
    (n, M, seed).

    ``eps_target`` must be a finite number in [0, 1].  The nonzero-symbol
    distribution is the scaling-constant optimizer, so a channel outside the
    square-root regime raises WrongRegimeError before any cell runs.  Cells
    are independent; with ``workers`` > 1 they run in a process pool of at
    most one worker per cell, each worker taking one strided slice of the
    sorted cells as a single task.
    """
    _check_eps_target(eps_target)
    nonzero = scaling_constant(ch).optimizer
    a_hat_value = a_hat(ch, nonzero, theta, gamma, beta)

    cells = [
        SimParams(delta=delta, n=n, num_messages=m, seed=seed,
                  beta=beta, gamma=gamma, theta=theta)
        for n in sorted(map(int, n_list)) for m in sorted(map(int, m_list))
        for seed in sorted(map(int, seeds))
    ]
    if not cells:
        return []
    ns = list(dict.fromkeys(p.n for p in cells))
    pns = [build_input_distribution(float(a), nonzero)
           for a in alpha_n(ch, nonzero, delta, np.array(ns), beta)]
    divs = relative_entropies([average_output_state(ch, pn, "eavesdropper") for pn in pns],
                              ch.rho[0])
    per_n = {n: (pn, n * float(div)) for n, pn, div in zip(ns, pns, divs)}
    jobs = [(*per_n[p.n], p) for p in cells]
    workers = min(workers, len(jobs))
    if workers <= 1:
        return _run_cells(ch, eps_target, a_hat_value, jobs)
    # Neighbouring cells cost about the same, so strided slices stay balanced.
    reports = [None] * len(jobs)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_run_cells, [ch] * workers, [eps_target] * workers,
                         [a_hat_value] * workers, [jobs[i::workers] for i in range(workers)])
        for i, part in enumerate(parts):
            reports[i::workers] = part
    return reports
