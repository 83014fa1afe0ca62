"""Checks of the program's outputs, computed apart from the program.

Everything here works on the raw matrices of the channel files and on
numpy and scipy directly.  The only package values a check reads are the
outputs under test.
"""

from __future__ import annotations

import dataclasses
import math
from functools import reduce

import numpy as np
import scipy.linalg as sla

from inputs import BETA, DELTA

ABS_TOL = 1e-9
REL_TOL = 1e-7


def close(value, expected, abs_tol=ABS_TOL, rel_tol=REL_TOL) -> bool:
    return bool(np.isfinite(value)) and abs(value - expected) <= abs_tol + rel_tol * abs(expected)


def fingerprint(value):
    """Exact, comparable form of a result: every float and array bit for bit."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, fingerprint(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if hasattr(value, "probs"):
        return fingerprint(value.probs)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(fingerprint(v) for v in value)
    return repr(value)


def entropy(mat) -> float:
    w = np.linalg.eigvalsh(mat)
    w = w[w > 1e-12]
    return float(-(w * np.log(w)).sum())


def relative_entropy_logm(rho, sigma) -> float:
    """tr rho (logm rho - logm sigma), for full-rank states."""
    return float(np.trace(rho @ (sla.logm(rho) - sla.logm(sigma))).real)


def kl(p, q) -> float:
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def holevo(states, probs) -> float:
    mix = sum(p * s for p, s in zip(probs, states))
    return entropy(mix) - sum(p * entropy(s) for p, s in zip(probs, states) if p > 0.0)


def kron_all(mats):
    return reduce(np.kron, mats)


# --- sweeps -----------------------------------------------------------------

def sweep_alpha(rho, n: int) -> float:
    """Per-use probability of the non-idle symbol of a k = 2 channel:
    (1 - beta) sqrt(delta / n) / sqrt(chi2 / 2), clamped to 1."""
    chi2 = float(np.trace(rho[1] @ rho[1] @ np.linalg.inv(rho[0])).real) - 1.0
    return min((1.0 - BETA) * math.sqrt(DELTA / n) / math.sqrt(0.5 * chi2), 1.0)


def codebook(seed: int, n: int, m: int, alpha: float) -> np.ndarray:
    """The documented sampling scheme: the uniform behind symbol i of message
    m is drawn at counter position i of Philox keyed by (seed, m), then
    mapped through the inverse CDF of (1 - alpha, alpha)."""
    probs = np.array([1.0 - alpha, alpha])
    cdf = np.cumsum(probs / probs.sum())
    u = np.stack([np.random.Generator(np.random.Philox(key=[seed, i])).random(n)
                  for i in range(m)])
    return np.minimum(np.searchsorted(cdf, u, side="right"), 1)


def pgm_error(states) -> float:
    """Square-root-measurement error recomputed with sqrtm and pinvh."""
    m = len(states)
    inv_sqrt = sla.sqrtm(sla.pinvh(sum(states) / m))
    success = sum(float(np.trace(inv_sqrt @ s @ inv_sqrt @ s).real) for s in states)
    return 1.0 - success / (m * m)


class SweepChecker:
    """Checks of sweep cells on one k = 2 channel, with per-n references cached.

    ``exact(n)`` picks the covertness reference: "classical" for diagonal
    eavesdropper letters (KL over 2^n outcomes), "logm" for the matrix
    logarithm, "entropy" for a maximally mixed idle state.
    """

    def __init__(self, sigma, rho, exact):
        self.sigma, self.rho, self.exact = sigma, rho, exact
        self._per_n = {}

    def per_n(self, n):
        if n not in self._per_n:
            rho = self.rho
            alpha = sweep_alpha(rho, n)
            mix1 = (1.0 - alpha) * rho[0] + alpha * rho[1]
            exact = self.exact(n)
            if exact == "classical":
                idle = kron_all([np.diag(rho[0]).real] * n)
            elif exact == "logm":
                idle = sla.logm(kron_all([rho[0]] * n))
            else:
                idle = None
            self._per_n[n] = (alpha, n * relative_entropy_logm(mix1, rho[0]), exact, idle)
        return self._per_n[n]

    def problems(self, report, pgm: bool) -> list:
        """Every check of one cell; an empty list means the cell passed."""
        n, m = report.n, report.num_messages
        if report.skipped is not None:
            return [f"skipped: {report.skipped}"]
        problems = []
        if not 0.0 <= report.epsilon_n <= 1.0:
            problems.append(f"epsilon_n {report.epsilon_n!r} outside [0, 1]")
        if not (report.chain is not None and report.chain.receiver_ok
                and report.chain.eavesdropper_ok):
            problems.append("converse chain link violated")
        if report.k_n != math.log(m):
            problems.append("K_n differs from log M")

        alpha, div_avg, exact, idle = self.per_n(n)
        if not close(report.covert_div_avg, div_avg):
            problems.append("covert_div_avg differs from n D(avg || rho0)")

        words, counts = np.unique(codebook(report.seed, n, m, alpha), axis=0,
                                  return_counts=True)
        weights = counts / m
        if exact == "classical":
            p = [np.diag(r).real for r in self.rho]
            mixture = sum(w * kron_all([p[x] for x in cw]) for w, cw in zip(weights, words))
            expected = kl(mixture, idle)
        else:
            mixture = sum(w * kron_all([self.rho[x] for x in cw])
                          for w, cw in zip(weights, words))
            if exact == "logm":
                expected = float(np.trace(mixture @ (sla.logm(mixture) - idle)).real)
            else:
                expected = n * math.log(self.rho[0].shape[0]) - entropy(mixture)
        if not close(report.covert_div, expected):
            problems.append(f"covert_div {report.covert_div!r} vs {exact} {expected!r}")

        if pgm and m > 1:
            words = codebook(report.seed, n, m, alpha)
            expected = pgm_error([kron_all([self.sigma[x] for x in cw]) for cw in words])
            if not close(report.epsilon_n, expected, abs_tol=1e-8):
                problems.append(f"epsilon_n {report.epsilon_n!r} vs PGM {expected!r}")
        return problems


# --- solve ------------------------------------------------------------------

def scaling_problems(result, sigma, rho, rng, grid_oracle) -> list:
    """Checks of one scaling-constant result against d and Q recomputed here."""
    k = len(sigma)
    d = np.array([relative_entropy_logm(sigma[x], sigma[0]) for x in range(1, k)])
    inv0 = np.linalg.inv(rho[0])
    q = np.array([[float(np.trace(rho[x] @ rho[y] @ inv0).real) for y in range(1, k)]
                  for x in range(1, k)])

    def ratio(p):
        return float(p @ d) / math.sqrt(0.5 * (float(p @ q @ p) - 1.0))

    L = result.L
    problems = []
    if not (np.isfinite(L) and L > 0.0):
        return [f"L = {L!r}"]
    if k == 2 and not close(L, d[0] / math.sqrt(0.5 * (q[0, 0] - 1.0)), rel_tol=1e-9):
        problems.append("L differs from the k = 2 closed form")
    if k > 2:
        points = np.vstack([np.eye(k - 1), rng.dirichlet(np.ones(k - 1), size=256)])
        worst = max(ratio(p) for p in points)
        if worst > L * (1.0 + 1e-9):
            problems.append(f"ratio {worst!r} at a simplex point exceeds L = {L!r}")
    if not close(ratio(np.asarray(result.optimizer.probs[1:])), L, rel_tol=1e-8):
        problems.append("ratio at the optimizer differs from L")
    if k <= 5:
        resolution = 1e-3 if k <= 4 else 5e-3
        oracle = grid_oracle(resolution)
        if oracle > L + 1e-9 or (L - oracle) > resolution * L:
            problems.append(f"grid oracle {oracle!r} at {resolution} vs L = {L!r}")
    return problems


def rate_problems(result, witness, sigma, rho, gap_tol) -> list:
    """Checks of one covert-rate result against Holevo information recomputed here."""
    probs = np.asarray(result.optimizer.probs)
    problems = []
    residual = float(np.linalg.norm(sum(p * r for p, r in zip(probs, rho)) - rho[0]))
    if result.feasibility_residual > 1e-8 or residual > 1e-8:
        problems.append(f"feasibility residual {max(residual, result.feasibility_residual):.3e}")
    if not close(result.rate, holevo(sigma, probs), abs_tol=1e-10):
        problems.append("rate differs from the Holevo information at the optimizer")
    if witness is None or result.rate < holevo(sigma, witness.probs) - 1e-10:
        problems.append("rate below the Holevo information at the classify witness")
    if not result.gap <= gap_tol:
        problems.append(f"Frank-Wolfe gap {result.gap!r} above {gap_tol}")
    return problems
