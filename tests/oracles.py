"""Independent oracles and dense references.

The scalar-formula oracles work on plain probability vectors, deliberately
avoiding the package's operator machinery, so simultaneously-diagonal
(classical) channels can be checked against a second code path.

The dense n-letter references build every n-letter matrix explicitly: each
codeword state, both codebook mixtures and the idle tensor power.  They use
none of the package's product-structure shortcuts (the additive logarithm of
the idle state, the per-letter support rule, the head and tail factors of the
square-root measurement, the spectrum of commuting letters), only its
single-letter functionals on the dense matrices.

The pinching reference groups the spectrum of the whole n-letter average
state by one dense eigensolve, pinches with one projector per group and takes
the positive part by a second dense eigensolve, instead of the package's
block-by-block path on the product spectrum.

The relative-entropy reference takes its logarithms with scipy's
Schur-Pade ``logm`` instead of an eigenbasis, on supports cut out by
explicit projectors.

The ray-QP reference enumerates supports, the exponential method the
package's active-set solver replaced, and certifies each with the package's
own KKT check.

The Holevo reference takes one eigvalsh per used letter and one of the
mixture, the per-letter loop that the package's stacked form replaced.

The covert-rate reference maximizes the Holevo information with scipy's
SLSQP, from its own entropies and gradient, instead of the package's
Frank-Wolfe and Newton path.

The mixture reference decides the regime by scipy's HiGHS on the raw
matrices, one equality row per real and per imaginary part of every entry,
as the package did before it certified square-root channels without a
linear program; it also reports the maximum masses the certificate bounds.

``matrix_fn`` applies a scalar function in the eigenbasis of one operator,
the per-call matrix function the package replaced by spectra it already
holds.
"""

import math
from functools import reduce
from itertools import combinations

import numpy as np
from scipy.linalg import logm
from scipy.optimize import linprog, minimize

import cqcovert as cq
from cqcovert.config import (MIXTURE_MASS_TOL, STATE_EQUALITY_TOL, SUPPORT_INCLUSION_TOL,
                             SUPPORT_TOL)
from cqcovert.regime import _kkt_candidate


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def kl(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any((p > 1e-12) & (q <= 1e-12)):
        return float("inf")
    mask = p > 0.0
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())


def chi2(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float((p * p / q).sum() - 1.0)


def mutual_information(weights, conditionals) -> float:
    """I(X;Y) in nats for P(X) = weights, P(Y|X=x) = conditionals[x]."""
    weights = np.asarray(weights, dtype=float)
    conditionals = np.asarray(conditionals, dtype=float)
    marginal = weights @ conditionals
    return entropy(marginal) - float(sum(
        w * entropy(c) for w, c in zip(weights, conditionals) if w > 0.0
    ))


def holevo_information_loop(states, probs) -> float:
    """chi(P) letter by letter, skipping letters of zero weight, with the
    package's 1e-12 spectral cutoff."""
    def spectral_entropy(mat):
        w = np.linalg.eigvalsh(mat)
        return entropy(w[w > 1e-12])

    mix, conditional = 0.0, 0.0
    for p, state in zip(probs, states):
        if p > 0.0:
            mix = mix + p * state.mat
            conditional += p * spectral_entropy(state.mat)
    return max(spectral_entropy(mix) - conditional, 0.0)


def divergence_and_gram(sigma_diags, rho_diags) -> tuple:
    """d vector and chi-squared Gram for a fully diagonal channel."""
    d = np.array([kl(s, sigma_diags[0]) for s in sigma_diags[1:]])
    rho0 = np.asarray(rho_diags[0], dtype=float)
    rest = [np.asarray(r, dtype=float) for r in rho_diags[1:]]
    r = len(rest)
    gram = np.empty((r, r))
    for i in range(r):
        for j in range(r):
            gram[i, j] = float((rest[i] * rest[j] / rho0).sum())
    return d, gram


def scaling_constant_two_symbols(d1: float, q11: float) -> float:
    """Closed form for a k = 2 channel: the simplex is a single point."""
    return d1 / math.sqrt(0.5 * (q11 - 1.0))


def enumerated_ray_qp(a_mat, d):
    """min 1/2 v^T A v  s.t.  d^T v = 1, v >= 0, by support enumeration.

    Tries every support in order of size and returns the first one that
    passes the package's KKT check, as ``(v, objective, kkt_residual)``;
    any KKT point of a convex program is a global minimum.  Exponential in
    the size of the optimal support, so it is a reference only.
    """
    scale = max(float(np.abs(a_mat).max()), float(np.abs(d).max()), 1.0)
    for size in range(1, len(d) + 1):
        for support in combinations(range(len(d)), size):
            found = _kkt_candidate(a_mat, d, support, scale)
            if found is not None:
                return found
    raise ArithmeticError("no KKT-verified support exists; inputs are degenerate")


def slsqp_covert_rate(sigma_mats, rho_mats, start) -> float:
    """max chi(P) over P >= 0 with Sum_x P(x) rho(x) = rho(0), by SLSQP from ``start``.

    chi(P) = S(Sum_x P(x) sigma(x)) - Sum_x P(x) S(sigma(x)), with gradient
    -tr[sigma(x) log sigma_bar] - S(sigma(x)) - 1; it needs full-rank
    mixtures.  The equality rows are the Hermitian coordinates of rho(x) and
    the normalization, reduced to an orthonormal basis of their row space
    because SLSQP stalls on dependent rows.
    """
    sigma = np.stack([np.asarray(m) for m in sigma_mats])
    rho = np.stack([np.asarray(m) for m in rho_mats])
    letter_entropy = np.array([entropy(np.linalg.eigvalsh(m)) for m in sigma])
    rows, cols = np.triu_indices(rho.shape[-1], k=1)
    coords = np.concatenate([np.diagonal(rho, axis1=1, axis2=2).real,
                             rho[:, rows, cols].real, rho[:, rows, cols].imag], axis=1)
    a_eq = np.vstack([coords.T, np.ones(len(rho))])
    b_eq = np.concatenate([coords[0], [1.0]])
    u, sv, vt = np.linalg.svd(a_eq, full_matrices=False)
    rank = int((sv > 1e-10 * sv[0]).sum())
    a_eq, b_eq = vt[:rank], (u[:, :rank].T @ b_eq) / sv[:rank]

    def negative_chi(p):
        w, v = np.linalg.eigh(np.tensordot(p, sigma, axes=1))
        w = np.clip(w, 1e-300, None)
        log_mix = (v * np.log(w)) @ v.conj().T
        value = -float(w @ np.log(w)) - float(p @ letter_entropy)
        grad = -np.einsum("xij,ji->x", sigma, log_mix).real - letter_entropy - 1.0
        return -value, -grad

    res = minimize(negative_chi, np.asarray(start, dtype=float), jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * len(rho),
                   constraints=[{"type": "eq", "fun": lambda p: a_eq @ p - b_eq,
                                 "jac": lambda p: a_eq}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    if np.abs(a_eq @ res.x - b_eq).max() > 1e-9:
        raise ArithmeticError(f"SLSQP left the mixture polytope: {res.message}")
    return -float(res.fun)


def kubo_mori_quadratic(rho0_mat, tilde_mat) -> float:
    """Exact second derivative of a -> D((1-a) rho0 + a rho_tilde || rho0) at 0.

    In the eigenbasis of rho0 this is Sum_ij |X_ij|^2 (ln li - ln lj)/(li - lj)
    with X = rho_tilde - rho0 (the Kubo-Mori metric).  For commuting pairs it
    coincides with the tr[rho_tilde^2 rho0^{-1}] - 1 form; in general it is
    strictly smaller.
    """
    w, v = np.linalg.eigh(np.asarray(rho0_mat))
    x = v.conj().T @ (np.asarray(tilde_mat) - np.asarray(rho0_mat)) @ v
    total = 0.0
    for i in range(len(w)):
        for j in range(len(w)):
            if abs(w[i] - w[j]) < 1e-12:
                coeff = 1.0 / w[i]
            else:
                coeff = (math.log(w[i]) - math.log(w[j])) / (w[i] - w[j])
            total += abs(x[i, j]) ** 2 * coeff
    return total


def dense_mixture(states, codewords, weights) -> np.ndarray:
    """Sum_m w_m (x)_i states[x_mi], with every Kronecker product built."""
    return sum(w * reduce(np.kron, [states[x].mat for x in cw])
               for w, cw in zip(weights, codewords))


def dense_covertness_divergence(ch, codewords, weights) -> float:
    """D(eavesdropper mixture || rho0^{(x) n}) against the explicit tensor power."""
    mix = cq.DensityOperator(dense_mixture(ch.rho, codewords, weights), validate=False)
    return cq.relative_entropy(mix, cq.tensor_power(ch.rho[0], np.shape(codewords)[1]))


def dense_pgm_error(ch, codewords, weights=None) -> float:
    """Square-root-measurement error for codewords sent with ``weights``
    (equiprobable by default), with every codeword state held and the
    two-sided product S^{-1/2} w_m sigma_m S^{-1/2}."""
    outputs = [reduce(np.kron, [ch.sigma[x].mat for x in cw]) for cw in codewords]
    if weights is None:
        weights = np.full(len(outputs), 1.0 / len(outputs))
    w, v = np.linalg.eigh(sum(p * out for p, out in zip(weights, outputs)))
    on = w > 1e-12
    inv_sqrt = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    success = sum(p * p * float(np.einsum("ij,ji->", inv_sqrt @ out @ inv_sqrt, out).real)
                  for p, out in zip(weights, outputs))
    return min(max(1.0 - success, 0.0), 1.0)


def dense_joint_terms(ch, codewords, weights) -> tuple:
    """(holevo_joint, div_joint) of the converse chain, both mixtures rebuilt."""
    conditional = sum(w * sum(cq.von_neumann_entropy(ch.sigma[x]) for x in cw)
                      for w, cw in zip(weights, codewords))
    joint = cq.DensityOperator(dense_mixture(ch.sigma, codewords, weights), validate=False)
    holevo = max(cq.von_neumann_entropy(joint) - conditional, 0.0)
    return holevo, dense_covertness_divergence(ch, codewords, weights)


def chi_squared_frobenius(rho_tilde, rho_zero) -> float:
    """chi-squared divergence via ||rho_zero^{-1/2} (rho_tilde - rho_zero)||_F^2.

    Independent code path kept as an algebraic cross-check of
    :func:`cqcovert.chi_squared`; do not fold the two together.
    """
    w, v = np.linalg.eigh(rho_zero.mat)
    if w[0] <= 1e-12:
        raise ValueError("reference state is singular")
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    diff = rho_tilde.mat - rho_zero.mat
    return float(np.linalg.norm(inv_sqrt @ diff) ** 2)


def partial_trace(a, factor_dims, keep: int):
    """Marginal of ``a`` on the ``keep``-th factor of a declared product space.

    ``factor_dims`` lists the dimension of each tensor factor (their product
    must equal ``a.dim``); ``keep`` is the 0-based factor index to retain.
    The trace is preserved.
    """
    dims = [int(d) for d in factor_dims]
    if math.prod(dims) != a.dim:
        raise ValueError(f"factor dims {dims} do not multiply to {a.dim}")
    if not 0 <= keep < len(dims):
        raise ValueError(f"keep={keep} out of range for {len(dims)} factors")
    before = math.prod(dims[:keep])
    after = math.prod(dims[keep + 1:])
    d = dims[keep]
    out = np.einsum("aibajb->ij", a.mat.reshape(before, d, after, before, d, after))
    if isinstance(a, cq.DensityOperator):
        return cq.DensityOperator(out, validate=False)
    return cq.HermitianOperator(out)


def positive_part_projector(a):
    """Projector onto the span of eigenvectors with eigenvalue > 1e-12."""
    w, v = np.linalg.eigh(a.mat)
    cols = v[:, w > 1e-12]
    return cq.HermitianOperator(cols @ cols.conj().T)


def support_projector(a):
    """Projector onto the support of ``a``, which must be positive
    semidefinite within 1e-10."""
    w = np.linalg.eigvalsh(a.mat)
    if w[0] < -1e-10:
        raise ValueError(f"eigenvalue {w[0]:.3e} below the -1e-10 floor")
    return positive_part_projector(a)


def eig_groups(b, group_tol=1e-9) -> tuple:
    """``(eigenvalues, projectors)``: the spectrum of ``b`` sorted descending and
    split where neighbours differ by more than ``group_tol``, with the mean
    and the orthogonal projector of each group."""
    w, v = np.linalg.eigh(b.mat)
    w, v = w[::-1], v[:, ::-1]
    cuts = np.flatnonzero(w[:-1] - w[1:] > group_tol) + 1
    means = np.array([g.mean() for g in np.split(w, cuts)])
    return means, [c @ c.conj().T for c in np.split(v, cuts, axis=1)]


def pinch(a, b, group_tol=1e-9):
    """Dephase ``a`` in the grouped eigenbasis of ``b``: Sum_g P_g a P_g."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return cq.HermitianOperator(sum(p @ a.mat @ p for p in eig_groups(b, group_tol)[1]))


def dense_pinched_test_statistic(ch, pn, codeword, levels, delta) -> list:
    """tr[rho_x P] at each level a, with P the positive-part projector of
    pinch(rho_x, m) - e^{sqrt(n delta) a} m, where rho_x is the codeword's
    eavesdropper state and m the n-th tensor power of the pn-average letter,
    both built by ``np.kron``."""
    n = len(codeword)
    state = cq.HermitianOperator(reduce(np.kron, [ch.rho[x].mat for x in codeword]))
    mix = sum(p * r.mat for p, r in zip(pn.probs, ch.rho))
    avg = cq.HermitianOperator(reduce(np.kron, [mix] * n))
    pinched = pinch(state, avg).mat
    projectors = [positive_part_projector(cq.HermitianOperator(
        pinched - math.exp(math.sqrt(n * delta) * a) * avg.mat)) for a in levels]
    return [float(np.einsum("ij,ji->", state.mat, p.mat).real) for p in projectors]


def trace_norm(a) -> float:
    """Sum of absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(a.mat)).sum())


def relative_entropy_logm(a, b) -> float:
    """tr[a log a] - tr[a log b] with both logarithms from ``scipy.linalg.logm``.

    With P the support projector of a state s, log(s + I - P) is log s on
    supp(s) and 0 off it, so it is the logarithm under the 0 log 0 = 0
    convention.  supp(a) leaves supp(b) iff tr[(I - P_b) a] > 0, and then
    the divergence is +inf.
    """
    eye = np.eye(a.dim)
    off_b = eye - support_projector(b).mat
    if float(np.trace(off_b @ a.mat).real) > 1e-9:
        return float("inf")
    log_a = logm(a.mat + eye - support_projector(a).mat)
    log_b = logm(b.mat + off_b)
    return float(np.trace(a.mat @ (log_a - log_b)).real)


def matrix_fn(a, f, on_support_only: bool = False):
    """Apply a scalar function to a Hermitian operator in its eigenbasis.

    With ``on_support_only`` set, eigenvalues at or below SUPPORT_TOL map to
    zero and ``f`` is applied only to the rest (the 0 log 0 = 0 convention
    for logs and negative powers on the support).  Without it, ``f`` must be
    finite on the whole spectrum.
    """
    w, v = np.linalg.eigh(a.mat)
    if on_support_only:
        fw = np.zeros_like(w)
        on = w > SUPPORT_TOL
        if np.any(on):
            fw[on] = f(w[on])
    else:
        with np.errstate(all="ignore"):
            fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise ValueError(
            "scalar function is not finite on the spectrum; "
            "pass on_support_only=True for logs and negative powers"
        )
    return cq.HermitianOperator((v * fw) @ v.conj().T)


def mixture_lp_verdict(ch):
    """``(regime, witness, flag, masses)`` of a sanitized channel by one LP per
    objective set on the raw matrices.

    ``masses`` holds the maximum of the mass on the informative symbols and
    on all nonzero symbols over the distributions whose eavesdropper mixture
    is rho(0); ``witness`` is the informative maximizer's probabilities when
    that mass exceeds MIXTURE_MASS_TOL (blended with the off symbol if it
    carries no Holevo information), else None; ``flag`` is raised when only
    the nonzero mass does.
    """
    k = ch.k
    flat = np.stack([r.mat for r in ch.rho]).reshape(k, -1)
    a_eq = np.vstack([flat.real.T, flat.imag.T, np.ones((1, k))])
    b_eq = np.concatenate([flat[0].real, flat[0].imag, [1.0]])

    def max_mass(symbols):
        cost = np.zeros(k)
        cost[list(symbols)] = -1.0
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
        assert res.status == 0, res.message
        return -float(res.fun), res.x

    informative = [x for x in range(1, k) if trace_norm(
        cq.HermitianOperator(ch.sigma[x].mat - ch.sigma[0].mat)) > STATE_EQUALITY_TOL]
    masses = {"informative": 0.0, "nonzero": max_mass(range(1, k))[0]}
    witness = None
    if informative:
        masses["informative"], x = max_mass(informative)
        if masses["informative"] > MIXTURE_MASS_TOL:
            witness = np.clip(x, 0.0, None)
            witness = witness / witness.sum()
            if holevo_information_loop(ch.sigma, witness) <= 0.0:
                witness = 0.5 * witness + 0.5 * np.eye(k)[0]
    flag = witness is None and masses["nonzero"] > MIXTURE_MASS_TOL

    off_zero = np.eye(ch.receiver_dim) - support_projector(ch.sigma[0]).mat
    leaks = any(np.linalg.norm(off_zero @ support_projector(s).mat, 2) > SUPPORT_INCLUSION_TOL
                for s in ch.sigma[1:])
    if witness is not None:
        regime = cq.Regime.POSITIVE_RATE
    elif leaks:
        regime = cq.Regime.SUPER_SQUARE_ROOT
    else:
        regime = cq.Regime.SQUARE_ROOT
    return regime, witness, flag, masses
