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
"""

import math
from functools import reduce

import numpy as np

import cqcovert as cq


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


def support_projector(a):
    """Projector onto the span of eigenvectors with eigenvalue > 1e-12;
    ``a`` must be positive semidefinite within 1e-10."""
    w, v = np.linalg.eigh(a.mat)
    if w[0] < -1e-10:
        raise ValueError(f"eigenvalue {w[0]:.3e} below the -1e-10 floor")
    cols = v[:, w > 1e-12]
    return cq.Projector(cols @ cols.conj().T, validate=False)
