"""Entropy and divergence functionals, all in nats.

Every functional is computed spectrally with the 0 log 0 = 0 convention.
Results that round to a tiny negative number from floating-point
cancellation are clipped to 0; anything below -NATS_CLIP raises, since the
mathematics guarantees nonnegativity.
"""

from __future__ import annotations

import numpy as np

from .config import NATS_CLIP, SUPPORT_TOL
from .operators import DensityOperator, _support_leaks

Nats = float


def _clip_nonnegative(value: float, what: str) -> float:
    if value < -NATS_CLIP:
        raise ArithmeticError(f"{what} evaluated to {value:.3e}, below the -{NATS_CLIP} floor")
    return max(value, 0.0)


def _entropy_of_spectrum(w: np.ndarray) -> float:
    w = w[w > SUPPORT_TOL]
    return float(-(w * np.log(w)).sum())


def _log_on_support(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log a on supp(a), 0 off it, from the eigendecomposition a = V diag(w) V^H."""
    on = w > SUPPORT_TOL
    return (v[:, on] * np.log(w[on])) @ v[:, on].conj().T


def von_neumann_entropy(a: DensityOperator) -> Nats:
    """-tr[a log a], in [0, log dim]."""
    w = np.linalg.eigvalsh(a.mat)
    return _clip_nonnegative(_entropy_of_spectrum(w), "von Neumann entropy")


def relative_entropy(a: DensityOperator, b: DensityOperator) -> Nats:
    """tr[a log a - a log b] when supp(a) lies in supp(b), else +inf."""
    return float(relative_entropies([a], b)[0])


def relative_entropies(states, ref: DensityOperator) -> np.ndarray:
    """D(s || ref) for every state s in ``states``, as :func:`relative_entropy`.

    One eigendecomposition of ``ref`` and one stacked eigendecomposition of
    the states serve the support test and both trace terms of every state.
    """
    mats = np.stack([s.mat for s in states])
    if mats.shape[1:] != ref.mat.shape:
        raise ValueError(f"dimension mismatch: {mats.shape[-1]} vs {ref.dim}")
    wa, va = np.linalg.eigh(mats)
    wb, vb = np.linalg.eigh(ref.mat)
    leaks = _support_leaks(wa, va, wb, vb)
    log_b = _log_on_support(wb, vb)
    term_b = np.einsum("kij,ji->k", mats, log_b).real
    return np.array([
        float("inf") if leak
        else _clip_nonnegative(-_entropy_of_spectrum(w) - float(cross), "relative entropy")
        for w, leak, cross in zip(wa, leaks, term_b)
    ])


def chi_squared(rho_tilde: DensityOperator, rho_zero: DensityOperator) -> Nats:
    """tr[rho_tilde^2 rho_zero^{-1}] - 1, demanding a full-rank reference.

    The reference must be strictly full rank: a singular second argument
    signals an unsanitized channel, and silent pseudo-inversion would mask
    that configuration error.
    """
    if rho_tilde.dim != rho_zero.dim:
        raise ValueError(f"dimension mismatch: {rho_tilde.dim} vs {rho_zero.dim}")
    w, v = np.linalg.eigh(rho_zero.mat)
    if w[0] <= SUPPORT_TOL:
        raise ValueError(
            f"reference state is singular (smallest eigenvalue {w[0]:.3e}); "
            "sanitize the channel first"
        )
    inv = (v / w) @ v.conj().T
    value = float(np.einsum("ij,jk,ki->", rho_tilde.mat, rho_tilde.mat, inv).real) - 1.0
    return _clip_nonnegative(value, "chi-squared divergence")


def holevo_information(states, dist) -> Nats:
    """H(Sum_x P(x) s_x) - Sum_x P(x) H(s_x) for an ensemble of states.

    ``states`` is a sequence of DensityOperators indexed by symbol;
    ``dist`` is an InputDistribution or a bare probability vector over the
    same index set.
    """
    return float(holevo_informations(states, [dist])[0])


def holevo_informations(states, dists) -> np.ndarray:
    """chi(P) for every distribution P in ``dists``, as :func:`holevo_information`.

    One stacked eigvalsh of the states gives every conditional entropy, and
    one stacked eigvalsh of the row mixtures every mixture entropy.
    """
    probs = np.array([getattr(p, "probs", p) for p in dists], dtype=float)
    if probs.ndim != 2 or probs.shape[1] != len(states):
        raise ValueError(f"{probs.shape[-1]} probabilities for {len(states)} states")
    mats = np.stack([s.mat for s in states])
    entropies = [_entropy_of_spectrum(w) for w in np.linalg.eigvalsh(mats)]
    # Summed in symbol order, so no row's rounding depends on the other rows.
    mixes = sum(p[:, None, None] * m for p, m in zip(probs.T, mats))
    conditional = sum(p * h for p, h in zip(probs.T, entropies))
    return np.array([
        _clip_nonnegative(_entropy_of_spectrum(w) - c, "Holevo information")
        for w, c in zip(np.linalg.eigvalsh(mixes), conditional)
    ])
