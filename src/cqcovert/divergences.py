"""Entropy and divergence functionals, all in nats.

Every functional is computed spectrally with the 0 log 0 = 0 convention.
Results that round to a tiny negative number from floating-point
cancellation are clipped to 0; anything below -NATS_CLIP raises, since the
mathematics guarantees nonnegativity.  :class:`Letters` stacks states and
eigensolves them once for every functional read against its first state; a
channel keeps one per side.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import COMMUTE_TOL, NATS_CLIP, SUPPORT_TOL
from .operators import DensityOperator, _support_leaks

Nats = float


def _clip_nonnegative(value: float, what: str) -> float:
    if value < -NATS_CLIP:
        raise ArithmeticError(f"{what} evaluated to {value:.3e}, below the -{NATS_CLIP} floor")
    return max(value, 0.0)


def _entropy_of_spectrum(w: np.ndarray) -> float:
    w = w[w > SUPPORT_TOL]
    return float(-(w * np.log(w)).sum())


def _on_support(w: np.ndarray, v: np.ndarray, f) -> np.ndarray:
    """f(a) on supp(a), 0 off it, from the eigendecomposition a = V diag(w) V^H:
    logs and negative powers with the 0 log 0 = 0 convention."""
    on = w > SUPPORT_TOL
    return (v[:, on] * f(w[on])) @ v[:, on].conj().T


def von_neumann_entropy(a: DensityOperator) -> Nats:
    """-tr[a log a], in [0, log dim]."""
    w = np.linalg.eigvalsh(a.mat)
    return _clip_nonnegative(_entropy_of_spectrum(w), "von Neumann entropy")


def relative_entropy(a: DensityOperator, b: DensityOperator) -> Nats:
    """tr[a log a - a log b] when supp(a) lies in supp(b), else +inf."""
    return float(relative_entropies([a], b)[0])


def relative_entropies(states, ref: DensityOperator) -> np.ndarray:
    """D(s || ref) for every state s in ``states``, as :func:`relative_entropy`:
    the ``divergences`` of the letters ``(ref, *states)``."""
    if any(s.dim != ref.dim for s in states):
        raise ValueError(f"dimension mismatch: {[s.dim for s in states]} vs {ref.dim}")
    return Letters([ref, *states]).divergences[1:]


def chi_squared(rho_tilde: DensityOperator, rho_zero: DensityOperator) -> Nats:
    """tr[rho_tilde^2 rho_zero^{-1}] - 1, demanding a full-rank reference.

    The reference must be strictly full rank: a singular second argument
    signals an unsanitized channel, and silent pseudo-inversion would mask
    that configuration error.
    """
    if rho_tilde.dim != rho_zero.dim:
        raise ValueError(f"dimension mismatch: {rho_tilde.dim} vs {rho_zero.dim}")
    return Letters([rho_zero]).chi_squared_of(rho_tilde.mat)


def holevo_information(states, dist) -> Nats:
    """H(Sum_x P(x) s_x) - Sum_x P(x) H(s_x) for an ensemble of states.

    ``states`` is a sequence of DensityOperators indexed by symbol;
    ``dist`` is an InputDistribution or a bare probability vector over the
    same index set.
    """
    return float(holevo_informations(states, [dist])[0])


def holevo_informations(states, dists) -> np.ndarray:
    """chi(P) for every distribution P in ``dists``, as :func:`holevo_information`.

    The letters' entropies give every conditional entropy, and one stacked
    eigvalsh of the row mixtures every mixture entropy.
    """
    probs = np.array([getattr(p, "probs", p) for p in dists], dtype=float)
    if probs.ndim != 2 or probs.shape[1] != len(states):
        raise ValueError(f"{probs.shape[-1]} probabilities for {len(states)} states")
    return Letters(states).holevo_informations(probs)


class Letters:
    """States stacked with row 0 the reference (a channel side's off letter),
    one stacked eigendecomposition ``(w, v)`` of them, and what single-letter
    terms and n-letter passes read of it.  ``divergences``, ``inverse`` and
    ``factors`` are computed on first use; all is kept, as states never change."""

    def __init__(self, states):
        self.mats = np.stack([s.mat for s in states])
        self.w, self.v = np.linalg.eigh(self.mats)
        self.entropies = np.array([_entropy_of_spectrum(w) for w in self.w])
        # Whether supp state(x) leaves supp state(0), per row.
        self.leaks = _support_leaks(self.w, self.v, self.w[0], self.v[0])
        self.log_off = _on_support(self.w[0], self.v[0], np.log)
        # float64 when no entry has a nonzero imaginary part, so every product
        # and eigensolve built on it is real, else complex128.
        self.stack = self.mats if self.mats.imag.any() else self.mats.real.copy()

    @cached_property
    def divergences(self) -> np.ndarray:
        """D(state(x) || state(0)) per row."""
        return self.divergences_of(self.mats, (self.w, self.v))

    def divergences_of(self, mats, eigh=None) -> np.ndarray:
        """D(a || state(0)) for stacked states a, +inf where supp a leaves
        supp state(0); from ``eigh`` of them if given, else one stacked eigh."""
        w, v = np.linalg.eigh(mats) if eigh is None else eigh
        leaks = _support_leaks(w, v, self.w[0], self.v[0])
        cross = np.einsum("kij,ji->k", mats, self.log_off).real
        return np.array([
            float("inf") if leak
            else _clip_nonnegative(-_entropy_of_spectrum(a) - float(c), "relative entropy")
            for a, leak, c in zip(w, leaks, cross)
        ])

    def mixture(self, dist) -> np.ndarray:
        """Sum_x P(x) state(x), summed in symbol order over P(x) != 0: exactly
        Hermitian, as each term is."""
        probs = getattr(dist, "probs", dist)
        if len(probs) != len(self.mats):
            raise ValueError(f"{len(probs)} probabilities for alphabet of size {len(self.mats)}")
        mix = np.zeros(self.mats.shape[1:], dtype=np.complex128)
        for p, m in zip(probs, self.mats):
            if p != 0.0:
                mix += p * m
        return mix

    def holevo_informations(self, probs) -> np.ndarray:
        """chi of every row of ``probs``, a 2-d array over the states."""
        # Summed in symbol order, so no row's rounding depends on the other rows.
        mixes = sum(p[:, None, None] * m for p, m in zip(probs.T, self.mats))
        conditional = sum(p * h for p, h in zip(probs.T, self.entropies))
        return np.array([
            _clip_nonnegative(_entropy_of_spectrum(w) - c, "Holevo information")
            for w, c in zip(np.linalg.eigvalsh(mixes), conditional)
        ])

    @cached_property
    def inverse(self) -> np.ndarray:
        """state(0)^{-1}; a singular state(0) raises ValueError."""
        if self.w[0, 0] <= SUPPORT_TOL:
            raise ValueError(
                f"reference state is singular (smallest eigenvalue {self.w[0, 0]:.3e}); "
                "sanitize the channel first"
            )
        return (self.v[0] / self.w[0]) @ self.v[0].conj().T

    def chi_squared_of(self, tilde: np.ndarray) -> Nats:
        """tr[tilde^2 state(0)^{-1}] - 1."""
        value = float(np.einsum("ij,jk,ki->", tilde, tilde, self.inverse).real) - 1.0
        return _clip_nonnegative(value, "chi-squared divergence")

    @cached_property
    def factors(self) -> np.ndarray:
        """Per-row Kronecker factors: the diagonals of the states in the
        eigenbasis of Sum_x state(x) / sqrt(x + 2), a generic combination, or
        ``stack`` when some state is off-diagonal there by more than COMMUTE_TOL."""
        _, u = np.linalg.eigh(sum(m / np.sqrt(x + 2.0) for x, m in enumerate(self.mats)))
        rotated = u.conj().T @ self.mats @ u
        if np.abs(rotated * (1.0 - np.eye(len(u)))).max() > COMMUTE_TOL:
            return self.stack
        return np.diagonal(rotated, axis1=1, axis2=2).real.copy()
