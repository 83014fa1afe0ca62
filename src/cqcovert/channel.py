"""The classical-quantum wiretap channel model.

A channel maps each input symbol x in {0, ..., k-1} to a receiver state
sigma(x) on a dY-dimensional space and an eavesdropper state rho(x) on a
dZ-dimensional space.  Symbol 0 is the "off" symbol the transmitter sends
when idle.  ``validate`` diagnoses raw matrix data; ``sanitize`` discards
symbols whose eavesdropper state sticks out of supp(rho(0)) (using them
would be detectable regardless of coding) and compresses the eavesdropper
space so rho(0) becomes full rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .config import (
    HERMITICITY_TOL,
    PSD_TOL,
    SUPPORT_TOL,
    TRACE_TOL,
    dim_cap,
)
from .divergences import _clip_nonnegative, _entropy_of_spectrum
from .errors import DimensionCapError, UnusableChannelError
from .operators import (
    DensityOperator,
    matrix_fn,
    support_is_contained,
)


class InputDistribution:
    """Probability vector over the input alphabet.

    Entries below -1e-12 are rejected; tiny negatives are clipped and the
    vector renormalized, so ``probs`` sums to 1 exactly.
    """

    NONNEG_TOL = 1e-12
    SUM_TOL = 1e-10

    def __init__(self, probs):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError(f"expected a 1-d probability vector, got shape {p.shape}")
        if p.min() < -self.NONNEG_TOL:
            raise ValueError(f"negative probability {p.min():.3e}")
        p = np.clip(p, 0.0, None)
        total = p.sum()
        if abs(total - 1.0) > self.SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        p = p / total
        p.setflags(write=False)
        self.probs = p

    @classmethod
    def point_mass(cls, k: int, x: int) -> "InputDistribution":
        p = np.zeros(k)
        p[x] = 1.0
        return cls(p)

    @property
    def support(self) -> tuple:
        return tuple(int(i) for i in np.nonzero(self.probs > 0.0)[0])

    def __len__(self) -> int:
        return len(self.probs)

    def __repr__(self):
        return f"InputDistribution({np.array2string(self.probs, precision=6)})"


class CQWiretapChannel:
    """Input alphabet {0, ..., k-1} with per-symbol receiver state sigma(x)
    and eavesdropper state rho(x)."""

    def __init__(self, sigma, rho):
        sigma = tuple(sigma)
        rho = tuple(rho)
        if len(sigma) != len(rho):
            raise ValueError(f"{len(sigma)} receiver states vs {len(rho)} eavesdropper states")
        if len(sigma) < 2:
            raise ValueError("alphabet must contain at least the off symbol and one more")
        if any(s.dim != sigma[0].dim for s in sigma):
            raise ValueError("receiver states differ in dimension")
        if any(r.dim != rho[0].dim for r in rho):
            raise ValueError("eavesdropper states differ in dimension")
        self.sigma = sigma
        self.rho = rho

    @classmethod
    def from_matrices(cls, sigma_mats, rho_mats) -> "CQWiretapChannel":
        return cls(
            [DensityOperator(m) for m in sigma_mats],
            [DensityOperator(m) for m in rho_mats],
        )

    @property
    def k(self) -> int:
        return len(self.sigma)

    @property
    def receiver_dim(self) -> int:
        return self.sigma[0].dim

    @property
    def eavesdropper_dim(self) -> int:
        return self.rho[0].dim

    def states(self, side: str) -> tuple:
        if side == "receiver":
            return self.sigma
        if side == "eavesdropper":
            return self.rho
        raise ValueError(f"side must be 'receiver' or 'eavesdropper', got {side!r}")

    def __repr__(self):
        return (f"CQWiretapChannel(k={self.k}, dY={self.receiver_dim}, "
                f"dZ={self.eavesdropper_dim})")


@dataclass
class ChannelDiagnostics:
    """Outcome of validating raw channel matrices."""

    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, kind: str, side: str, index, detail: str):
        self.problems.append({"kind": kind, "side": side, "index": index, "detail": detail})

    def to_dict(self) -> dict:
        return {"ok": self.ok, "problems": list(self.problems)}


def validate(sigma_mats, rho_mats) -> ChannelDiagnostics:
    """Diagnose raw channel matrices against the model invariants.

    Checks alphabet consistency, per-matrix shape, hermiticity within
    HERMITICITY_TOL, unit trace within TRACE_TOL, and positive
    semidefiniteness within PSD_TOL.  Returns a diagnostics object rather
    than raising, so callers can report every problem at once.
    """
    diag = ChannelDiagnostics()
    if len(sigma_mats) != len(rho_mats):
        diag.add("alphabet", "both", None,
                 f"{len(sigma_mats)} sigma matrices vs {len(rho_mats)} rho matrices")
    if min(len(sigma_mats), len(rho_mats)) < 2:
        diag.add("alphabet", "both", None, "alphabet must have at least 2 symbols")

    for side, mats in (("sigma", sigma_mats), ("rho", rho_mats)):
        dims = []
        for i, raw in enumerate(mats):
            m = np.asarray(raw, dtype=np.complex128)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                diag.add("shape", side, i, f"matrix has shape {m.shape}")
                continue
            dims.append(m.shape[0])
            herm_err = float(np.abs(m - m.conj().T).max())
            if herm_err > HERMITICITY_TOL:
                diag.add("hermiticity", side, i,
                         f"max |m - m^dagger| = {herm_err:.3e}")
                m = (m + m.conj().T) / 2.0
            tr = float(np.trace(m).real)
            if abs(tr - 1.0) > TRACE_TOL:
                diag.add("trace", side, i, f"trace = {tr!r}")
            wmin = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
            if wmin < -PSD_TOL:
                diag.add("psd", side, i, f"smallest eigenvalue = {wmin:.3e}")
        if dims and any(d != dims[0] for d in dims):
            diag.add("shape", side, None, f"inconsistent dimensions {sorted(set(dims))}")
    return diag


def sanitize(ch: CQWiretapChannel):
    """Discard undetectably-unusable symbols and compress the eavesdropper space.

    Removes every x whose rho(x) has support outside supp(rho(0)) (any code
    using such a symbol is detectable for every covertness budget), then
    conjugates the remaining eavesdropper states by the isometry onto
    supp(rho(0)) so that rho(0) is full rank afterwards.  Remaining symbols
    keep their relative order, with 0 fixed.

    Returns ``(channel, removed)`` where ``removed`` lists the original
    labels of discarded symbols.  Idempotent; returns the input object
    unchanged when nothing needs doing.
    """
    rho0 = ch.rho[0]
    w, v = np.linalg.eigh(rho0.mat)
    isometry = v[:, w > SUPPORT_TOL]
    rank = isometry.shape[1]

    retained = [0]
    removed = []
    for x in range(1, ch.k):
        if support_is_contained(ch.rho[x], rho0):
            retained.append(x)
        else:
            removed.append(x)
    if len(retained) == 1:
        raise UnusableChannelError(
            "every non-off symbol has eavesdropper support outside supp(rho(0)); "
            "the channel admits no covert throughput"
        )
    if not removed and rank == ch.eavesdropper_dim:
        return ch, []

    sigma = [ch.sigma[x] for x in retained]
    rho = []
    for x in retained:
        compressed = isometry.conj().T @ ch.rho[x].mat @ isometry
        compressed = compressed / np.trace(compressed).real
        rho.append(DensityOperator(compressed))
    return CQWiretapChannel(sigma, rho), removed


def product_output_state(ch: CQWiretapChannel, codeword, side: str) -> DensityOperator:
    """Tensor product of the per-symbol output states along a codeword, with
    one cap check; exactly Hermitian (see ``operators.tensor_product``)."""
    symbols = _check_codeword(codeword, ch.k)
    _n_letter_dim(ch, side, len(symbols))
    states = ch.states(side)
    return DensityOperator._exact(reduce(np.kron, [states[x].mat for x in symbols]))


def average_output_state(ch: CQWiretapChannel, dist, side: str) -> DensityOperator:
    """Single-letter output state Sum_x P(x) state(x)."""
    probs = np.asarray(getattr(dist, "probs", dist), dtype=float)
    states = ch.states(side)
    if len(probs) != len(states):
        raise ValueError(f"{len(probs)} probabilities for alphabet of size {len(states)}")
    mix = np.zeros((states[0].dim, states[0].dim), dtype=np.complex128)
    for p, state in zip(probs, states):
        if p != 0.0:
            mix += p * state.mat
    return DensityOperator(mix, validate=False)


def _n_letter_dim(ch: CQWiretapChannel, side: str, n: int) -> int:
    """Dimension of the n-letter space on ``side``, checked against the cap."""
    dim = ch.states(side)[0].dim ** n
    cap = dim_cap()
    if dim > cap:
        raise DimensionCapError(f"{side} space of dimension {dim} exceeds the cap {cap}")
    return dim


def _letter_mass(codewords: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Sum_m w_m #{i : x_mi = x} for every symbol x."""
    n = codewords.shape[1]
    return np.bincount(codewords.ravel(), weights=np.repeat(weights, n), minlength=k)


def _codebook_mixture(ch: CQWiretapChannel, codewords: np.ndarray,
                      weights: np.ndarray, side: str) -> np.ndarray:
    """Sum_m w_m (n-letter output state of codeword m) on ``side``, as an array."""
    dim = _n_letter_dim(ch, side, codewords.shape[1])
    mix = np.zeros((dim, dim), dtype=np.complex128)
    for w, cw in zip(weights, codewords):
        if w > 0.0:
            mix += w * product_output_state(ch, cw, side).mat
    return mix


def _mixture_divergence(ch: CQWiretapChannel, codewords: np.ndarray,
                        weights: np.ndarray) -> float:
    """D(eavesdropper codebook mixture || rho(0)^{(x) n}) from one eigvalsh.

    On supports log rho(0)^{(x) n} is a sum of one-letter terms, so the cross
    term is Sum_x mass(x) tr[rho(x) log rho(0)].  Supports of products are
    products of supports, so the result is +inf exactly when a letter used
    with positive weight has supp rho(x) outside supp rho(0)."""
    mix = _codebook_mixture(ch, codewords, weights, "eavesdropper")
    mass = _letter_mass(codewords, weights, ch.k)
    used = np.nonzero(mass)[0]
    if not all(support_is_contained(ch.rho[x], ch.rho[0]) for x in used):
        return float("inf")
    log_rho0 = matrix_fn(ch.rho[0], np.log, on_support_only=True).mat
    cross = sum(mass[x] * float(np.einsum("ij,ji->", ch.rho[x].mat, log_rho0).real)
                for x in used)
    entropy = _entropy_of_spectrum(np.linalg.eigvalsh(mix))
    return _clip_nonnegative(-entropy - cross, "relative entropy")


def _receiver_pass(ch: CQWiretapChannel, codewords: np.ndarray,
                   weights: np.ndarray, decode: bool) -> tuple:
    """Entropy of the receiver codebook mixture S and, with ``decode``, the
    error of its square-root measurement (else None).  With A = S^{-1/2} on
    supp S, codeword m succeeds with w_m^2 tr[(A sigma_m)^2]: one matrix
    product on a state rebuilt, not kept, so memory is O(d_Y^{2n}) for any M."""
    mix = _codebook_mixture(ch, codewords, weights, "receiver")
    if not decode:
        return _entropy_of_spectrum(np.linalg.eigvalsh(mix)), None
    w, v = np.linalg.eigh(mix)
    on = w > SUPPORT_TOL
    inv_sqrt = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    success = 0.0
    for weight, cw in zip(weights, codewords):
        if weight > 0.0:
            rotated = inv_sqrt @ product_output_state(ch, cw, "receiver").mat
            success += weight * weight * float(np.einsum("ij,ji->", rotated, rotated).real)
    return _entropy_of_spectrum(w), min(max(1.0 - success, 0.0), 1.0)


def _check_codeword(codeword, k: int) -> np.ndarray:
    symbols = np.asarray(codeword, dtype=int)
    if symbols.ndim != 1 or len(symbols) == 0:
        raise ValueError("codeword must be a non-empty 1-d symbol sequence")
    if symbols.min() < 0 or symbols.max() >= k:
        raise ValueError(f"codeword symbols must lie in [0, {k})")
    return symbols
