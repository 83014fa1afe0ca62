"""The classical-quantum wiretap channel model.

A channel maps each input symbol x in {0, ..., k-1} to a receiver state
sigma(x) on a dY-dimensional space and an eavesdropper state rho(x) on a
dZ-dimensional space.  Symbol 0 is the "off" symbol the transmitter sends
when idle.  ``validate`` diagnoses raw matrix data; ``sanitize`` discards
symbols whose eavesdropper state sticks out of supp(rho(0)) (using them
would be detectable regardless of coding) and compresses the eavesdropper
space so rho(0) becomes full rank.
A channel prepares each side once, as the ``divergences.Letters`` that every
single-letter term and n-letter pass reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (
    HERMITICITY_TOL,
    PSD_TOL,
    SUPPORT_TOL,
    TRACE_TOL,
    dim_cap,
)
from .divergences import Letters, _clip_nonnegative, _entropy_of_spectrum
from .errors import DimensionCapError, UnusableChannelError
from .operators import DensityOperator


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
    and eavesdropper state rho(x); ``receiver`` and ``eavesdropper`` are the
    :class:`Letters` of each side."""

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
        self.receiver, self.eavesdropper = Letters(sigma), Letters(rho)

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

    Checks alphabet consistency, finite entries (else no further check),
    per-matrix shape, hermiticity within HERMITICITY_TOL, unit trace within
    TRACE_TOL, and positive semidefiniteness within PSD_TOL.  Returns a
    diagnostics object rather than raising, so callers can report every
    problem at once.
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
            bad = m.size - int(np.isfinite(m).sum())
            if bad:
                diag.add("non-finite", side, i, f"{bad} of {m.size} entries are NaN or infinite")
                continue
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
    letters = ch.eavesdropper
    isometry = letters.v[0][:, letters.w[0] > SUPPORT_TOL]
    rank = isometry.shape[1]

    removed = [x for x in range(1, ch.k) if letters.leaks[x]]
    retained = [x for x in range(ch.k) if x not in removed]
    if len(retained) == 1:
        raise UnusableChannelError(
            "every non-off symbol has eavesdropper support outside supp(rho(0)); "
            "the channel admits no covert throughput"
        )
    if not removed and rank == ch.eavesdropper_dim:
        return ch, []

    # Compressions of states by an isometry are PSD by construction.
    compressed = isometry.conj().T @ letters.mats[retained] @ isometry
    compressed /= np.trace(compressed, axis1=1, axis2=2).real[:, None, None]
    rho = [DensityOperator(m, validate=False) for m in compressed]
    return CQWiretapChannel([ch.sigma[x] for x in retained], rho), removed


def product_output_state(ch: CQWiretapChannel, codeword, side: str) -> DensityOperator:
    """Tensor product of the per-symbol output states along a codeword, with
    one cap check; exactly Hermitian (see ``operators.tensor_product``)."""
    symbols = _check_codeword(codeword, ch.k)
    _n_letter_dim(ch, side, len(symbols))  # also rejects an unknown side
    factor = _kron_factors(getattr(ch, side).mats)
    return DensityOperator._exact(factor(tuple(symbols.tolist())))


def average_output_state(ch: CQWiretapChannel, dist, side: str) -> DensityOperator:
    """Single-letter output state Sum_x P(x) state(x)."""
    ch.states(side)  # rejects an unknown side
    return DensityOperator(getattr(ch, side).mixture(dist), validate=False)


def _n_letter_dim(ch: CQWiretapChannel, side: str, n: int) -> int:
    """Dimension of the n-letter space on ``side``, checked against the cap; with
    d >= 2 any n above the cap's bit length is over it, decided without d^n."""
    d = ch.states(side)[0].dim
    cap = dim_cap()
    if d > 1 and n > cap.bit_length() or d ** n > cap:
        raise DimensionCapError(f"{side} space of dimension {d}^{n} exceeds the cap {cap}")
    return d ** n


def _letter_mass(codewords: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """Sum_m w_m #{i : x_mi = x} for every symbol x."""
    n = codewords.shape[1]
    return np.bincount(codewords.ravel(), weights=np.repeat(weights, n), minlength=k)


def _kron_factors(letters):
    """Memoized Kronecker product of ``letters`` (matrices, or the diagonals
    of commuting states) along a letter tuple, built on its longest prefix."""
    memo = {(): np.ones((1,) * letters[0].ndim)}

    def factor(word: tuple):
        # Iterative, so no reference cycle keeps the memo alive after the call.
        for end in range(1, len(word) + 1):
            if word[:end] not in memo:
                memo[word[:end]] = _kron(memo[word[:end - 1]], letters[word[end - 1]])
        return memo[word]

    return factor


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two vectors or two matrices: the same entrywise
    products, by broadcasting, without its general shape handling."""
    if a.ndim == 1:
        return np.multiply.outer(a, b).ravel()
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _codebook_mixture(factor, codewords: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Sum_m w_m (x)_i letters[x_mi] over the codewords of positive weight.

    Each codeword splits into a head, its first n // 2 letters, and a tail, so
    the sum is Sum_head P_head (x) (Sum_tail w Q_tail): one full-size
    Kronecker product per distinct head."""
    h = codewords.shape[1] // 2
    tails = {}
    for w, word in zip(weights, codewords.tolist()):
        if w > 0.0:
            tails.setdefault(tuple(word[:h]), []).append((w, tuple(word[h:])))
    mix = 0.0
    for head, group in tails.items():
        mix += _kron(factor(head), sum(w * factor(tail) for w, tail in group))
    return mix


def _mixture_divergence(ch: CQWiretapChannel, codewords: np.ndarray,
                        weights: np.ndarray) -> float:
    """D(eavesdropper codebook mixture || rho(0)^{(x) n}).

    On supports log rho(0)^{(x) n} is a sum of one-letter terms, so the cross
    term is Sum_x mass(x) tr[rho(x) log rho(0)].  Supports of products are
    products of supports, so the result is +inf exactly when a letter used
    with positive weight has supp rho(x) outside supp rho(0): the letters'
    ``leaks``.  Commuting letters give a probability vector, others a matrix
    for one eigvalsh."""
    _n_letter_dim(ch, "eavesdropper", codewords.shape[1])
    mass = _letter_mass(codewords, weights, ch.k)
    used = np.nonzero(mass)[0]
    letters = ch.eavesdropper
    if letters.leaks[used].any():
        return float("inf")
    cross = sum(float(mass[x]) * float(np.einsum("ij,ji->", letters.mats[x], letters.log_off).real)
                for x in used)
    mix = _codebook_mixture(_kron_factors(letters.factors), codewords, weights)
    entropy = _entropy_of_spectrum(mix if mix.ndim == 1 else np.linalg.eigvalsh(mix))
    return _clip_nonnegative(-entropy - cross, "relative entropy")


def _receiver_pass(ch: CQWiretapChannel, codewords: np.ndarray,
                   weights: np.ndarray, decode: bool) -> tuple:
    """Entropy of the receiver codebook mixture S and, with ``decode``, the
    error of its square-root measurement (else None).  With A = S^{-1/2} on
    supp S, codeword m succeeds with w_m^2 tr[(A sigma_m)^2], computed from
    its head and tail factors (``_factored_success``); equal codewords have
    equal terms, so each is evaluated once with weight Sum w_m^2."""
    _n_letter_dim(ch, "receiver", codewords.shape[1])
    factor = _kron_factors(ch.receiver.stack)
    mix = _codebook_mixture(factor, codewords, weights)
    if not decode:
        return _entropy_of_spectrum(np.linalg.eigvalsh(mix)), None
    w, v = np.linalg.eigh(mix)
    del mix
    on = w > SUPPORT_TOL
    inv_sqrt = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    del v
    squared = {}
    for weight, word in zip(weights, map(tuple, codewords.tolist())):
        squared[word] = squared.get(word, 0.0) + float(weight) ** 2
    h = codewords.shape[1] // 2
    success = sum(weight_sq * _factored_success(inv_sqrt, factor(word[:h]), factor(word[h:]))
                  for word, weight_sq in squared.items() if weight_sq > 0.0)
    return _entropy_of_spectrum(w), min(max(1.0 - success, 0.0), 1.0)


def _factored_success(inv_sqrt: np.ndarray, head: np.ndarray, tail: np.ndarray) -> float:
    """tr[(A sigma)^2] = tr[(sigma A)^2] for sigma = P (x) Q, by two mode
    products on A's rows: O(D^2 (a + b)) work, two D x D temporaries."""
    dim, a, b = inv_sqrt.shape[0], head.shape[0], tail.shape[0]
    t = (head @ inv_sqrt.reshape(a, b * dim)).reshape(a, b, dim)
    w = np.matmul(tail, t).reshape(dim, dim)
    return float(np.einsum("ij,ji->", w, w).real)


def _check_codeword(codeword, k: int) -> np.ndarray:
    symbols = np.asarray(codeword, dtype=int)
    if symbols.ndim != 1 or len(symbols) == 0:
        raise ValueError("codeword must be a non-empty 1-d symbol sequence")
    if symbols.min() < 0 or symbols.max() >= k:
        raise ValueError(f"codeword symbols must lie in [0, {k})")
    return symbols
