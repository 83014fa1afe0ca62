"""Shared randomized-channel and state generators for the test suite, and
test-only helpers: channel files and the type-set check."""

import json

import numpy as np

import cqcovert as cq
from cqcovert.channel import _check_codeword
from cqcovert.channel_io import SCHEMA_VERSION
from cqcovert.regime import Regime, classify


def random_density(rng, dim, rank=None, floor=0.0, real=False):
    """Random state from a Ginibre draw, complex or with ``real`` entries;
    ``floor`` mixes in identity to keep the spectrum away from zero."""
    rank = rank or dim
    g = rng.normal(size=(dim, rank))
    if not real:
        g = g + 1j * rng.normal(size=(dim, rank))
    mat = g @ g.conj().T
    mat = mat / np.trace(mat).real
    if floor > 0.0:
        mat = (1.0 - floor) * mat + floor * np.eye(dim) / dim
    return cq.DensityOperator(mat)


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return cq.DensityOperator(np.outer(v, v.conj()))


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim, scale=1.0):
    g = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return cq.HermitianOperator((g + g.conj().T) / 2.0)


def random_channel(rng, k, dy, dz, floor=0.2, real=False):
    """Generic full-rank channel; almost surely square-root for k <= dz**2."""
    sigma = [random_density(rng, dy, floor=floor, real=real) for _ in range(k)]
    rho = [random_density(rng, dz, floor=floor, real=real) for _ in range(k)]
    return cq.CQWiretapChannel(sigma, rho)


def random_square_root_channel(rng, k, dy, dz, floor=0.2, min_d=0.01, tries=50):
    """Rejection-sample a well-conditioned square-root-regime channel.

    Full-rank states guarantee the receiver support condition; the loop
    rejects the (measure-zero but numerically possible) mixture cases and
    channels whose most informative symbol is too close to sigma(0) for
    perturbative checks to be well conditioned.
    """
    for _ in range(tries):
        ch = random_channel(rng, k, dy, dz, floor=floor)
        report = classify(ch)
        if report.regime != Regime.SQUARE_ROOT:
            continue
        d = [cq.relative_entropy(ch.sigma[x], ch.sigma[0]) for x in range(1, k)]
        if max(d) < min_d:
            continue
        return ch
    raise RuntimeError("could not sample a square-root channel; loosen the filters")


def random_diagonal_channel(rng, k, dy, dz, floor=0.1):
    """Simultaneously diagonal (classical) channel with spectra bounded away
    from zero; returns the channel plus the raw diagonals."""
    def diag_probs(dim):
        p = rng.dirichlet(np.ones(dim))
        p = (1.0 - floor) * p + floor / dim
        return p

    sigma_diags = [diag_probs(dy) for _ in range(k)]
    rho_diags = [diag_probs(dz) for _ in range(k)]
    ch = cq.CQWiretapChannel(
        [cq.DensityOperator(np.diag(p)) for p in sigma_diags],
        [cq.DensityOperator(np.diag(p)) for p in rho_diags],
    )
    return ch, sigma_diags, rho_diags


def diagonal_eavesdropper_channel(rng, dy=2, floor=0.2):
    """k = 2 square-root channel with Ginibre receiver letters and diagonal
    (so commuting) eavesdropper letters."""
    sigma = [random_density(rng, dy, floor=floor) for _ in range(2)]
    return cq.CQWiretapChannel(sigma, [diag_state(0.55, 0.45), diag_state(0.6, 0.4)])


def conjugated_channel(ch, u_receiver=None, u_eavesdropper=None):
    """Apply a common unitary to every receiver and/or eavesdropper state."""
    sigma = ch.sigma
    rho = ch.rho
    if u_receiver is not None:
        sigma = [cq.DensityOperator(u_receiver @ s.mat @ u_receiver.conj().T) for s in sigma]
    if u_eavesdropper is not None:
        rho = [cq.DensityOperator(u_eavesdropper @ r.mat @ u_eavesdropper.conj().T) for r in rho]
    return cq.CQWiretapChannel(sigma, rho)


def permuted_channel(ch, perm):
    """Relabel the nonzero symbols by ``perm`` (a permutation of 1..k-1)."""
    order = [0] + list(perm)
    return cq.CQWiretapChannel([ch.sigma[x] for x in order], [ch.rho[x] for x in order])


def diag_state(*entries):
    return cq.DensityOperator(np.diag(entries).astype(complex))


def fixed_simulation_channel():
    """k = 2 qubit channel with real letters, used by the simulator criterion:
    strongly distinguishable receiver states, weakly distinguishable
    eavesdropper states (so realization noise stays well under the
    covertness budget)."""
    sigma = [diag_state(0.9, 0.1),
             cq.DensityOperator(np.array([[0.5, 0.4], [0.4, 0.5]]))]
    rho = [diag_state(0.5, 0.5),
           cq.DensityOperator(np.array([[0.55, 0.05], [0.05, 0.45]]))]
    return cq.CQWiretapChannel(sigma, rho)


def mixture_example_channel():
    """rho(0) is the even mixture of rho(1), rho(2); both symbols informative."""
    sigma = [diag_state(0.5, 0.5),
             cq.DensityOperator(np.array([[1.0, 0.0], [0.0, 0.0]])),
             cq.DensityOperator(np.array([[0.0, 0.0], [0.0, 1.0]]))]
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.25, 0.75)]
    return cq.CQWiretapChannel(sigma, rho)


def two_symbol_example_channel():
    """The fully diagonal k = 2 square-root channel used for hand arithmetic."""
    sigma = [diag_state(0.5, 0.5), diag_state(0.75, 0.25)]
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25)]
    return cq.CQWiretapChannel(sigma, rho)


def uninformative_symbol_example_channel():
    """Diagonal k = 3 square-root channel whose symbol 2 is uninformative
    (sigma(2) = sigma(0)) while rho(2) lies on the far side of rho(0) from
    rho(1), so mixing it in lowers the chi-squared denominator of L."""
    sigma = [diag_state(0.9, 0.1), diag_state(0.5, 0.5), diag_state(0.9, 0.1)]
    rho = [diag_state(1 / 3, 1 / 3, 1 / 3), diag_state(0.4, 0.3, 0.3),
           diag_state(0.3, 0.3, 0.4)]
    return cq.CQWiretapChannel(sigma, rho)


def leaking_receiver_example_channel():
    """k = 5 positive-rate channel with pure receiver states and covert rate ln 3.

    The classify witness (.5, .25, .25, 0, 0) has a singular receiver mixture
    that sigma(3) = |2><2| leaves; the optimum (0, 1/6, 1/6, 1/3, 1/3) mixes
    rho(3) = I/2 + X/10 and rho(4) = I/2 - X/10 to reach rho(0) = I/2.
    """
    ket = [np.diag(np.eye(3)[j]).astype(complex) for j in range(3)]
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    sigma = [cq.DensityOperator(ket[j]) for j in (0, 1, 1, 2, 0)]
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.25, 0.75),
           cq.DensityOperator(np.eye(2) / 2 + 0.1 * pauli_x),
           cq.DensityOperator(np.eye(2) / 2 - 0.1 * pauli_x)]
    return cq.CQWiretapChannel(sigma, rho)


def off_support_example_channel():
    """sigma(0) is rank deficient and sigma(1) leaks off its support."""
    plus = np.full((2, 2), 0.5)
    sigma = [cq.DensityOperator(np.diag([1.0, 0.0])), cq.DensityOperator(plus)]
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25)]
    return cq.CQWiretapChannel(sigma, rho)


def matrix_to_pairs(mat) -> list:
    """Complex matrix -> nested lists of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def channel_to_payload(ch) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "k": ch.k,
        "dims": {"dY": ch.receiver_dim, "dZ": ch.eavesdropper_dim},
        "sigma": [matrix_to_pairs(s.mat) for s in ch.sigma],
        "rho": [matrix_to_pairs(r.mat) for r in ch.rho],
    }


def save_channel(path: str, ch):
    with open(path, "w") as fh:
        json.dump(channel_to_payload(ch), fh, indent=2, sort_keys=True)
        fh.write("\n")


def type_set_membership(codeword, gamma: float, pn) -> bool:
    """Whether the empirical type keeps at least (1 - gamma) of the sampling
    mass on every nonzero symbol."""
    symbols = _check_codeword(codeword, len(pn.probs))
    counts = np.bincount(symbols, minlength=len(pn.probs))
    empirical = counts / len(symbols)
    return bool(np.all(empirical[1:] >= (1.0 - gamma) * pn.probs[1:]))
