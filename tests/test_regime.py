import numpy as np
import pytest
from scipy.optimize import linprog

import cqcovert as cq
from cqcovert import regime
from cqcovert.config import MIXTURE_MASS_TOL
from cqcovert.regime import Regime, informative_symbols

import oracles

from helpers import (
    conjugated_channel,
    diag_state,
    mixture_example_channel,
    off_support_example_channel,
    permuted_channel,
    random_channel,
    random_density,
    random_hermitian,
    random_square_root_channel,
    random_unitary,
    two_symbol_example_channel,
)


def test_mixture_witness_example():
    ch = mixture_example_channel()
    witness = cq.classify(ch).mixture_witness
    assert witness is not None
    assert np.allclose(witness.probs, [0.0, 0.5, 0.5], atol=1e-8)


def test_two_symbol_channel_has_no_witness():
    # P(1) (rho(1) - rho(0)) = 0 forces P(1) = 0
    assert cq.classify(two_symbol_example_channel()).mixture_witness is None


def test_witness_residual_on_random_mixture_channels():
    rng = np.random.default_rng(0)
    for _ in range(10):
        components = [random_density(rng, 2, floor=0.2) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        rho0 = cq.DensityOperator(sum(w * c.mat for w, c in zip(weights, components)))
        sigma = [random_density(rng, 2) for _ in range(4)]
        ch = cq.CQWiretapChannel(sigma, [rho0] + components)
        witness = cq.classify(ch).mixture_witness
        assert witness is not None
        mix = sum(p * r.mat for p, r in zip(witness.probs, ch.rho))
        assert np.linalg.norm(mix - ch.rho[0].mat) <= 1e-8


def test_witness_always_has_positive_holevo_information():
    # feasible point sits on a single informative symbol with rho(1) = rho(0);
    # the raw LP vertex has zero Holevo information and must be repaired
    sigma = [diag_state(0.5, 0.5), diag_state(0.8, 0.2)]
    rho = [diag_state(0.5, 0.5), diag_state(0.5, 0.5)]
    ch = cq.CQWiretapChannel(sigma, rho)
    report = cq.classify(ch)
    assert report.regime == Regime.POSITIVE_RATE
    assert cq.holevo_information(ch.sigma, report.mixture_witness) > 0.0


def test_support_condition_examples():
    rng = np.random.default_rng(1)
    full_rank = cq.CQWiretapChannel(
        [random_density(rng, 2, floor=0.2) for _ in range(3)],
        [random_density(rng, 2, floor=0.2) for _ in range(3)],
    )
    assert cq.check_support_condition(full_rank) == []

    ch = off_support_example_channel()
    assert cq.check_support_condition(ch) == [1]
    # plain ints: the CLI writes them to JSON
    assert type(cq.check_support_condition(ch)[0]) is int

    same = full_rank.sigma[0]
    all_equal = cq.CQWiretapChannel([same, same, same], full_rank.rho)
    assert cq.check_support_condition(all_equal) == []


def test_classify_three_examples():
    assert cq.classify(mixture_example_channel()).regime == Regime.POSITIVE_RATE
    assert cq.classify(two_symbol_example_channel()).regime == Regime.SQUARE_ROOT
    report = cq.classify(off_support_example_channel())
    assert report.regime == Regime.SUPER_SQUARE_ROOT
    assert report.support_violations == (1,)
    assert report.mixture_witness is None


def test_classify_requires_sanitized_channel():
    rank1 = cq.DensityOperator(np.diag([1.0, 0.0]))
    ch = cq.CQWiretapChannel([diag_state(0.5, 0.5), diag_state(0.8, 0.2)], [rank1, rank1])
    with pytest.raises(ValueError):
        cq.classify(ch)
    clean, _ = cq.sanitize(ch)
    cq.classify(clean)


@pytest.mark.parametrize("entry, args", [
    ("classify", ()),
    ("check_support_condition", ()),
    ("chi_sq_gram", ()),
    ("scaling_constant", ()),
    ("scaling_constant_grid_oracle", (0.1,)),
])
def test_unsanitized_channel_is_rejected_by_every_entry_point(entry, args):
    rank1 = cq.DensityOperator(np.diag([1.0, 0.0]))
    ch = cq.CQWiretapChannel([diag_state(0.5, 0.5), diag_state(0.8, 0.2), diag_state(0.6, 0.4)],
                             [rank1, rank1, diag_state(0.9, 0.1)])
    with pytest.raises(ValueError, match="channel is not sanitized: rho\\(0\\) is singular"):
        getattr(cq, entry)(ch, *args)


def test_classification_invariant_under_unitaries_and_permutations():
    rng = np.random.default_rng(2)
    channels = [
        mixture_example_channel(),
        two_symbol_example_channel(),
        off_support_example_channel(),
        random_channel(rng, 3, 2, 2),
    ]
    for ch in channels:
        base = cq.classify(ch).regime
        for _ in range(5):
            u = random_unitary(rng, ch.receiver_dim)
            v = random_unitary(rng, ch.eavesdropper_dim)
            assert cq.classify(conjugated_channel(ch, u, v)).regime == base
        if ch.k > 2:
            for _ in range(5):
                perm = 1 + rng.permutation(ch.k - 1)
                assert cq.classify(permuted_channel(ch, perm)).regime == base


def uninformative_mixture_channel():
    # rho(0) is a mixture of rho(1), rho(2), but both carry sigma(x) = sigma(0)
    sigma0 = diag_state(0.5, 0.5)
    sigma = [sigma0, sigma0, sigma0, diag_state(0.8, 0.2)]
    # symbol 3 deviates in an off-diagonal direction no mixture can cancel
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.25, 0.75),
           cq.DensityOperator(np.array([[0.5, 0.1], [0.1, 0.5]]))]
    return cq.CQWiretapChannel(sigma, rho)


def test_uninformative_mixture_is_flagged_square_root():
    # achievable rate is zero, reported as SquareRoot with the flag raised
    report = cq.classify(uninformative_mixture_channel())
    assert report.regime == Regime.SQUARE_ROOT
    assert report.mixture_witness is None
    assert report.mixture_on_uninformative_only


def test_uninformative_symbol_can_serve_as_mixture_component():
    # the witness needs mass on symbol 1 (sigma(1) = sigma(0)) to balance the
    # informative symbol 2; the classifier must still find it
    sigma0 = diag_state(0.5, 0.5)
    sigma = [sigma0, sigma0, diag_state(0.9, 0.1)]
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.25, 0.75)]
    ch = cq.CQWiretapChannel(sigma, rho)
    report = cq.classify(ch)
    assert report.regime == Regime.POSITIVE_RATE
    assert report.mixture_witness.probs[2] > 1e-7
    assert cq.holevo_information(ch.sigma, report.mixture_witness) > 0.0


def test_informative_symbols():
    ch = mixture_example_channel()
    assert informative_symbols(ch) == [1, 2]
    assert all(type(x) is int for x in informative_symbols(ch))
    sigma0 = ch.sigma[0]
    ch2 = cq.CQWiretapChannel([sigma0, sigma0, ch.sigma[2]], ch.rho)
    assert informative_symbols(ch2) == [2]


def test_flag_raised_when_no_symbol_is_informative():
    # rho(0) is the even mixture of rho(1) and rho(2); no symbol carries
    # receiver-side information, so there is no witness, only the flag
    s0 = diag_state(0.5, 0.5)
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25), diag_state(0.25, 0.75)]
    report = cq.classify(cq.CQWiretapChannel([s0, s0, s0], rho))
    assert report.regime == Regime.SQUARE_ROOT
    assert report.mixture_witness is None
    assert report.mixture_on_uninformative_only
    assert report.lp_residual == 0.0


def counted_linprog(monkeypatch):
    """The list that gets one entry per LP ``regime`` solves from now on."""
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(regime, "linprog", counting_linprog)
    return calls


def test_classify_solves_a_second_lp_only_for_uninformative_symbols(monkeypatch):
    # The flag's search maximizes the mass on all nonzero symbols; when they
    # are all informative it is the witness search again and is not redone.
    # A search runs its LP only when the certificate fails: for the rho of
    # these channels the simplex of the rho(x) - rho(0) comes within 0.0934
    # of 0 in Frobenius norm, so a P with residual 1e-8 (MIXTURE_RESIDUAL_TOL)
    # can put 1.07e-7 > MIXTURE_MASS_TOL on the nonzero symbols and no
    # certificate over all of them exists.
    calls = counted_linprog(monkeypatch)
    rng = np.random.default_rng(15)
    informative = random_square_root_channel(rng, 4, 2, 2)
    assert informative_symbols(informative) == [1, 2, 3]
    one_idle = cq.CQWiretapChannel(
        [informative.sigma[0]] + list(informative.sigma[:3]), informative.rho)
    cases = [
        (informative, 1, False),
        (uninformative_mixture_channel(), 1, True),  # a mixture is never certified away
        (one_idle, 1, False),  # {2, 3} is certified, {1, 2, 3} is not
        (two_symbol_example_channel(), 0, False),
    ]
    for ch, lps, flagged in cases:
        calls.clear()
        report = cq.classify(ch)
        assert report.regime == Regime.SQUARE_ROOT
        assert report.mixture_on_uninformative_only is flagged
        assert len(calls) == lps


def recorded_certificates(monkeypatch):
    """The list that gets ``(len(symbols), proved)`` per certificate tried."""
    tried = []
    certificate = regime._no_mixture_certificate

    def recording(deltas, gram, symbols):
        proved = certificate(deltas, gram, symbols)
        tried.append((len(symbols), proved))
        return proved

    monkeypatch.setattr(regime, "_no_mixture_certificate", recording)
    return tried


def test_certified_square_root_draws_solve_no_lp(monkeypatch):
    calls = counted_linprog(monkeypatch)
    tried = recorded_certificates(monkeypatch)
    rng = np.random.default_rng(16)
    certified = 0
    for k, dz in [(2, 2), (3, 2), (3, 3), (5, 3), (8, 3)] * 4:
        ch = random_square_root_channel(rng, k, 2, dz)
        calls.clear()
        tried.clear()
        report = cq.classify(ch)
        assert report.regime == Regime.SQUARE_ROOT
        if all(proved for _, proved in tried):
            certified += 1
            assert calls == [] and report.lp_residual == 0.0
    assert certified >= 15


def random_traceless(rng, dim):
    """Random traceless Hermitian matrix of unit Frobenius norm."""
    h = random_hermitian(rng, dim).mat
    h = h - np.trace(h).real / dim * np.eye(dim)
    return h / np.linalg.norm(h)


def near_boundary_channel(rng, dz, k, gap):
    """Channel whose rho(x) - rho(0) = gap u + w_x, with every w_x orthogonal
    to a unit u and w_2 = -a w_1: the nearest point to 0 of their hull is
    gap u, so the certificate needs gap > MIXTURE_RESIDUAL_TOL / MIXTURE_MASS_TOL."""
    u = random_traceless(rng, dz)
    ws = []
    for _ in range(k - 1):
        w = random_traceless(rng, dz)
        w = w - np.vdot(u, w).real * u
        ws.append(0.05 * w / np.linalg.norm(w))
    ws[1] = -rng.uniform(0.5, 2.0) * ws[0]
    rho0 = np.eye(dz) / dz
    rho = [rho0] + [rho0 + gap * u + w for w in ws]
    sigma = [random_density(rng, 2, floor=0.2) for _ in range(k)]
    if rng.random() < 0.3:
        sigma[1] = sigma[0]
    return cq.CQWiretapChannel(sigma, [cq.DensityOperator(r) for r in rho])


def mixture_channel(rng, dz):
    """rho(0) a generic mixture of up to dZ^2 affinely independent states, so
    the witness is unique, with some sigma(x) = sigma(0)."""
    k = 1 + int(rng.integers(2, dz * dz + 1))
    comps = int(rng.integers(2, k))
    rho = [random_density(rng, dz, floor=0.2) for _ in range(k - 1)]
    weights = rng.dirichlet(np.ones(comps))
    rho0 = cq.DensityOperator(sum(w * r.mat for w, r in zip(weights, rho)))
    sigma = [random_density(rng, 2, floor=0.2) for _ in range(k)]
    for x in range(1, k):
        if rng.random() < 0.4:
            sigma[x] = sigma[0]
    return cq.CQWiretapChannel(sigma, [rho0] + rho)


def agreement_channels(rng):
    """(family, channel) pairs: 420 draws over four families, to be sanitized."""
    for i in range(120):
        dz = 2 + i % 2
        k = int(rng.integers(2, dz * dz + 2))  # k - 1 <= dZ^2 keeps a witness unique
        yield "random", random_channel(rng, k, 2, dz)
    for i in range(60):
        yield "square-root", random_square_root_channel(rng, 2 + i % 6, 2, 2 + i % 2)
    for i in range(120):
        yield "mixture", mixture_channel(rng, 2 + i % 2)
    for i in range(120):
        gap = 0.1 * (1.0 + (-1) ** i * 10.0 ** -rng.uniform(2, 8))
        yield "near-boundary", near_boundary_channel(rng, 2 + i % 2, int(rng.integers(3, 6)), gap)


def test_classify_agrees_with_lp_oracle(monkeypatch):
    tried = recorded_certificates(monkeypatch)
    seen = {}
    for family, raw in agreement_channels(np.random.default_rng(25)):
        ch, _ = cq.sanitize(raw)
        tried.clear()
        report = cq.classify(ch)
        certified = [size for size, proved in tried if proved]
        oracle_regime, witness, flag, masses = oracles.mixture_lp_verdict(ch)
        assert report.regime == oracle_regime, family
        assert report.mixture_on_uninformative_only == flag, family
        if witness is None:
            assert report.mixture_witness is None, family
        else:
            assert np.allclose(report.mixture_witness.probs, witness, atol=1e-9), family
        for size in certified:
            key = "nonzero" if size == ch.k - 1 else "informative"
            assert masses[key] <= MIXTURE_MASS_TOL, family
        seen.setdefault(family, []).append((report.regime, bool(certified)))
    assert sum(map(len, seen.values())) >= 400
    assert (Regime.SQUARE_ROOT, True) in seen["near-boundary"]
    assert (Regime.SQUARE_ROOT, False) in seen["near-boundary"]
    assert (Regime.POSITIVE_RATE, False) in seen["mixture"]
