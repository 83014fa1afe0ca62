import numpy as np
import pytest
from scipy.optimize import linprog

import cqcovert as cq
from cqcovert import regime
from cqcovert.regime import Regime, informative_symbols

from helpers import (
    conjugated_channel,
    diag_state,
    mixture_example_channel,
    off_support_example_channel,
    permuted_channel,
    random_channel,
    random_density,
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


def test_classify_solves_a_second_lp_only_for_uninformative_symbols(monkeypatch):
    # The flag's LP maximizes the mass on all nonzero symbols; when they are
    # all informative it is the witness LP again and must not be re-solved.
    calls = []

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(regime, "linprog", counting_linprog)
    rng = np.random.default_rng(15)
    informative = random_square_root_channel(rng, 4, 2, 2)
    assert informative_symbols(informative) == [1, 2, 3]
    one_idle = cq.CQWiretapChannel(
        [informative.sigma[0]] + list(informative.sigma[:3]), informative.rho)
    cases = [
        (informative, 1, False),
        (uninformative_mixture_channel(), 2, True),
        (one_idle, 2, False),
    ]
    for ch, lps, flagged in cases:
        calls.clear()
        report = cq.classify(ch)
        assert report.regime == Regime.SQUARE_ROOT
        assert report.mixture_on_uninformative_only is flagged
        assert len(calls) == lps
