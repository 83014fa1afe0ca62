import math

import numpy as np
import pytest
import scipy.linalg

import cqcovert as cq
from cqcovert.channel import _letter_factors, _letter_stack, _mixture_divergence, _receiver_pass
from cqcovert.errors import DimensionCapError, WrongRegimeError

import oracles
from helpers import (
    diag_state,
    diagonal_eavesdropper_channel,
    fixed_simulation_channel,
    random_channel,
    random_density,
    random_square_root_channel,
    random_unitary,
    two_symbol_example_channel,
    type_set_membership,
)

D1 = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)


def nonzero_point_mass():
    return cq.InputDistribution([0.0, 1.0])


def test_alpha_n_hand_value():
    ch = two_symbol_example_channel()
    p = nonzero_point_mass()
    value = cq.alpha_n(ch, p, delta=0.01, n=100, beta=0.5)
    assert value == pytest.approx(0.5 * math.sqrt(1e-4) / math.sqrt(0.125), abs=1e-15)
    assert value == pytest.approx(0.014142135623730949, abs=1e-12)


def test_alpha_n_limits_and_scaling():
    ch = two_symbol_example_channel()
    p = nonzero_point_mass()
    assert cq.alpha_n(ch, p, 0.01, 100, beta=0.999999) < 1e-5
    a1 = cq.alpha_n(ch, p, 0.01, 50, beta=0.3)
    a4 = cq.alpha_n(ch, p, 0.01, 200, beta=0.3)
    assert a4 == pytest.approx(a1 / 2.0, abs=1e-15)
    # tiny n can push the formula above 1; it clamps
    assert cq.alpha_n(ch, p, 10.0, 1, beta=0.01) == 1.0


def test_alpha_n_rejects_mixture_direction():
    ch = two_symbol_example_channel()
    same = cq.CQWiretapChannel(ch.sigma, [ch.rho[0], ch.rho[0]])
    with pytest.raises(WrongRegimeError):
        cq.alpha_n(same, nonzero_point_mass(), 0.01, 10, beta=0.5)


def test_build_input_distribution():
    p = nonzero_point_mass()
    pn = cq.build_input_distribution(0.25, p)
    assert pn.probs.tolist() == [0.75, 0.25]
    assert pn.probs.sum() == 1.0
    assert cq.build_input_distribution(1.0, p).probs.tolist() == p.probs.tolist()
    with pytest.raises(ValueError):
        cq.build_input_distribution(0.0, p)
    with pytest.raises(ValueError):
        cq.build_input_distribution(0.5, cq.InputDistribution([0.5, 0.5]))


def test_sample_codebook_point_mass_and_determinism():
    idle = cq.InputDistribution([1.0, 0.0])
    cb = cq.sample_codebook(idle, 5, 4, seed=3)
    assert not cb.codewords.any()
    pn = cq.InputDistribution([0.7, 0.3])
    first = cq.sample_codebook(pn, 16, 8, seed=11)
    second = cq.sample_codebook(pn, 16, 8, seed=11)
    assert np.array_equal(first.codewords, second.codewords)
    other = cq.sample_codebook(pn, 16, 8, seed=12)
    assert not np.array_equal(first.codewords, other.codewords)


def test_sample_codebook_frequencies():
    pn = cq.InputDistribution([0.6, 0.3, 0.1])
    cb = cq.sample_codebook(pn, 1000, 100, seed=0)
    counts = np.bincount(cb.codewords.ravel(), minlength=3)
    total = cb.codewords.size
    for x in range(3):
        sigma3 = 3.0 * math.sqrt(total * pn.probs[x] * (1 - pn.probs[x]))
        assert abs(counts[x] - total * pn.probs[x]) <= sigma3


def test_covertness_divergence_idle_codebook():
    ch = two_symbol_example_channel()
    cb = cq.sample_codebook(cq.InputDistribution([1.0, 0.0]), 4, 3, seed=0)
    assert cq.covertness_divergence(ch, cb) == pytest.approx(0.0, abs=1e-9)


def test_covertness_divergence_single_codeword_additivity():
    ch = two_symbol_example_channel()
    cb = cq.Codebook(n=4, num_messages=1, codewords=np.array([[1, 0, 1, 1]]),
                     sampling_distribution=cq.InputDistribution([0.5, 0.5]))
    expected = 3 * cq.relative_entropy(ch.rho[1], ch.rho[0])
    assert cq.covertness_divergence(ch, cb) == pytest.approx(expected, abs=1e-9)


def test_covertness_divergence_against_logm_path():
    # independent spectral route: scipy logm on the explicit 4x4 matrices
    ch = two_symbol_example_channel()
    cb = cq.Codebook(n=2, num_messages=2, codewords=np.array([[1, 0], [0, 1]]),
                     sampling_distribution=cq.InputDistribution([0.5, 0.5]))
    value = cq.covertness_divergence(ch, cb)
    mixture = 0.5 * (np.kron(ch.rho[1].mat, ch.rho[0].mat)
                     + np.kron(ch.rho[0].mat, ch.rho[1].mat))
    idle = np.kron(ch.rho[0].mat, ch.rho[0].mat)
    direct = np.trace(mixture @ (scipy.linalg.logm(mixture) - scipy.linalg.logm(idle))).real
    assert value == pytest.approx(direct, abs=1e-9)


def test_n_letter_passes_match_dense_references():
    # Ginibre letters: the eavesdropper states do not commute with rho(0).
    # Real Ginibre letters take the float64 path on both sides.  Codebooks
    # include n = 1, M = 1, a repeated codeword and, besides the uniform
    # weights, Dirichlet weights with one zero.
    rng = np.random.default_rng(41)
    for dy, dz, n_max, real in ((2, 2, 9, False), (3, 3, 4, False), (2, 2, 7, True)):
        ch = random_channel(rng, 3, dy, dz, real=real)
        factors = _letter_factors(ch.rho)
        assert factors[0].ndim == 2
        dtype = np.float64 if real else np.complex128
        assert factors.dtype == dtype and _letter_stack(ch.sigma).dtype == dtype
        for n in range(1, n_max + 1):
            for m in (1, 2, 4, 8):
                codewords = rng.integers(0, 3, size=(m, n))
                codewords[-1] = codewords[0]
                uniform = np.full(m, 1.0 / m)
                cb = cq.Codebook(n=n, num_messages=m, codewords=codewords,
                                 sampling_distribution=cq.InputDistribution([1 / 3] * 3))
                assert cq.covertness_divergence(ch, cb) == pytest.approx(
                    oracles.dense_covertness_divergence(ch, codewords, uniform), abs=1e-10)
                assert cq.pgm_error_probability(ch, cb) == pytest.approx(
                    oracles.dense_pgm_error(ch, codewords), abs=1e-10)
                if m == 1:
                    continue
                weights = rng.dirichlet(np.ones(m))
                weights[1] = 0.0
                weights /= weights.sum()
                assert _mixture_divergence(ch, codewords, weights) == pytest.approx(
                    oracles.dense_covertness_divergence(ch, codewords, weights), abs=1e-10)
                entropy, error = _receiver_pass(ch, codewords, weights, decode=True)
                mixture = oracles.dense_mixture(ch.sigma, codewords, weights)
                assert entropy == pytest.approx(cq.von_neumann_entropy(
                    cq.DensityOperator(mixture, validate=False)), abs=1e-10)
                assert error == pytest.approx(
                    oracles.dense_pgm_error(ch, codewords, weights), abs=1e-10)
    # One imaginary entry, however small, keeps the real channel's letters complex.
    tiny = np.array([[0.0, 1e-17j], [-1e-17j, 0.0]])
    for states in (ch.sigma, ch.rho):
        nudged = [cq.DensityOperator(s.mat + tiny) for s in states]
        assert _letter_stack(nudged).dtype == _letter_factors(nudged).dtype == np.complex128


def _eavesdropper_cases(rng):
    """(eavesdropper letters, whether they commute): diagonal letters,
    rho(0) = I/2 with a non-diagonal rho(1), letters diagonal in a rotated
    basis, and a pair whose commutator is ~1e-9."""
    u = random_unitary(rng, 2)
    diagonal = [diag_state(*rng.dirichlet(np.ones(2))) for _ in range(3)]
    rotated = [cq.DensityOperator(u @ r.mat @ u.conj().T) for r in diagonal]
    near = cq.DensityOperator(np.array([[0.7, 1e-8], [1e-8, 0.3]]))
    return [
        (diagonal, True),
        ([diag_state(0.5, 0.5), random_density(rng, 2, floor=0.2)], True),
        (rotated, True),
        ([diag_state(0.6, 0.4), near], False),
    ]


def test_commuting_eavesdropper_matches_dense_reference():
    rng = np.random.default_rng(46)
    for rho, commutes in _eavesdropper_cases(rng):
        k = len(rho)
        ch = cq.CQWiretapChannel([random_density(rng, 2) for _ in range(k)], rho)
        assert (_letter_factors(ch.rho)[0].ndim == 1) == commutes
        for n in range(1, 8):
            for m in (1, 3, 8):
                codewords = rng.integers(0, k, size=(m, n))
                codewords[-1] = codewords[0]
                for weights in (np.full(m, 1.0 / m), rng.dirichlet(np.ones(m))):
                    assert _mixture_divergence(ch, codewords, weights) == pytest.approx(
                        oracles.dense_covertness_divergence(ch, codewords, weights), abs=1e-10)


def test_covertness_divergence_support_rule_on_unsanitized_channel():
    # rho(0) has rank 2 in dimension 3; rho(1) lives on its support, first
    # without commuting with it, then diagonal (the commuting path); rho(2)
    # leaks out of it.
    rng = np.random.default_rng(43)
    for inner, commutes in ((np.array([[0.7, 0.2j], [-0.2j, 0.3]]), False),
                            (np.diag([0.7, 0.3]), True)):
        rho = [diag_state(0.5, 0.5, 0.0),
               cq.DensityOperator(np.pad(inner, ((0, 1), (0, 1)))),
               diag_state(0.2, 0.3, 0.5)]
        ch = cq.CQWiretapChannel([random_density(rng, 2) for _ in range(3)], rho)
        assert (_letter_factors(ch.rho)[0].ndim == 1) == commutes
        inside = np.array([[1, 0, 1], [0, 1, 1]])
        leaking = np.array([[1, 0, 1], [0, 2, 0]])
        pn = cq.InputDistribution([1 / 3] * 3)
        finite = cq.covertness_divergence(ch, cq.Codebook(3, 2, inside, pn))
        assert np.isfinite(finite)
        assert finite == pytest.approx(
            oracles.dense_covertness_divergence(ch, inside, [0.5, 0.5]), abs=1e-10)
        assert cq.covertness_divergence(ch, cq.Codebook(3, 2, leaking, pn)) == float("inf")
        assert oracles.dense_covertness_divergence(ch, leaking, [0.5, 0.5]) == float("inf")
        # a leaking letter that only a zero-weight codeword uses does not count
        chain = cq.converse_chain(ch, leaking, [1.0, 0.0], strict=False)
        assert chain.div_joint == pytest.approx(
            oracles.dense_covertness_divergence(ch, leaking, [1.0, 0.0]), abs=1e-10)


def test_pgm_orthogonal_and_identical_codewords():
    zero = cq.DensityOperator(np.diag([1.0, 0.0]))
    one = cq.DensityOperator(np.diag([0.0, 1.0]))
    ch = cq.CQWiretapChannel([zero, one], [diag_state(0.5, 0.5), diag_state(0.75, 0.25)])
    orth = cq.Codebook(n=1, num_messages=2, codewords=np.array([[0], [1]]),
                       sampling_distribution=cq.InputDistribution([0.5, 0.5]))
    assert cq.pgm_error_probability(ch, orth) == pytest.approx(0.0, abs=1e-12)
    same = cq.Codebook(n=1, num_messages=2, codewords=np.array([[1], [1]]),
                       sampling_distribution=cq.InputDistribution([0.5, 0.5]))
    assert cq.pgm_error_probability(ch, same) == pytest.approx(0.5, abs=1e-12)


def test_pgm_povm_completeness():
    ch = two_symbol_example_channel()
    cb = cq.sample_codebook(cq.InputDistribution([0.6, 0.4]), 3, 4, seed=5)
    outputs = [cq.product_output_state(ch, cw, "receiver").mat for cw in cb.codewords]
    avg = sum(outputs) / len(outputs)
    w, v = np.linalg.eigh(avg)
    on = w > 1e-12
    inv_sqrt = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    total = sum(inv_sqrt @ (o / len(outputs)) @ inv_sqrt for o in outputs)
    support = v[:, on] @ v[:, on].conj().T
    remainder = np.eye(avg.shape[0]) - support
    assert np.abs(total + remainder - np.eye(avg.shape[0])).max() < 1e-9


def test_pgm_unitary_invariance():
    from helpers import conjugated_channel, random_unitary
    rng = np.random.default_rng(6)
    ch = random_square_root_channel(rng, 2, 2, 2)
    cb = cq.sample_codebook(cq.InputDistribution([0.5, 0.5]), 3, 4, seed=9)
    base = cq.pgm_error_probability(ch, cb)
    for _ in range(3):
        u = random_unitary(rng, 2)
        rotated = cq.pgm_error_probability(conjugated_channel(ch, u_receiver=u), cb)
        assert rotated == pytest.approx(base, abs=1e-8)


def test_type_set_membership():
    pn = cq.InputDistribution([0.75, 0.25])
    assert type_set_membership([1, 0, 0, 0], gamma=0.5, pn=pn)
    assert not type_set_membership([0, 0, 0, 0], gamma=0.5, pn=pn)
    exact = [0, 0, 0, 1]
    assert type_set_membership(exact, gamma=0.01, pn=pn)


def test_type_set_probability_meets_chernoff_bound():
    pn = cq.InputDistribution([0.8, 0.15, 0.05])
    n, trials, gamma = 60, 10_000, 0.5
    rng = np.random.Generator(np.random.Philox(key=123))
    u = rng.random((trials, n))
    cdf = np.cumsum(pn.probs)
    draws = np.searchsorted(cdf, u, side="right")
    hits = sum(
        type_set_membership(row, gamma, pn) for row in draws
    )
    bound = 1.0 - sum(
        math.exp(-gamma ** 2 * n * pn.probs[x] / 2.0) for x in (1, 2)
    )
    assert hits / trials >= bound


def test_psi_n_zero_at_s_zero_and_idle():
    ch = two_symbol_example_channel()
    pn = cq.InputDistribution([0.9, 0.1])
    assert cq.psi_n(ch, pn, [1, 0, 1], 0.0) == 0.0
    idle = cq.InputDistribution([1.0, 0.0])
    for s in (0.0, 0.1, 0.5):
        assert cq.psi_n(ch, idle, [0, 0, 0, 0], s) == pytest.approx(0.0, abs=1e-12)


def test_psi_n_slope_matches_divergence():
    rng = np.random.default_rng(7)
    for _ in range(5):
        ch = random_square_root_channel(rng, 2, 2, 2)
        pn = cq.InputDistribution([0.8, 0.2])
        codeword = rng.integers(0, 2, size=8)
        if not codeword.any():
            codeword[0] = 1
        s = 1e-5
        slope = cq.psi_n(ch, pn, codeword, s) / s
        mix = cq.average_output_state(ch, pn, "eavesdropper")
        counts = np.bincount(codeword, minlength=2) / len(codeword)
        expected = len(codeword) * sum(
            counts[x] * cq.relative_entropy(ch.rho[x], mix) for x in range(2)
        )
        assert slope == pytest.approx(expected, rel=0.01)


def test_pinched_statistic_limits_and_range():
    ch = two_symbol_example_channel()
    pn = cq.InputDistribution([0.9, 0.1])
    xn = [1, 0]
    assert cq.pinched_test_statistic(ch, pn, xn, a=1e6, delta=0.05) == 0.0
    assert cq.pinched_test_statistic(ch, pn, xn, a=-1e6, delta=0.05) == pytest.approx(1.0, abs=1e-9)


def test_pinched_statistic_monotone_in_threshold():
    rng = np.random.default_rng(8)
    ch = random_square_root_channel(rng, 2, 2, 2)
    pn = cq.InputDistribution([0.85, 0.15])
    xn = [1, 0]
    grid = np.linspace(-30.0, 30.0, 50)
    values = [cq.pinched_test_statistic(ch, pn, xn, a, delta=0.05) for a in grid]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-9
    assert all(-1e-9 <= v <= 1 + 1e-9 for v in values)


def assert_pinched_statistic_matches_dense(ch, pn, codeword):
    grid = np.linspace(-5.0, 5.0, 11)
    dense = oracles.dense_pinched_test_statistic(ch, pn, codeword, grid, delta=0.05)
    for a, expected in zip(grid, dense):
        assert abs(cq.pinched_test_statistic(ch, pn, codeword, a, delta=0.05) - expected) <= 1e-12


def test_pinched_statistic_matches_dense_oracle():
    rng = np.random.default_rng(110)
    for k, dz, n_max in ((2, 2, 8), (3, 3, 5)):
        for n in range(1, n_max + 1):
            ch = random_square_root_channel(rng, k, 2, dz)
            pn = cq.InputDistribution(rng.dirichlet(np.ones(k)))
            assert_pinched_statistic_matches_dense(ch, pn, rng.integers(0, k, size=n))


@pytest.mark.parametrize("spread", [0.0, 2e-10])
def test_pinched_statistic_on_merged_spectral_groups(spread):
    # The average letter has eigenvalues 0.5 +- spread, closer than GROUP_TOL, so
    # the whole n-letter spectrum is one group: I / 2 at spread 0.
    rng = np.random.default_rng(111)
    u = random_unitary(rng, 2)
    mix = u @ np.diag([0.5 + spread, 0.5 - spread]) @ u.conj().T
    rho1 = random_density(rng, 2, floor=0.2)
    ch = cq.CQWiretapChannel([random_density(rng, 2) for _ in range(2)],
                             [cq.DensityOperator(2.0 * mix - rho1.mat), rho1])
    pn = cq.InputDistribution([0.5, 0.5])
    assert np.ptp(np.linalg.eigvalsh(cq.average_output_state(ch, pn, "eavesdropper").mat)) < 1e-9
    for n in range(1, 7):
        assert_pinched_statistic_matches_dense(ch, pn, rng.integers(0, 2, size=n))


def test_pinched_statistic_respects_dimension_cap(monkeypatch):
    monkeypatch.delenv("CQCOVERT_DIM_CAP", raising=False)
    ch = two_symbol_example_channel()
    pn = cq.InputDistribution([0.9, 0.1])
    with pytest.raises(DimensionCapError):
        cq.pinched_test_statistic(ch, pn, [1] + [0] * 12, a=0.0, delta=0.05)


def test_a_hat_hand_value_and_slack_monotonicity():
    ch = two_symbol_example_channel()
    p = nonzero_point_mass()
    # with all slacks at zero this is the eavesdropper-divergence ratio
    assert cq.a_hat(ch, p, 0.0, 0.0, 0.0) == pytest.approx(D1 / math.sqrt(0.125), abs=1e-12)
    base = cq.a_hat(ch, p, 0.3, 0.3, 0.3)
    for bumped in (cq.a_hat(ch, p, 0.4, 0.3, 0.3),
                   cq.a_hat(ch, p, 0.3, 0.4, 0.3),
                   cq.a_hat(ch, p, 0.3, 0.3, 0.4)):
        assert bumped < base


def test_sweep_single_message_and_determinism():
    ch = two_symbol_example_channel()
    reports = cq.sqrt_law_sweep(ch, 0.05, [2, 3], [1, 2], 0.5, [0, 1])
    assert [r.n for r in reports] == sorted(r.n for r in reports)
    for r in reports:
        if r.num_messages == 1:
            assert r.k_n == 0.0 and r.epsilon_n == 0.0
        assert r.covert_div >= 0.0
        assert 0.0 <= r.epsilon_n <= 1.0
        assert r.chain.receiver_ok and r.chain.eavesdropper_ok
        assert r.normalized_throughput <= r.converse_bound + 1e-9
    again = cq.sqrt_law_sweep(ch, 0.05, [2, 3], [1, 2], 0.5, [0, 1])
    assert again == reports
    # plain floats, so reports and CSV cells print as numbers
    assert all(type(r.covert_div) is float and type(r.epsilon_n) is float for r in reports)


def test_sweep_matches_dense_references():
    rng = np.random.default_rng(44)
    ch = random_square_root_channel(rng, 3, 2, 2)
    delta, beta = 0.05, 0.5
    reports = cq.sqrt_law_sweep(ch, delta, [2, 5, 8], [1, 2, 4], 0.1, [0, 1], beta=beta)
    nonzero = cq.scaling_constant(ch).optimizer
    for r in reports:
        alpha = cq.alpha_n(ch, nonzero, delta, r.n, beta)
        pn = cq.build_input_distribution(alpha, nonzero)
        codewords = cq.sample_codebook(pn, r.n, r.num_messages, r.seed).codewords
        uniform = np.full(r.num_messages, 1.0 / r.num_messages)
        mix = cq.average_output_state(ch, pn, "eavesdropper")
        assert r.covert_div_avg == r.n * cq.relative_entropy(mix, ch.rho[0])
        holevo, div = oracles.dense_joint_terms(ch, codewords, uniform)
        assert r.covert_div == pytest.approx(div, abs=1e-10)
        assert r.chain.div_joint == pytest.approx(div, abs=1e-10)
        assert r.chain.holevo_joint == pytest.approx(holevo, abs=1e-10)
        epsilon = oracles.dense_pgm_error(ch, codewords) if r.num_messages > 1 else 0.0
        assert r.epsilon_n == pytest.approx(epsilon, abs=1e-10)
        bound = (r.chain.holevo_avg_scaled + 1.0) / ((1.0 - epsilon) * math.sqrt(r.n * delta))
        assert r.converse_bound == pytest.approx(bound, rel=1e-10)


def test_sweep_skips_cells_over_the_cap():
    ch = two_symbol_example_channel()
    reports = cq.sqrt_law_sweep(ch, 0.05, [2, 13], [2], 0.5, [0])
    small = [r for r in reports if r.n == 2][0]
    big = [r for r in reports if r.n == 13][0]
    assert small.skipped is None
    assert big.skipped is not None
    assert math.isnan(big.covert_div)


def test_sweep_cell_makes_one_full_eigensolve_with_commuting_eavesdropper(monkeypatch):
    # The receiver pass takes the only d^n-dimensional eigensolve; a
    # noncommuting eavesdropper takes a second one.
    rng = np.random.default_rng(47)
    n = 6
    dims = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            dims.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    for ch, expected in ((diagonal_eavesdropper_channel(rng), 1),
                         (random_square_root_channel(rng, 2, 2, 2), 2)):
        dims.clear()
        (report,) = cq.sqrt_law_sweep(ch, 0.05, [n], [4], 0.1, [0])
        assert report.skipped is None
        assert dims.count(2 ** n) == expected


def test_sweep_cell_eigensolves_do_not_grow_with_the_alphabet(monkeypatch):
    # Every single-letter term of a cell is one stacked call over the alphabet.
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            calls.append(name)
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    per_cell = {}
    for k in (2, 3, 5):
        ch = random_square_root_channel(np.random.default_rng(3), k, 2, 2)
        counts = []
        for seeds in ([0], [0, 1, 2]):
            calls.clear()
            cq.sqrt_law_sweep(ch, 0.05, [4], [4], 0.1, seeds)
            counts.append(len(calls))
        per_cell[k] = (counts[1] - counts[0]) / 2
    assert len(set(per_cell.values())) == 1, per_cell


def test_sweep_pool_starts_at_most_one_worker_per_cell(monkeypatch):
    # Each worker gets one task: a strided slice of the cells.
    started, tasks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            items = list(zip(*iterables))
            tasks.append(len(items))
            return [fn(*item) for item in items]

    monkeypatch.setattr("cqcovert.simulate.ProcessPoolExecutor", InlinePool)
    ch = two_symbol_example_channel()
    serial = cq.sqrt_law_sweep(ch, 0.05, [2, 3], [2], 0.1, [0, 1, 2])
    assert cq.sqrt_law_sweep(ch, 0.05, [2, 3], [2], 0.1, [0, 1, 2], workers=100_000) == serial
    assert cq.sqrt_law_sweep(ch, 0.05, [2, 3], [2], 0.1, [0, 1, 2], workers=2) == serial
    assert started == [6, 2]
    assert tasks == started
    cq.sqrt_law_sweep(ch, 0.05, [2], [2], 0.1, [0], workers=100_000)
    assert started == [6, 2]


def test_sweep_parallel_matches_serial():
    rng = np.random.default_rng(45)
    noncommuting = random_square_root_channel(rng, 3, 2, 2)
    commuting = diagonal_eavesdropper_channel(rng)
    for ch, n_list in ((two_symbol_example_channel(), [2]), (noncommuting, [2, 6]),
                       (commuting, [2, 6]), (fixed_simulation_channel(), [2, 6])):
        serial = cq.sqrt_law_sweep(ch, 0.05, n_list, [1, 4], 0.5, [0, 1], workers=1)
        parallel = cq.sqrt_law_sweep(ch, 0.05, n_list, [1, 4], 0.5, [0, 1], workers=2)
        assert serial == parallel


def test_sweep_rejects_wrong_regime():
    from helpers import mixture_example_channel
    with pytest.raises(WrongRegimeError):
        cq.sqrt_law_sweep(mixture_example_channel(), 0.05, [2], [2], 0.5, [0])


def test_sweep_rejects_eps_target_outside_unit_interval():
    ch = two_symbol_example_channel()
    for eps_target in (float("nan"), float("inf"), -1.0, 2.0):
        with pytest.raises(ValueError, match="finite number in"):
            cq.sqrt_law_sweep(ch, 0.05, [2], [2], eps_target, [0])
    for eps_target in (0.0, 1.0):
        assert len(cq.sqrt_law_sweep(ch, 0.05, [2], [2], eps_target, [0])) == 1


def test_sim_params_validation():
    for delta in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive finite number"):
            cq.SimParams(delta=delta, n=2, num_messages=2)
    with pytest.raises(ValueError):
        cq.SimParams(delta=0.1, n=2, num_messages=2, beta=1.0)
    with pytest.raises(ValueError):
        cq.SimParams(delta=0.1, n=0, num_messages=2)
