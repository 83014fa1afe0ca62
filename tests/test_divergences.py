import math

import numpy as np
import pytest

import cqcovert as cq

import oracles
from helpers import random_density, random_pure, random_unitary


def test_entropy_maximally_mixed():
    assert cq.von_neumann_entropy(cq.DensityOperator(np.eye(2) / 2)) == pytest.approx(
        math.log(2), abs=1e-12)


def test_entropy_pure_state():
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert cq.von_neumann_entropy(random_pure(rng, 3)) == pytest.approx(0.0, abs=1e-10)


def test_entropy_binary_spectrum():
    # independent scalar path: -(0.25 ln 0.25 + 0.75 ln 0.75)
    expected = oracles.entropy([0.25, 0.75])
    assert expected == pytest.approx(0.5623351446188083, abs=1e-15)
    value = cq.von_neumann_entropy(cq.DensityOperator(np.diag([0.25, 0.75])))
    assert value == pytest.approx(expected, abs=1e-12)


def test_relative_entropy_identical_arguments():
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = random_density(rng, 3)
        assert cq.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_disjoint_supports_is_infinite():
    zero = cq.DensityOperator(np.diag([1.0, 0.0]))
    one = cq.DensityOperator(np.diag([0.0, 1.0]))
    assert cq.relative_entropy(zero, one) == float("inf")


def test_relative_entropy_commuting_pair():
    expected = oracles.kl([0.5, 0.5], [0.25, 0.75])
    assert expected == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2.0 / 3.0), abs=1e-15)
    value = cq.relative_entropy(cq.DensityOperator(np.diag([0.5, 0.5])),
                                cq.DensityOperator(np.diag([0.25, 0.75])))
    assert value == pytest.approx(expected, abs=1e-12)


def test_relative_entropies_match_logm_oracle():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 4):
        # full-rank reference; states of full rank, of rank 1, and the reference itself
        ref = random_density(rng, dim, floor=0.2)
        states = [random_density(rng, dim), random_density(rng, dim, rank=dim - 1),
                  random_pure(rng, dim), ref]
        # rank-deficient reference: states inside its support, and states leaking out of it
        iso = random_unitary(rng, dim)[:, :dim - 1]

        def inside(state):
            return cq.DensityOperator(iso @ state.mat @ iso.conj().T)

        low = inside(random_density(rng, dim - 1, floor=0.2))
        contained = [low, inside(random_density(rng, dim - 1)), inside(random_pure(rng, dim - 1))]
        leaking = [random_density(rng, dim), random_pure(rng, dim)]
        for reference, group in ((ref, states), (low, contained + leaking)):
            expected = [oracles.relative_entropy_logm(a, reference) for a in group]
            batched = cq.relative_entropies(group, reference)
            single = [cq.relative_entropy(a, reference) for a in group]
            assert batched.shape == (len(group),)
            for want, got, one in zip(expected, batched, single):
                assert got == pytest.approx(want, abs=1e-12)
                assert one == pytest.approx(want, abs=1e-12)
        assert np.all(np.isfinite(cq.relative_entropies(contained, low)))
        assert np.all(np.isinf(cq.relative_entropies(leaking, low)))
    with pytest.raises(ValueError):
        cq.relative_entropies([random_density(rng, 2)], random_density(rng, 3))


def test_chi_squared_basics():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3, floor=0.2)
    assert cq.chi_squared(rho, rho) == pytest.approx(0.0, abs=1e-10)
    tilde = cq.DensityOperator(np.diag([0.75, 0.25]))
    ref = cq.DensityOperator(np.diag([0.5, 0.5]))
    expected = oracles.chi2([0.75, 0.25], [0.5, 0.5])
    assert expected == pytest.approx(0.25, abs=1e-15)
    assert cq.chi_squared(tilde, ref) == pytest.approx(expected, abs=1e-12)


def test_chi_squared_unitary_invariance():
    rng = np.random.default_rng(3)
    tilde = random_density(rng, 3, floor=0.1)
    ref = random_density(rng, 3, floor=0.3)
    base = cq.chi_squared(tilde, ref)
    for _ in range(5):
        u = random_unitary(rng, 3)
        rotated = cq.chi_squared(
            cq.DensityOperator(u @ tilde.mat @ u.conj().T),
            cq.DensityOperator(u @ ref.mat @ u.conj().T),
        )
        assert rotated == pytest.approx(base, abs=1e-9)


def test_chi_squared_singular_reference_rejected():
    tilde = cq.DensityOperator(np.eye(2) / 2)
    singular = cq.DensityOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        cq.chi_squared(tilde, singular)


def test_chi_squared_matches_frobenius_form():
    rng = np.random.default_rng(4)
    for _ in range(20):
        tilde = random_density(rng, 3)
        ref = random_density(rng, 3, floor=0.2)
        a = cq.chi_squared(tilde, ref)
        b = oracles.chi_squared_frobenius(tilde, ref)
        assert a == pytest.approx(b, abs=1e-9)


def test_holevo_point_mass_and_identical_states():
    rng = np.random.default_rng(5)
    states = [random_density(rng, 2) for _ in range(3)]
    point = cq.InputDistribution.point_mass(3, 1)
    assert cq.holevo_information(states, point) == pytest.approx(0.0, abs=1e-12)
    same = [states[0]] * 3
    assert cq.holevo_information(same, [1 / 3] * 3) == pytest.approx(0.0, abs=1e-10)


def test_holevo_zero_plus_ensemble():
    # mixture of |0><0| and |+><+| at weight 1/2 has spectrum (1 +- 1/sqrt 2)/2
    lam = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
    expected = oracles.entropy([lam, 1.0 - lam])
    zero = cq.DensityOperator(np.diag([1.0, 0.0]))
    plus = cq.DensityOperator(np.full((2, 2), 0.5))
    value = cq.holevo_information([zero, plus], [0.5, 0.5])
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.41649, abs=1e-4)


def test_holevo_informations_match_per_letter_loop():
    rng = np.random.default_rng(11)
    for k, dim in ((2, 2), (3, 3), (5, 2)):
        states = [random_density(rng, dim) for _ in range(k)] + [random_pure(rng, dim)]
        dists = rng.dirichlet(np.ones(k + 1), size=6)
        dists[1:4, 0] = 0.0  # zero-weight letters, off symbol included
        dists[2, -1] = 0.0
        dists = dists / dists.sum(axis=1, keepdims=True)
        dists = np.vstack([dists, np.eye(k + 1)[[0, k]]])
        batched = cq.holevo_informations(states, dists)
        for p, value in zip(dists, batched):
            assert value == pytest.approx(oracles.holevo_information_loop(states, p), abs=1e-12)
            assert cq.holevo_information(states, p) == value


def test_holevo_informations_match_classical_mutual_information():
    rng = np.random.default_rng(12)
    conds = rng.dirichlet(np.ones(3), size=4)
    conds[3] = [1.0, 0.0, 0.0]
    states = [cq.DensityOperator(np.diag(c)) for c in conds]
    dists = rng.dirichlet(np.ones(4), size=5)
    dists[0, 1] = dists[3, 3] = 0.0
    dists = dists / dists.sum(axis=1, keepdims=True)
    for p, value in zip(dists, cq.holevo_informations(states, dists)):
        assert value == pytest.approx(oracles.mutual_information(p, conds), abs=1e-12)
    with pytest.raises(ValueError):
        cq.holevo_informations(states, dists[:, :3])


def test_nonnegativity_and_zero_iff_equal():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a = random_density(rng, 3, floor=0.1)
        b = random_density(rng, 3, floor=0.1)
        d = cq.relative_entropy(a, b)
        assert d >= 0.0
        if np.abs(a.mat - b.mat).max() > 1e-4:
            assert d > 1e-8


def test_relative_entropy_additivity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = random_density(rng, 2), random_density(rng, 2, floor=0.2)
        a2, b2 = random_density(rng, 3), random_density(rng, 3, floor=0.2)
        joint = cq.relative_entropy(cq.tensor_product(a, a2), cq.tensor_product(b, b2))
        split = cq.relative_entropy(a, b) + cq.relative_entropy(a2, b2)
        assert joint == pytest.approx(split, abs=1e-8)


def test_classical_reduction():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        q = rng.dirichlet(np.ones(3)) * 0.9 + 0.1 / 3
        dp = cq.DensityOperator(np.diag(p))
        dq = cq.DensityOperator(np.diag(q))
        assert cq.von_neumann_entropy(dp) == pytest.approx(oracles.entropy(p), abs=1e-9)
        assert cq.relative_entropy(dp, dq) == pytest.approx(oracles.kl(p, q), abs=1e-9)
        assert cq.chi_squared(dp, dq) == pytest.approx(oracles.chi2(p, q), abs=1e-9)
        weights = rng.dirichlet(np.ones(2))
        conds = [p, q]
        holevo = cq.holevo_information([dp, dq], weights)
        assert holevo == pytest.approx(oracles.mutual_information(weights, conds), abs=1e-9)


def test_holevo_concavity():
    rng = np.random.default_rng(9)
    states = [random_density(rng, 2) for _ in range(4)]
    for _ in range(20):
        p1 = rng.dirichlet(np.ones(4))
        p2 = rng.dirichlet(np.ones(4))
        lam = rng.uniform(0.1, 0.9)
        mixed = cq.holevo_information(states, lam * p1 + (1 - lam) * p2)
        split = lam * cq.holevo_information(states, p1) + (1 - lam) * cq.holevo_information(states, p2)
        assert mixed >= split - 1e-9


def test_relative_entropy_convexity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a1, a2 = random_density(rng, 2), random_density(rng, 2)
        b1, b2 = random_density(rng, 2, floor=0.2), random_density(rng, 2, floor=0.2)
        lam = rng.uniform(0.1, 0.9)
        mixed = cq.relative_entropy(
            cq.DensityOperator(lam * a1.mat + (1 - lam) * a2.mat),
            cq.DensityOperator(lam * b1.mat + (1 - lam) * b2.mat),
        )
        split = lam * cq.relative_entropy(a1, b1) + (1 - lam) * cq.relative_entropy(a2, b2)
        assert mixed <= split + 1e-9
