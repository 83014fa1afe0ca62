import numpy as np
import pytest

import cqcovert as cq
from cqcovert.errors import UnusableChannelError
from cqcovert.regime import _require_sanitized

import oracles
from helpers import diag_state, random_channel, random_density


def qubit_pair():
    sigma = [diag_state(0.5, 0.5), diag_state(0.8, 0.2)]
    rho = [diag_state(0.5, 0.5), diag_state(0.75, 0.25)]
    return [s.mat for s in sigma], [r.mat for r in rho]


def test_validate_passes_well_formed_channel():
    sigma, rho = qubit_pair()
    assert cq.validate(sigma, rho).ok


def test_validate_reports_trace_violation():
    sigma, rho = qubit_pair()
    rho[1] = np.diag([0.7, 0.2]).astype(complex)
    diag = cq.validate(sigma, rho)
    assert not diag.ok
    assert any(p["kind"] == "trace" and p["side"] == "rho" for p in diag.problems)


def test_validate_reports_hermiticity_violation():
    sigma, rho = qubit_pair()
    bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
    sigma[0] = bad
    diag = cq.validate(sigma, rho)
    assert any(p["kind"] == "hermiticity" and p["side"] == "sigma" for p in diag.problems)


def test_validate_reports_shape_and_psd_problems():
    sigma, rho = qubit_pair()
    sigma[1] = np.zeros((2, 3), dtype=complex)
    rho[1] = np.diag([1.2, -0.2]).astype(complex)
    diag = cq.validate(sigma, rho)
    kinds = {p["kind"] for p in diag.problems}
    assert "shape" in kinds and "psd" in kinds


def test_input_distribution_invariants():
    dist = cq.InputDistribution([0.25, 0.75])
    assert dist.probs.sum() == 1.0
    assert dist.support == (0, 1)
    with pytest.raises(ValueError):
        cq.InputDistribution([0.5, 0.4])
    with pytest.raises(ValueError):
        cq.InputDistribution([1.1, -0.1])
    point = cq.InputDistribution.point_mass(3, 2)
    assert point.probs.tolist() == [0.0, 0.0, 1.0]


def test_sanitize_leaves_clean_channel_untouched():
    ch = cq.CQWiretapChannel.from_matrices(*qubit_pair())
    out, removed = cq.sanitize(ch)
    assert out is ch
    assert removed == []


def test_sanitize_removes_orthogonal_support_symbol():
    sigma = [diag_state(0.5, 0.5), diag_state(0.8, 0.2), diag_state(0.3, 0.7)]
    rho = [cq.DensityOperator(np.diag([1.0, 0.0])),
           cq.DensityOperator(np.diag([0.0, 1.0])),
           cq.DensityOperator(np.diag([1.0, 0.0]))]
    out, removed = cq.sanitize(cq.CQWiretapChannel(sigma, rho))
    assert removed == [1]
    assert out.k == 2
    # symbol 2 became symbol 1, and the space compressed to rank 1
    assert out.eavesdropper_dim == 1
    assert np.allclose(out.sigma[1].mat, sigma[2].mat)


def test_sanitize_restricts_support_dimension():
    rank1 = cq.DensityOperator(np.diag([1.0, 0.0]))
    sigma = [diag_state(0.5, 0.5), diag_state(0.8, 0.2)]
    out, removed = cq.sanitize(cq.CQWiretapChannel(sigma, [rank1, rank1]))
    assert removed == []
    assert out.eavesdropper_dim == 1
    assert out.rho[0].mat[0, 0].real == pytest.approx(1.0)


def test_sanitize_is_idempotent():
    rng = np.random.default_rng(0)
    sigma = [random_density(rng, 2) for _ in range(3)]
    rho0 = random_density(rng, 3, rank=2)
    w, v = np.linalg.eigh(rho0.mat)
    isometry = v[:, w > 1e-12]
    inside = isometry @ random_density(rng, 2).mat @ isometry.conj().T
    rho = [rho0, cq.DensityOperator(inside), random_density(rng, 3)]
    out, removed = cq.sanitize(cq.CQWiretapChannel(sigma, rho))
    assert removed == [2]
    again, removed2 = cq.sanitize(out)
    assert again is out
    assert removed2 == []
    _require_sanitized(np.linalg.eigvalsh(out.rho[0].mat))


def test_sanitize_unusable_channel():
    sigma = [diag_state(0.5, 0.5), diag_state(0.8, 0.2)]
    rho = [cq.DensityOperator(np.diag([1.0, 0.0])),
           cq.DensityOperator(np.diag([0.0, 1.0]))]
    with pytest.raises(UnusableChannelError):
        cq.sanitize(cq.CQWiretapChannel(sigma, rho))


def test_chi_squared_finite_after_sanitize():
    rng = np.random.default_rng(1)
    sigma = [random_density(rng, 2) for _ in range(3)]
    rho = [random_density(rng, 3, rank=2)]
    # embed the others inside supp(rho(0)) plus one violator
    inside = 0.5 * rho[0].mat + 0.5 * rho[0].mat.conj().T
    rho.append(cq.DensityOperator(inside / np.trace(inside).real))
    rho.append(random_density(rng, 3))
    out, removed = cq.sanitize(cq.CQWiretapChannel(sigma, rho))
    assert removed == [2]
    for x in range(1, out.k):
        assert np.isfinite(cq.chi_squared(out.rho[x], out.rho[0]))


def test_product_output_state():
    ch = cq.CQWiretapChannel.from_matrices(*qubit_pair())
    single = cq.product_output_state(ch, [1], "receiver")
    assert np.allclose(single.mat, ch.sigma[1].mat)
    idle = cq.product_output_state(ch, [0, 0, 0], "eavesdropper")
    assert np.allclose(idle.mat, cq.tensor_power(ch.rho[0], 3).mat)
    assert cq.product_output_state(ch, [0, 1, 1], "receiver").trace() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        cq.product_output_state(ch, [0, 2], "receiver")


def test_product_marginals_recover_symbols():
    rng = np.random.default_rng(2)
    ch = random_channel(rng, 3, 2, 2)
    codeword = [2, 0, 1]
    joint = cq.product_output_state(ch, codeword, "eavesdropper")
    for i, x in enumerate(codeword):
        marg = oracles.partial_trace(joint, [2, 2, 2], keep=i)
        assert np.abs(marg.mat - ch.rho[x].mat).max() < 1e-10


def test_average_output_state_point_mass():
    ch = cq.CQWiretapChannel.from_matrices(*qubit_pair())
    point = cq.average_output_state(ch, cq.InputDistribution.point_mass(2, 0), "eavesdropper")
    assert np.allclose(point.mat, ch.rho[0].mat)


def test_average_output_state_diagonal_mixture():
    sigma = [diag_state(0.5, 0.5), diag_state(0.8, 0.2)]
    rho = [cq.DensityOperator(np.diag([1.0, 0.0])), cq.DensityOperator(np.diag([0.0, 1.0]))]
    ch = cq.CQWiretapChannel(sigma, rho)
    avg = cq.average_output_state(ch, [0.5, 0.5], "eavesdropper")
    assert np.allclose(avg.mat, np.diag([0.5, 0.5]))


def test_average_output_state_linearity():
    rng = np.random.default_rng(3)
    ch = random_channel(rng, 4, 2, 3)
    p1 = rng.dirichlet(np.ones(4))
    p2 = rng.dirichlet(np.ones(4))
    lam = 0.3
    mixed = cq.average_output_state(ch, lam * p1 + (1 - lam) * p2, "receiver")
    split = lam * cq.average_output_state(ch, p1, "receiver").mat \
        + (1 - lam) * cq.average_output_state(ch, p2, "receiver").mat
    assert np.abs(mixed.mat - split).max() < 1e-12
