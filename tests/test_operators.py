import math

import numpy as np
import pytest
from scipy.linalg import logm

import cqcovert as cq
from cqcovert.errors import DimensionCapError
from cqcovert.operators import _support_leaks, dlog_kernel

import oracles
from helpers import random_density, random_hermitian, random_pure, random_unitary

I2 = np.eye(2, dtype=complex)


def test_hermitian_constructor_symmetrizes():
    op = cq.HermitianOperator(np.array([[1.0, 1.0 + 2.0j], [0.0, 2.0]]))
    assert np.allclose(op.mat, op.mat.conj().T)
    assert op.mat[0, 1] == pytest.approx(0.5 + 1.0j)
    with pytest.raises(ValueError):
        cq.HermitianOperator(np.ones((2, 3)))


def test_density_operator_invariants():
    rho = cq.DensityOperator(np.diag([0.6, 0.4]))
    assert rho.trace() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        cq.DensityOperator(np.diag([0.6, 0.3]))  # trace 0.9
    with pytest.raises(ValueError):
        cq.DensityOperator(np.diag([1.1, -0.1]))  # genuinely negative
    # tiny negative eigenvalue is clipped, not rejected
    rho = cq.DensityOperator(np.diag([1.0 + 5e-11, -5e-11]))
    assert np.linalg.eigvalsh(rho.mat)[0] >= 0.0


def test_eig_identity():
    values, projectors = oracles.eig_groups(cq.HermitianOperator(I2))
    assert values.tolist() == [1.0]
    assert len(projectors) == 1
    assert np.allclose(projectors[0], I2)


def test_eig_diagonal():
    values, projectors = oracles.eig_groups(cq.HermitianOperator(np.diag([0.75, 0.25])))
    assert np.allclose(values, [0.75, 0.25])
    assert np.allclose(projectors[0], np.diag([1.0, 0.0]))
    assert np.allclose(projectors[1], np.diag([0.0, 1.0]))


def test_eig_reconstruction_and_projector_invariants():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hermitian(rng, rng.integers(2, 6))
        values, projectors = oracles.eig_groups(h)
        reconstructed = sum(lam * p for lam, p in zip(values, projectors))
        assert np.abs(reconstructed - h.mat).max() < 1e-9
        total = np.zeros((h.dim, h.dim), dtype=complex)
        for i, p in enumerate(projectors):
            assert np.abs(p @ p - p).max() < 1e-10
            for q in projectors[i + 1:]:
                assert np.abs(p @ q).max() < 1e-10
            total += p
        assert np.abs(total - np.eye(h.dim)).max() < 1e-10


def test_eig_groups_degenerate_eigenvalues():
    h = cq.HermitianOperator(np.diag([0.5, 0.5 + 1e-12, 0.1]))
    values, projectors = oracles.eig_groups(h, group_tol=1e-9)
    assert len(values) == 2
    assert projectors[0].trace().real == pytest.approx(2.0)


def test_matrix_fn_log_identity():
    out = oracles.matrix_fn(cq.HermitianOperator(I2), np.log)
    assert np.abs(out.mat).max() < 1e-15


def test_matrix_fn_inverse():
    out = oracles.matrix_fn(cq.HermitianOperator(np.diag([0.5, 0.5])), lambda w: w ** -1.0)
    assert np.allclose(out.mat, np.diag([2.0, 2.0]))


def test_matrix_fn_log_diagonal():
    out = oracles.matrix_fn(cq.HermitianOperator(np.diag([0.25, 0.75])), np.log)
    assert out.mat[0, 0].real == pytest.approx(math.log(0.25), abs=1e-12)
    assert out.mat[1, 1].real == pytest.approx(math.log(0.75), abs=1e-12)


def test_matrix_fn_rejects_singular_log_off_support():
    singular = cq.HermitianOperator(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        oracles.matrix_fn(singular, np.log)
    on_support = oracles.matrix_fn(singular, np.log, on_support_only=True)
    assert np.abs(on_support.mat).max() < 1e-15


def test_matrix_fn_exp_log_roundtrip_on_support():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density(rng, 3, rank=2)
        logm = oracles.matrix_fn(rho, np.log, on_support_only=True)
        # exp applies only on the support; add back nothing off it
        w, v = np.linalg.eigh(rho.mat)
        back = oracles.matrix_fn(logm, np.exp)
        support = v[:, w > 1e-12]
        proj = support @ support.conj().T
        assert np.abs(proj @ back.mat @ proj - rho.mat).max() < 1e-9


def test_tensor_product_basics():
    assert np.allclose(cq.tensor_product(cq.HermitianOperator(I2),
                                         cq.HermitianOperator(I2)).mat, np.eye(4))
    out = cq.tensor_product(cq.DensityOperator(np.diag([1.0, 0.0])),
                            cq.DensityOperator(np.diag([0.0, 1.0])))
    assert isinstance(out, cq.DensityOperator)
    assert np.allclose(out.mat, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_product_trace_multiplicative_and_associative():
    rng = np.random.default_rng(4)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    c = random_hermitian(rng, 2)
    ab = cq.tensor_product(a, b)
    assert ab.trace() == pytest.approx(a.trace() * b.trace(), abs=1e-12)
    left = cq.tensor_product(cq.tensor_product(a, b), c)
    right = cq.tensor_product(a, cq.tensor_product(b, c))
    assert np.abs(left.mat - right.mat).max() < 1e-12


def test_tensor_product_is_exactly_hermitian():
    rng = np.random.default_rng(30)
    ch = cq.CQWiretapChannel([random_density(rng, 3) for _ in range(2)],
                             [random_density(rng, 2) for _ in range(2)])
    for _ in range(10):
        h = random_hermitian(rng, 3)
        rho = random_density(rng, 2)
        tau = random_density(rng, 3, rank=2)
        products = [
            cq.tensor_product(h, rho),
            cq.tensor_product(rho, tau),
            cq.tensor_product(cq.tensor_product(tau, h), rho),
            cq.tensor_power(rho, 4),
            cq.product_output_state(ch, rng.integers(0, 2, size=4), "receiver"),
        ]
        for out in products:
            assert np.array_equal(out.mat, out.mat.conj().T)
            assert not out.mat.flags.writeable
        assert isinstance(products[1], cq.DensityOperator)
        assert not isinstance(products[0], cq.DensityOperator)


def test_tensor_product_dimension_cap(monkeypatch):
    monkeypatch.setenv("CQCOVERT_DIM_CAP", "8")
    a = cq.HermitianOperator(np.eye(4))
    with pytest.raises(DimensionCapError):
        cq.tensor_product(a, a)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 2)
    tau = random_density(rng, 3)
    joint = cq.tensor_product(rho, tau)
    assert np.abs(oracles.partial_trace(joint, [2, 3], keep=0).mat - rho.mat).max() < 1e-10
    assert np.abs(oracles.partial_trace(joint, [2, 3], keep=1).mat - tau.mat).max() < 1e-10


def test_partial_trace_correlated_state():
    corr = cq.DensityOperator(np.diag([0.5, 0.0, 0.0, 0.5]))
    for keep in (0, 1):
        out = oracles.partial_trace(corr, [2, 2], keep=keep)
        assert np.allclose(out.mat, np.diag([0.5, 0.5]))


def test_partial_trace_preserves_trace_three_factors():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 8)
    for keep in range(3):
        out = oracles.partial_trace(rho, [2, 2, 2], keep=keep)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_rejects_bad_factorization():
    rho = cq.DensityOperator(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        oracles.partial_trace(rho, [3, 2], keep=0)
    with pytest.raises(ValueError):
        oracles.partial_trace(rho, [2, 2], keep=2)


def test_support_projector():
    rng = np.random.default_rng(7)
    full = random_density(rng, 3)
    assert np.abs(oracles.support_projector(full).mat - np.eye(3)).max() < 1e-10
    pure = cq.DensityOperator(np.diag([1.0, 0.0]))
    assert np.allclose(oracles.support_projector(pure).mat, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        oracles.support_projector(cq.HermitianOperator(np.diag([1.0, -0.5])))


def test_support_containment():
    rng = np.random.default_rng(8)
    small = random_density(rng, 3, rank=1)
    pair = cq.DensityOperator(0.5 * small.mat + 0.5 * random_density(rng, 3, rank=1).mat)
    other = random_pure(rng, 3)

    def leaks(states, ref):
        stacked = np.linalg.eigh(np.stack([s.mat for s in states]))
        return _support_leaks(*stacked, *np.linalg.eigh(ref.mat)).tolist()

    assert leaks([small, pair, other], pair) == [False, False, True]
    assert leaks([other, small, pair], small) == [True, False, True]
    full = random_density(rng, 3)
    assert leaks([small, other, full], full) == [False, False, False]


def test_positive_part_projector():
    rng = np.random.default_rng(9)
    pos = random_density(rng, 3, floor=0.3)
    assert np.abs(oracles.positive_part_projector(pos).mat - np.eye(3)).max() < 1e-10
    neg = cq.HermitianOperator(-pos.mat)
    assert np.abs(oracles.positive_part_projector(neg).mat).max() < 1e-12
    split = oracles.positive_part_projector(cq.HermitianOperator(np.diag([0.3, -0.2])))
    assert np.allclose(split.mat, np.diag([1.0, 0.0]))


def test_pinch_identity_reference():
    rng = np.random.default_rng(10)
    a = random_hermitian(rng, 3)
    out = oracles.pinch(a, cq.HermitianOperator(np.eye(3)))
    assert np.abs(out.mat - a.mat).max() < 1e-12


def test_pinch_full_dephasing():
    rng = np.random.default_rng(12)
    a = random_hermitian(rng, 3)
    b = cq.HermitianOperator(np.diag([3.0, 2.0, 1.0]))
    out = oracles.pinch(a, b)
    assert np.abs(out.mat - np.diag(np.diag(a.mat))).max() < 1e-12


def kernel_quadratic(rho0, tilde):
    """Sum_ij |X_ij|^2 K_ij with X = tilde - rho0 in the eigenbasis of rho0."""
    w, v = np.linalg.eigh(rho0)
    x = v.conj().T @ (tilde - rho0) @ v
    return float((np.abs(x) ** 2 * dlog_kernel(w)).sum())


def test_dlog_kernel_matches_kubo_mori_on_full_rank_states():
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4):
        rho0 = random_density(rng, dim, floor=0.1).mat
        tilde = random_density(rng, dim, floor=0.1).mat
        assert kernel_quadratic(rho0, tilde) == pytest.approx(
            oracles.kubo_mori_quadratic(rho0, tilde), rel=1e-12)
        # Dlog(rho0)[X] against a central difference of scipy's logm.
        w, v = np.linalg.eigh(rho0)
        x = random_hermitian(rng, dim, scale=0.1).mat
        dlog = v @ (dlog_kernel(w) * (v.conj().T @ x @ v)) @ v.conj().T
        h = 1e-5
        assert np.allclose(dlog, (logm(rho0 + h * x) - logm(rho0 - h * x)) / (2 * h), atol=1e-8)


def test_dlog_kernel_on_degenerate_spectrum():
    rng = np.random.default_rng(32)
    u = random_unitary(rng, 3)
    rho0 = u @ np.diag([0.25, 0.25, 0.5]) @ u.conj().T
    tilde = random_density(rng, 3, floor=0.1).mat
    w = np.linalg.eigvalsh(rho0)
    assert dlog_kernel(w)[0, 1] == pytest.approx(4.0, rel=1e-12)
    assert kernel_quadratic(rho0, tilde) == pytest.approx(
        oracles.kubo_mori_quadratic(rho0, tilde), rel=1e-12)


def test_dlog_kernel_on_rank_deficient_reference():
    # Both states live on a 2-dimensional subspace of C^3; the kernel is taken
    # on supp(rho0), where it must match the Kubo-Mori form of the compressed pair.
    rng = np.random.default_rng(33)
    basis = random_unitary(rng, 3)[:, :2]
    small0 = random_density(rng, 2, floor=0.1).mat
    small1 = random_density(rng, 2, floor=0.1).mat
    rho0, tilde = basis @ small0 @ basis.conj().T, basis @ small1 @ basis.conj().T
    w = np.linalg.eigvalsh(rho0)
    kernel = dlog_kernel(w)
    off = w <= 1e-12
    assert off.sum() == 1 and not kernel[off].any() and not kernel[:, off].any()
    assert np.isfinite(kernel).all()
    assert kernel_quadratic(rho0, tilde) == pytest.approx(
        oracles.kubo_mori_quadratic(small0, small1), rel=1e-10)


def test_pinch_properties():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = random_density(rng, 4)
        b = random_hermitian(rng, 4)
        out = oracles.pinch(a, b)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        comm = out.mat @ b.mat - b.mat @ out.mat
        assert np.abs(comm).max() < 1e-9
        assert np.linalg.eigvalsh(out.mat)[0] > -1e-12
        again = oracles.pinch(out, b)
        assert np.abs(again.mat - out.mat).max() < 1e-9
    with pytest.raises(ValueError):
        oracles.pinch(random_density(rng, 2), random_hermitian(rng, 3))


def test_trace_norm():
    assert oracles.trace_norm(cq.HermitianOperator(np.diag([1.0, -2.0]))) == pytest.approx(3.0)
