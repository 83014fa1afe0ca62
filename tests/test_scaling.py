import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import cqcovert as cq
from cqcovert.config import FRANK_WOLFE_GAP_TOL, KKT_TOL
from cqcovert.errors import DimensionCapError, WrongRegimeError
from cqcovert.divergences import Letters
from cqcovert.regime import Regime
from cqcovert.scaling import _compositions, _holevo_derivatives, _solve_ray_qp

import oracles
from helpers import (
    conjugated_channel,
    diag_state,
    leaking_receiver_example_channel,
    mixture_example_channel,
    permuted_channel,
    random_density,
    random_channel,
    random_diagonal_channel,
    random_square_root_channel,
    random_unitary,
    two_symbol_example_channel,
    uninformative_symbol_example_channel,
)

# frozen from the scalar derivation: d(1) = 0.75 ln 1.5 + 0.25 ln 0.5
D1_EXPECTED = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
L_EXPECTED = D1_EXPECTED / math.sqrt(0.125)


def random_diag_square_root(rng, k, dy, dz, tries=60):
    for _ in range(tries):
        ch, sig, rho = random_diagonal_channel(rng, k, dy, dz)
        if cq.classify(ch).regime == Regime.SQUARE_ROOT:
            return ch, sig, rho
    raise RuntimeError("no diagonal square-root channel sampled")


def test_divergence_vector():
    ch = two_symbol_example_channel()
    d = cq.divergence_vector(ch)
    assert d[0] == pytest.approx(D1_EXPECTED, abs=1e-12)
    assert d[0] == pytest.approx(0.13081203594113698, abs=1e-15)

    same = cq.CQWiretapChannel([ch.sigma[0], ch.sigma[0]], ch.rho)
    assert cq.divergence_vector(same)[0] == pytest.approx(0.0, abs=1e-12)


def test_divergence_vector_rejects_support_violation():
    from helpers import off_support_example_channel
    with pytest.raises(WrongRegimeError):
        cq.divergence_vector(off_support_example_channel())


def test_gram_all_equal_states():
    rng = np.random.default_rng(0)
    rho0 = random_density(rng, 2, floor=0.3)
    sigma = [random_density(rng, 2) for _ in range(3)]
    ch = cq.CQWiretapChannel(sigma, [rho0, rho0, rho0])
    gram = cq.chi_sq_gram(ch)
    assert np.abs(gram - 1.0).max() < 1e-10
    p = np.array([0.3, 0.7])
    assert p @ gram @ p - 1.0 == pytest.approx(0.0, abs=1e-10)


def test_gram_diagonal_entry_and_symmetry():
    ch = two_symbol_example_channel()
    gram = cq.chi_sq_gram(ch)
    assert gram[0, 0] == pytest.approx(1.25, abs=1e-12)
    rng = np.random.default_rng(1)
    from helpers import random_channel
    wide = random_channel(rng, 4, 2, 3)
    g = cq.chi_sq_gram(wide)
    assert np.array_equal(g, g.T)


def test_gram_quadratic_form_matches_chi_squared():
    rng = np.random.default_rng(2)
    from helpers import random_channel
    for _ in range(10):
        ch = random_channel(rng, 4, 2, 2)
        gram = cq.chi_sq_gram(ch)
        p = rng.dirichlet(np.ones(3))
        mix = cq.DensityOperator(sum(p[i] * ch.rho[i + 1].mat for i in range(3)))
        assert p @ gram @ p - 1.0 == pytest.approx(cq.chi_squared(mix, ch.rho[0]), abs=1e-9)


def test_scaling_constant_two_symbol_closed_form():
    result = cq.scaling_constant(two_symbol_example_channel())
    closed = oracles.scaling_constant_two_symbols(D1_EXPECTED, 1.25)
    assert result.L == pytest.approx(closed, abs=1e-9)
    assert result.L == pytest.approx(L_EXPECTED, abs=1e-12)
    assert result.optimizer.probs.tolist() == [0.0, 1.0]
    assert result.kkt_residual <= 1e-9


def test_scaling_constant_duplicate_symbol_invariance():
    ch = two_symbol_example_channel()
    dup = cq.CQWiretapChannel(
        [ch.sigma[0], ch.sigma[1], ch.sigma[1]],
        [ch.rho[0], ch.rho[1], ch.rho[1]],
    )
    assert cq.scaling_constant(dup).L == pytest.approx(cq.scaling_constant(ch).L, abs=1e-9)


def test_scaling_constant_no_informative_symbol():
    sigma0 = diag_state(0.5, 0.5)
    ch = cq.CQWiretapChannel([sigma0, sigma0], [diag_state(0.5, 0.5), diag_state(0.7, 0.3)])
    result = cq.scaling_constant(ch)
    assert result.L == 0.0
    assert result.support == ()


def test_scaling_constant_wrong_regime():
    with pytest.raises(WrongRegimeError):
        cq.scaling_constant(mixture_example_channel())


def test_scaling_constant_matches_grid_oracle():
    rng = np.random.default_rng(3)
    for k in (2, 3, 4):
        ch = random_square_root_channel(rng, k, 2, 2)
        result = cq.scaling_constant(ch)
        resolution = 1e-2
        oracle = cq.scaling_constant_grid_oracle(ch, resolution)
        tol = max(1e-4, 2.0 * resolution * float(np.linalg.norm(result.d)))
        assert oracle <= result.L + 1e-9  # grid lower-bounds the optimum
        assert abs(result.L - oracle) <= tol


def assert_agrees_with_fine_grid_oracle(ch, value):
    # 1e-3 for k <= 4; at k = 5 that grid has 1.7e8 points, above the
    # oracle's MAX_GRID_POINTS cap, so there the step is 1/150.
    oracle = cq.scaling_constant_grid_oracle(ch, 1e-3 if ch.k <= 4 else 1 / 150)
    assert oracle - 1e-9 <= value <= oracle + 1e-3 * value


def test_scaling_constant_uses_uninformative_symbol():
    ch = uninformative_symbol_example_channel()
    assert cq.classify(ch).regime == Regime.SQUARE_ROOT
    result = cq.scaling_constant(ch)
    assert_agrees_with_fine_grid_oracle(ch, result.L)
    assert 2 in result.support


def test_scaling_constant_with_uninformative_symbols_matches_grid_oracle():
    # 1 to k - 2 nonzero receiver states equal sigma(0); such a symbol adds
    # nothing to the numerator but can still lower the denominator.
    rng = np.random.default_rng(33)  # the optimum uses such a symbol on 8 of its 30
    checked = optimum_uses_them = 0
    while checked < 30:
        k = int(rng.integers(3, 6))
        dz = int(rng.integers(2, 4))
        sigma = [random_density(rng, 2, floor=0.2) for _ in range(k)]
        rho = [random_density(rng, dz, floor=0.2) for _ in range(k)]
        idle = 1 + rng.choice(k - 1, size=int(rng.integers(1, k - 1)), replace=False)
        for x in idle:
            sigma[x] = sigma[0]
        ch = cq.CQWiretapChannel(sigma, rho)
        if cq.classify(ch).regime != Regime.SQUARE_ROOT:
            continue
        checked += 1
        result = cq.scaling_constant(ch)
        assert_agrees_with_fine_grid_oracle(ch, result.L)
        optimum_uses_them += bool(set(result.support) & set(idle.tolist()))
    assert optimum_uses_them >= 5


def test_scaling_constant_classical_reduction():
    rng = np.random.default_rng(4)
    for k in (2, 3, 4):
        ch, sig, rho = random_diag_square_root(rng, k, 3, 3)
        result = cq.scaling_constant(ch)
        d_s, gram_s = oracles.divergence_and_gram(sig, rho)
        assert np.abs(result.d - d_s).max() < 1e-9
        assert np.abs(result.gram - gram_s).max() < 1e-9
        if k == 2:
            scalar = oracles.scaling_constant_two_symbols(d_s[0], gram_s[0, 0])
        else:
            _, objective, _ = _solve_ray_qp(gram_s - 1.0, d_s)
            scalar = 1.0 / math.sqrt(objective)
        assert result.L == pytest.approx(scalar, abs=1e-9)


def test_scaling_constant_invariances():
    rng = np.random.default_rng(5)
    ch = random_square_root_channel(rng, 3, 2, 2)
    base = cq.scaling_constant(ch).L
    for _ in range(5):
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 2)
        assert cq.scaling_constant(conjugated_channel(ch, u, v)).L == pytest.approx(base, abs=1e-8)
    for _ in range(5):
        perm = 1 + rng.permutation(ch.k - 1)
        assert cq.scaling_constant(permuted_channel(ch, perm)).L == pytest.approx(base, abs=1e-9)


def test_scaling_ratio_scale_invariance():
    rng = np.random.default_rng(6)
    ch = random_square_root_channel(rng, 4, 2, 2)
    result = cq.scaling_constant(ch)
    centered = result.gram - 1.0
    v = result.optimizer.probs[1:]
    for c in (0.5, 2.0, 13.7):
        w = c * v
        ratio = (w @ result.d) / math.sqrt(0.5 * (w @ centered @ w))
        assert ratio == pytest.approx(result.L, abs=1e-9)


def separated_psd_instance(rng, r, rank):
    """Ray-QP data shaped like the scaling constant's: A = G G^T, with the
    rows of G on one side of a hyperplane, so that no nonzero v >= 0 has
    v^T A v = 0 (the square-root regime), and d > 0."""
    g = rng.normal(size=(r, rank))
    w = rng.normal(size=rank)
    g *= np.sign(g @ w)[:, None]
    return g @ g.T, rng.uniform(0.05, 1.0, size=r)


def assert_certified(a_mat, d, v, residual):
    assert v.min() >= 0.0
    assert d @ v == pytest.approx(1.0, abs=1e-12)
    assert residual <= KKT_TOL * max(float(np.abs(a_mat).max()), float(np.abs(d).max()), 1.0)


def test_ray_qp_matches_enumeration_on_random_instances():
    rng = np.random.default_rng(21)
    cases = [(int(r), int(rng.integers(1, r + 2))) for r in rng.integers(1, 13, size=60)]
    cases += [(17, 2), (20, 2), (24, 2)]  # r > 16 with small optimal support
    for r, rank in cases:
        a_mat, d = separated_psd_instance(rng, r, rank)
        v, objective, residual = _solve_ray_qp(a_mat, d)
        _, expected, _ = oracles.enumerated_ray_qp(a_mat, d)
        assert objective == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert_certified(a_mat, d, v, residual)


def test_ray_qp_singular_gram_from_duplicated_symbol():
    rng = np.random.default_rng(22)
    a_mat, d = separated_psd_instance(rng, 5, 5)
    order = [0, 1, 2, 3, 4, 1]
    a_dup, d_dup = a_mat[np.ix_(order, order)], d[order]
    assert np.linalg.matrix_rank(a_dup) == 5
    v, objective, residual = _solve_ray_qp(a_dup, d_dup)
    _, expected, _ = oracles.enumerated_ray_qp(a_dup, d_dup)
    assert objective == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert objective == pytest.approx(_solve_ray_qp(a_mat, d)[1], rel=1e-12, abs=0.0)
    assert_certified(a_dup, d_dup, v, residual)


def test_ray_qp_full_support():
    rng = np.random.default_rng(16)
    g = rng.normal(size=(16, 16))
    a_mat = g @ g.T / 16 + 0.1 * np.eye(16)
    v_star = rng.uniform(0.5, 1.5, size=16)
    # A v* = mu d with d^T v* = 1: v* is the unique optimum.
    d = a_mat @ v_star / (v_star @ a_mat @ v_star)
    v, objective, residual = _solve_ray_qp(a_mat, d)
    _, expected, _ = oracles.enumerated_ray_qp(a_mat, d)
    assert np.count_nonzero(v) == 16
    assert np.allclose(v, v_star, rtol=1e-9)
    assert objective == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert_certified(a_mat, d, v, residual)


def test_ray_qp_without_positive_direction_raises():
    with pytest.raises(ArithmeticError):
        _solve_ray_qp(np.eye(2), np.array([-1.0, 0.0]))


def test_ray_qp_pass_cap_raises(monkeypatch):
    # A KKT solve whose target is never feasible makes the free set cycle.
    monkeypatch.setattr("cqcovert.regime._equality_kkt",
                        lambda a_mat, d, support: (-np.ones(len(d)), 1.0))
    with pytest.raises(ArithmeticError, match="did not converge in 6 passes"):
        _solve_ray_qp(np.eye(2), np.ones(2))


PINNED_CHANNEL_SCRIPT = textwrap.dedent("""
    import importlib.util, json, sys
    import numpy as np
    import cqcovert as cq
    import oracles
    from cqcovert.regime import informative_symbols

    spec = importlib.util.spec_from_file_location("bench_inputs", sys.argv[1])
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    rng = np.random.default_rng([301, 553])
    for k in range(2, 22):
        for dz in (2, 3, 4):
            sigma, rho = inputs.square_root_channel(rng, k, dz)
    ch, _ = cq.sanitize(cq.CQWiretapChannel.from_matrices(sigma, rho))
    result = cq.scaling_constant(ch)
    keep = [x - 1 for x in informative_symbols(ch)]
    _, expected, _ = oracles.enumerated_ray_qp((result.gram - 1.0)[np.ix_(keep, keep)],
                                               result.d[keep])
    print(json.dumps({"k": ch.k, "dZ": ch.eavesdropper_dim,
                      "objective": result.qp_objective, "expected": expected}))
""")


def test_ray_qp_solves_pinned_wide_channel_with_one_blas_thread():
    # The k = 21, dZ = 4 channel of the [301, 553] stream; with one OpenBLAS
    # thread it once made an SLSQP line search fail.
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(Path(cq.__file__).resolve().parents[1]), str(tests_dir)]))
    proc = subprocess.run(
        [sys.executable, "-c", PINNED_CHANNEL_SCRIPT,
         str(tests_dir.parent / "bench" / "inputs.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["k"], out["dZ"]) == (21, 4)
    assert out["objective"] == pytest.approx(out["expected"], rel=1e-12, abs=0.0)


def test_grid_oracle_two_symbols_exact():
    ch = two_symbol_example_channel()
    assert cq.scaling_constant_grid_oracle(ch, 1e-2) == pytest.approx(L_EXPECTED, abs=1e-12)


def test_grid_oracle_monotone_in_resolution():
    rng = np.random.default_rng(7)
    ch = random_square_root_channel(rng, 3, 2, 2)
    coarse = cq.scaling_constant_grid_oracle(ch, 1 / 20)
    fine = cq.scaling_constant_grid_oracle(ch, 1 / 40)
    finer = cq.scaling_constant_grid_oracle(ch, 1 / 80)
    assert coarse <= fine + 1e-12 <= finer + 2e-12


def test_compositions_enumerate_the_grid_in_lexicographic_order():
    for total, parts in [(10, 4), (6, 3), (5, 2), (4, 1)]:
        expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                    if sum(c) == total]
        assert _compositions(total, parts).tolist() == [list(c) for c in expected]


def test_grid_oracle_cap():
    rng = np.random.default_rng(8)
    ch = random_square_root_channel(rng, 4, 2, 2)
    with pytest.raises(DimensionCapError):
        cq.scaling_constant_grid_oracle(ch, 1e-4)


def test_covert_rate_square_root_channel_is_zero():
    result = cq.covert_rate(two_symbol_example_channel())
    assert result.rate == 0.0
    assert result.optimizer.probs.tolist() == [1.0, 0.0]


def test_covert_rate_mixture_example():
    ch = mixture_example_channel()
    result = cq.covert_rate(ch)
    # grid oracle over the feasible segment P(t) = (1 - 2t, t, t)
    best = 0.0
    for t in np.linspace(0.0, 0.5, 501):
        probs = np.array([1.0 - 2 * t, t, t])
        best = max(best, cq.holevo_information(ch.sigma, probs))
    assert result.rate == pytest.approx(best, abs=1e-6)
    assert result.rate == pytest.approx(math.log(2), abs=1e-9)
    assert result.feasibility_residual <= 1e-8
    assert result.rate == pytest.approx(
        cq.holevo_information(ch.sigma, result.optimizer), abs=1e-9)


def test_covert_rate_at_least_witness_rate():
    rng = np.random.default_rng(9)
    for _ in range(5):
        components = [random_density(rng, 2, floor=0.2) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        rho0 = cq.DensityOperator(sum(w * c.mat for w, c in zip(weights, components)))
        sigma = [random_density(rng, 2) for _ in range(4)]
        ch = cq.CQWiretapChannel(sigma, [rho0] + components)
        report = cq.classify(ch)
        assert report.regime == Regime.POSITIVE_RATE
        witness_rate = cq.holevo_information(ch.sigma, report.mixture_witness)
        assert cq.covert_rate(ch).rate >= witness_rate - 1e-7


def test_covert_rate_unitary_invariance():
    ch = mixture_example_channel()
    rng = np.random.default_rng(10)
    base = cq.covert_rate(ch).rate
    for _ in range(3):
        u = random_unitary(rng, 2)
        rotated = cq.covert_rate(conjugated_channel(ch, u_receiver=u)).rate
        assert rotated == pytest.approx(base, abs=1e-6)


def bench_inputs():
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def positive_rate_draws(count):
    """The first ``count`` channels of the default_rng(11) stream of
    ``bench/inputs.positive_rate_channel``: dZ = 2, k ~ U{3..8}, dY ~ U{2,3}."""
    inputs = bench_inputs()
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(count):
        k = rng.integers(3, 9)
        dy = rng.integers(2, 4)
        sigma, rho = inputs.positive_rate_channel(rng, k, 2, dy)
        draws.append(cq.sanitize(cq.CQWiretapChannel.from_matrices(sigma, rho))[0])
    return draws


@pytest.mark.parametrize("index", [2, 7, 21, 33])
def test_covert_rate_converges_on_wide_alphabet_draw(monkeypatch, index):
    # k - 1 > dZ^2: Frank-Wolfe with a line search along one segment was still
    # 1e-4 to 3e-4 nats short of the optimum after 300 iterations here.
    monkeypatch.setattr("cqcovert.scaling.FRANK_WOLFE_MAX_ITERS", 300)
    ch = positive_rate_draws(index + 1)[index]
    result = cq.covert_rate(ch)
    assert result.converged
    assert 0.0 <= result.gap < FRANK_WOLFE_GAP_TOL
    reference = oracles.slsqp_covert_rate([s.mat for s in ch.sigma], [r.mat for r in ch.rho],
                                          cq.classify(ch).mixture_witness.probs)
    assert result.rate >= reference - 1e-9


def test_covert_rate_gap_is_never_negative():
    # LP rounding put the raw Frank-Wolfe gap below 0, down to -2.4e-9, on 14 of these.
    for ch in positive_rate_draws(60):
        result = cq.covert_rate(ch)
        assert result.converged and result.gap >= 0.0


def test_covert_rate_with_diagonal_receivers():
    # Commuting receiver letters make the Newton matrix on the active vertices
    # singular; without its diagonal shift, 4 of these 20 failed KKT verification.
    inputs = bench_inputs()
    rng = np.random.default_rng(3)
    for _ in range(20):
        k, dz, dy = int(rng.integers(3, 20)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
        _, rho = inputs.positive_rate_channel(rng, k, dz, dy)
        sigma = [np.diag(rng.dirichlet(np.ones(dy))) for _ in range(k)]
        result = cq.covert_rate(cq.sanitize(cq.CQWiretapChannel.from_matrices(sigma, rho))[0])
        assert result.converged and result.gap >= 0.0


def test_covert_rate_leaves_singular_witness_mixture():
    result = cq.covert_rate(leaking_receiver_example_channel())
    assert result.converged
    assert result.rate == pytest.approx(math.log(3), abs=1e-9)
    assert result.feasibility_residual <= 1e-8


def test_holevo_derivatives_match_central_differences():
    rng = np.random.default_rng(44)
    h = 1e-4
    for dy in (2, 3):
        states = [random_density(rng, dy, floor=0.1) for _ in range(4)]
        p = rng.dirichlet(np.ones(4))
        chi, grad, hess = _holevo_derivatives(Letters(states))(p)

        def f(q):
            return cq.holevo_information(states, q)

        e = np.eye(4) * h
        fd_grad = [(f(p + e[x]) - f(p - e[x])) / (2 * h) for x in range(4)]
        fd_hess = [[(f(p + e[x] + e[y]) - f(p + e[x] - e[y]) - f(p - e[x] + e[y])
                     + f(p - e[x] - e[y])) / (4 * h * h) for y in range(4)] for x in range(4)]
        assert chi == pytest.approx(f(p), abs=1e-12)
        assert np.allclose(grad, fd_grad, rtol=1e-7, atol=1e-9)
        assert np.allclose(hess, fd_hess, rtol=1e-6, atol=1e-8)
        assert np.linalg.eigvalsh(hess).max() <= 1e-12


def test_chi_sq_expansion_degenerate():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2, floor=0.2)
    report = cq.chi_sq_expansion_check(rho, rho, [1e-2])
    assert report.degenerate
    assert report.ratios == ()


def test_chi_sq_expansion_commuting_pair():
    rho0 = diag_state(0.5, 0.5)
    tilde = diag_state(0.75, 0.25)
    report = cq.chi_sq_expansion_check(rho0, tilde, [1e-3])
    assert 0.99 <= report.ratios[0] <= 1.01


def test_chi_sq_expansion_ratio_approaches_one_commuting():
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = rng.dirichlet(np.ones(3)) * 0.8 + 0.2 / 3
        q = rng.dirichlet(np.ones(3)) * 0.8 + 0.2 / 3
        report = cq.chi_sq_expansion_check(
            cq.DensityOperator(np.diag(p)), cq.DensityOperator(np.diag(q)),
            [1e-2, 1e-3, 1e-4])
        assert abs(report.ratios[-1] - 1.0) < abs(report.ratios[0] - 1.0)
        assert 0.99 <= report.ratios[-1] <= 1.01


def test_chi_sq_expansion_noncommuting_limit_is_kubo_mori():
    # For noncommuting pairs the exact quadratic coefficient is the
    # Kubo-Mori form, which is strictly below tr[t^2 r^{-1}] - 1, so the
    # reported ratio converges to their quotient rather than to 1.
    rng = np.random.default_rng(12)
    for _ in range(5):
        rho0 = random_density(rng, 2, floor=0.3)
        tilde = random_density(rng, 2, floor=0.1)
        report = cq.chi_sq_expansion_check(rho0, tilde, [1e-3, 1e-4])
        km = oracles.kubo_mori_quadratic(rho0.mat, tilde.mat)
        expected = km / report.chi_squared_value
        assert expected <= 1.0 + 1e-12
        assert report.ratios[-1] == pytest.approx(expected, rel=1e-3)


def test_chi_sq_expansion_rejects_bad_alphas():
    rho0 = diag_state(0.5, 0.5)
    with pytest.raises(ValueError):
        cq.chi_sq_expansion_check(rho0, diag_state(0.75, 0.25), [0.5])


def test_holevo_expansion_all_states_equal():
    sigma0 = diag_state(0.5, 0.5)
    ch = cq.CQWiretapChannel([sigma0, sigma0], [diag_state(0.5, 0.5), diag_state(0.7, 0.3)])
    report = cq.holevo_expansion_check(ch, cq.InputDistribution([0.0, 1.0]), [1e-2, 1e-3])
    assert report.limit == 0.0
    assert all(s == pytest.approx(0.0, abs=1e-12) for s in report.slopes)


def test_holevo_expansion_two_symbol_slope():
    ch = two_symbol_example_channel()
    report = cq.holevo_expansion_check(ch, cq.InputDistribution([0.0, 1.0]), [1e-4])
    assert report.limit == pytest.approx(D1_EXPECTED, abs=1e-12)
    assert report.slopes[0] == pytest.approx(report.limit, rel=0.01)


def test_holevo_expansion_limit_ignores_zero_weight_leaking_symbol():
    # sigma(1) has support outside supp(sigma(0)): D(sigma(1) || sigma(0)) = inf.
    ch = cq.CQWiretapChannel(
        [diag_state(0.8, 0.2, 0.0), diag_state(0.3, 0.3, 0.4), diag_state(0.5, 0.5, 0.0)],
        [diag_state(0.5, 0.5), diag_state(0.6, 0.4), diag_state(0.4, 0.6)],
    )
    report = cq.holevo_expansion_check(ch, cq.InputDistribution([0.0, 0.0, 1.0]), [1e-3])
    assert report.limit == pytest.approx(math.log(1.25), abs=1e-12)
    assert report.limit == pytest.approx(0.2231435513, abs=1e-10)
    report = cq.holevo_expansion_check(ch, cq.InputDistribution([0.0, 0.5, 0.5]), [1e-3])
    assert report.limit == float("inf")


def test_holevo_expansion_unitary_invariance():
    rng = np.random.default_rng(13)
    ch = random_square_root_channel(rng, 3, 2, 2)
    p_tilde = cq.InputDistribution([0.0, 0.4, 0.6])
    base = cq.holevo_expansion_check(ch, p_tilde, [1e-4]).slopes[0]
    u = random_unitary(rng, 2)
    rotated = cq.holevo_expansion_check(conjugated_channel(ch, u_receiver=u), p_tilde, [1e-4])
    assert rotated.slopes[0] == pytest.approx(base, abs=1e-9)


def test_converse_chain_iid_saturation():
    rng = np.random.default_rng(14)
    ch = random_square_root_channel(rng, 2, 2, 2)
    p = np.array([0.7, 0.3])
    n = 3
    codewords = np.array([[b >> i & 1 for i in range(n)] for b in range(2 ** n)])
    weights = np.array([np.prod(p[cw]) for cw in codewords])
    report = cq.converse_chain(ch, codewords, weights)
    assert report.holevo_joint == pytest.approx(report.holevo_marginal_sum, abs=1e-9)
    assert report.holevo_marginal_sum == pytest.approx(report.holevo_avg_scaled, abs=1e-9)
    assert report.div_joint == pytest.approx(report.div_marginal_sum, abs=1e-9)
    assert report.div_marginal_sum == pytest.approx(report.div_avg_scaled, abs=1e-9)


def test_converse_chain_single_codeword():
    ch = two_symbol_example_channel()
    report = cq.converse_chain(ch, [[1, 0, 1]], [1.0])
    assert report.holevo_joint == pytest.approx(0.0, abs=1e-10)
    d_rho = cq.relative_entropy(ch.rho[1], ch.rho[0])
    assert report.div_joint == pytest.approx(2 * d_rho, abs=1e-9)
    assert report.div_marginal_sum == pytest.approx(2 * d_rho, abs=1e-9)


def test_converse_chain_random_ensembles_ordered():
    rng = np.random.default_rng(15)
    from helpers import random_channel
    for _ in range(10):
        ch = random_channel(rng, 2, 2, 2)
        codewords = rng.integers(0, 2, size=(2, 3))
        weights = rng.dirichlet(np.ones(2))
        report = cq.converse_chain(ch, codewords, weights)
        assert report.receiver_ok and report.eavesdropper_ok


def test_converse_chain_matches_dense_references():
    rng = np.random.default_rng(16)
    for n in range(2, 9):
        ch = random_channel(rng, 3, 2, 2)
        m = int(rng.integers(1, 6))
        codewords = rng.integers(0, 3, size=(m, n))
        weights = rng.dirichlet(np.ones(m))
        report = cq.converse_chain(ch, codewords, weights, strict=False)
        holevo, div = oracles.dense_joint_terms(ch, codewords, weights)
        assert report.holevo_joint == pytest.approx(holevo, abs=1e-10)
        assert report.div_joint == pytest.approx(div, abs=1e-10)
        assert report.receiver_ok and report.eavesdropper_ok


def test_converse_chain_single_letter_links_match_holevo_information():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        ch = random_channel(rng, 3, 3, 2)
        m = int(rng.integers(1, 6))
        codewords = rng.integers(0, 3, size=(m, n))
        weights = rng.dirichlet(np.ones(m))
        report = cq.converse_chain(ch, codewords, weights, strict=False)
        marginals = [np.bincount(codewords[:, i], weights=weights, minlength=3) for i in range(n)]
        expected = sum(cq.holevo_information(ch.sigma, p) for p in marginals)
        assert report.holevo_marginal_sum == pytest.approx(expected, abs=1e-12)
        expected = n * cq.holevo_information(ch.sigma, np.mean(marginals, axis=0))
        assert report.holevo_avg_scaled == pytest.approx(expected, abs=1e-12)


def test_converse_chain_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("CQCOVERT_DIM_CAP", "4")
    ch = two_symbol_example_channel()
    with pytest.raises(DimensionCapError):
        cq.converse_chain(ch, [[0, 1, 0]], [1.0])
