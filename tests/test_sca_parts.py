import math

import numpy as np
import pytest

import smsec as S
from smsec import SCAParams, asr, f1, grad_f1, project_spectrahedron
from smsec.optim import _project_capped_simplex, f2, relaxed_asr, solve_sca_subproblem

from conftest import capped_simplex_oracle, lifted_logterms, make_instance, mean_lifted_grad

try:
    import cvxpy
except ImportError:  # the numpy oracle still checks the projection
    cvxpy = None

LN2 = math.log(2.0)


def random_hermitian(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (A + A.conj().T) / 2


def random_psd(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (A @ A.conj().T) / n


def eve_pair_matrices(cache, k):
    """Eavesdropper pair matrices A_{kk'} for every k', shape (K, N_t, N_t)."""
    return np.stack([cache.pair_matrix("eve", k, kp) for kp in range(cache.n_signals)])


def test_f1_f2_at_zero(instance):
    *_, cache = instance
    cap = math.log2(cache.n_signals)
    for n in (1, 3):
        for m in (1, 2):
            assert f1(cache, np.zeros((4, 4)), n, m) == pytest.approx(cap, abs=1e-12)
            assert f2(cache, np.zeros((4, 4)), n, m) == pytest.approx(cap, abs=1e-12)


def test_f1_midpoint_convexity(instance, rng):
    *_, cache = instance
    for _ in range(10):
        Wa, Wb = random_psd(rng, 4), random_psd(rng, 4)
        mid = f1(cache, (Wa + Wb) / 2, 1, 1)
        assert mid <= (f1(cache, Wa, 1, 1) + f1(cache, Wb, 1, 1)) / 2 + 1e-10


def test_f1_lift_consistency(instance, rng):
    # f1 at W = v v^H reproduces the eavesdropper inner term of the vector
    # objective: log2 sum exp(-p1 v^H E v / 2)
    *_, cache = instance
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    W = np.outer(v, v.conj())
    for n in (1, 2):
        for m in (1, 2):
            k = cache.pair_index(n, m)
            q = np.real(
                np.einsum("aij,i,j->a", eve_pair_matrices(cache, k), v.conj(), v)
            )
            direct = math.log2(np.sum(np.exp(-0.5 * cache.p1 * q)))
            assert f1(cache, W, n, m) == pytest.approx(direct, abs=1e-12)


def test_grad_f1_at_zero_uniform_weights(instance):
    *_, cache = instance
    K = cache.n_signals
    for n, m in [(1, 1), (2, 2)]:
        k = cache.pair_index(n, m)
        expected = -cache.p1 / (2 * LN2 * K) * np.sum(
            eve_pair_matrices(cache, k).conj().swapaxes(-1, -2), axis=0
        )
        np.testing.assert_allclose(grad_f1(cache, np.zeros((4, 4)), n, m), expected, atol=1e-12)


def test_grad_f1_global_underestimator(instance, rng):
    # first-order expansion of a convex function never overestimates it
    *_, cache = instance
    for _ in range(100):
        W0 = random_hermitian(rng, 4)
        W = random_hermitian(rng, 4)
        g = grad_f1(cache, W0, 2, 1)
        linear = f1(cache, W0, 2, 1) + np.real(np.sum(g * (W - W0).T))
        assert f1(cache, W, 2, 1) >= linear - 1e-10


def test_grad_f1_finite_difference_pairing(instance, rng):
    *_, cache = instance
    for _ in range(10):
        W0 = random_psd(rng, 4)
        delta = random_hermitian(rng, 4)
        delta /= np.linalg.norm(delta)
        g = grad_f1(cache, W0, 1, 2)
        eps = 1e-6
        fd = f1(cache, W0 + eps * delta, 1, 2) - f1(cache, W0 - eps * delta, 1, 2)
        predicted = 2 * eps * np.real(np.sum(g * delta.T))
        assert fd == pytest.approx(predicted, rel=1e-5, abs=1e-15)


def test_projection_fixes_feasible_points(rng):
    W = random_psd(rng, 4)
    W *= 3.0 / np.trace(W).real
    out = project_spectrahedron(W, 4.0)
    np.testing.assert_allclose(out, W, atol=1e-12)


def test_projection_single_eigenvalue_cap():
    W = np.diag([8.0, 0.0, 0.0, 0.0]).astype(complex)
    np.testing.assert_allclose(
        project_spectrahedron(W, 4.0), np.diag([4.0, 0.0, 0.0, 0.0]), atol=1e-12
    )


def test_projection_clips_negative_eigenvalues():
    W = np.diag([1.0, -1.0]).astype(complex)
    np.testing.assert_allclose(
        project_spectrahedron(W, 2.0), np.diag([1.0, 0.0]), atol=1e-12
    )


def test_projection_matches_qp_oracle(rng):
    # the numpy bisection oracle always; cvxpy as well when it is installed
    for _ in range(20):
        W = random_hermitian(rng, 3, scale=2.0)
        ours = project_spectrahedron(W, 3.0)
        lam = np.linalg.eigvalsh(W)
        oracle_values = [capped_simplex_oracle(lam, 3.0)]
        if cvxpy is not None:
            x = cvxpy.Variable(3)
            prob = cvxpy.Problem(
                cvxpy.Minimize(cvxpy.sum_squares(x - lam)),
                [x >= 0, cvxpy.sum(x) <= 3.0],
            )
            prob.solve(
                solver=cvxpy.CLARABEL, tol_gap_abs=1e-12, tol_gap_rel=1e-12, tol_feas=1e-12
            )
            oracle_values.append(x.value)
        ours_lam = np.linalg.eigvalsh(ours)
        for value in oracle_values:
            np.testing.assert_allclose(ours_lam, np.sort(value), atol=1e-6)


def test_capped_simplex_oracle_kkt():
    # the oracle itself: inactive budget keeps the clipped spectrum, an
    # active one shifts by the threshold that meets it
    np.testing.assert_allclose(
        capped_simplex_oracle(np.array([-1.0, 0.5, 1.0]), 3.0), [0.0, 0.5, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        capped_simplex_oracle(np.array([0.0, 2.0, 4.0]), 3.0), [0.0, 0.5, 2.5], atol=1e-12
    )


def test_projection_idempotent(rng):
    for _ in range(10):
        W = random_hermitian(rng, 4, scale=3.0)
        once = project_spectrahedron(W, 4.0)
        twice = project_spectrahedron(once, 4.0)
        assert np.linalg.norm(twice - once) <= 1e-10


def test_projection_rejects_non_hermitian(rng):
    W = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        project_spectrahedron(W, 3.0)


def test_projection_of_real_and_integer_input(rng):
    # real eigenvectors must not alias their conjugate transpose
    W = random_hermitian(rng, 4, scale=3.0).real
    np.testing.assert_allclose(
        project_spectrahedron(W, 2.0), project_spectrahedron(W.astype(complex), 2.0), atol=1e-12
    )
    np.testing.assert_array_equal(
        project_spectrahedron(np.diag([8, 0, 0, 0]), 4.0), np.diag([4.0, 0.0, 0.0, 0.0])
    )


@pytest.mark.parametrize("budget", [np.nan, np.inf, 0.0, -1.0])
def test_projection_rejects_a_bad_budget(budget):
    # before, a nan or inf budget returned 5 I, uncapped, with trace 15
    with pytest.raises(ValueError, match="budget"):
        project_spectrahedron(5.0 * np.eye(3, dtype=complex), budget)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_projection_rejects_non_finite_entries(bad, where):
    # before, a nan or inf entry returned an all-nan matrix without an error
    W = np.eye(3, dtype=complex)
    W[where] = bad
    W[where[::-1]] = np.conj(bad)
    with pytest.raises(ValueError, match="finite"):
        project_spectrahedron(W, 3.0)


def test_projection_rejects_a_matrix_whose_norm_overflows():
    # ||W||_F^2 overflows: before, the drift test compared inf with inf and
    # let this non-Hermitian W through, and the valid diagonal one below
    # failed inside the simplex projection with a numpy reduction error.
    with pytest.raises(ValueError, match="too large"):
        project_spectrahedron(np.array([[1e160, 1e160], [0.0, 1e160]]), 3.0)
    with pytest.raises(ValueError, match="too large"):
        project_spectrahedron(np.diag([1e160, 1e160]), 3.0)


def test_projection_rejects_a_spectrum_that_dwarfs_the_budget():
    # A finite norm, but every threshold test of the simplex projection
    # cancels to 0 in double precision, so no index is valid.
    with pytest.raises(ValueError, match="too large to project"):
        project_spectrahedron(np.diag([1e17, 1e17]), 3.0)
    # Here a test passes on a cancelled sum and the shift leaves the
    # spectrum (0, 0, 4, 4): trace 8 against a budget of 3.
    spectrum = [2.20201360e16, -1.28116851e15, 2.20201360e16, -1.43676296e16]
    with pytest.raises(ValueError, match="too large to project"):
        project_spectrahedron(np.diag(spectrum), 3.0)
    with pytest.raises(ValueError, match="too large to project"):
        _project_capped_simplex(np.array([1e160, 1e160]), 3.0)
    np.testing.assert_array_equal(
        project_spectrahedron(np.diag([1e15, 1e15]), 3.0), np.diag([1.5, 1.5])
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0)])
@pytest.mark.parametrize("where", [(1, 1), (0, 2)])
def test_subproblem_rejects_non_finite_start(instance, bad, where):
    *_, cache = instance
    W = 0.5 * np.eye(4, dtype=complex)
    W[where] = bad
    W[where[::-1]] = np.conj(bad)
    with pytest.raises(ValueError, match="finite"):
        solve_sca_subproblem(cache, W, SCAParams())


def test_subproblem_start_point_identity(instance):
    # the surrogate at (W_prev, W_prev) collapses to the relaxed objective
    *_, cache = instance
    v0 = S.default_precoder(4)
    W0 = np.outer(v0, v0.conj())
    lin = float(np.mean(lifted_logterms(cache, "eve", W0)))
    f2_part = float(np.mean(lifted_logterms(cache, "bob", W0)))
    assert lin - f2_part == pytest.approx(relaxed_asr(cache, W0), abs=1e-12)
    assert lin - f2_part == pytest.approx(asr(cache, v0), abs=1e-12)


def test_subproblem_never_worse_than_start(rng):
    for seed in range(4):
        *_, cache = make_instance(seed=seed)
        v0 = S.default_precoder(4)
        W0 = np.outer(v0, v0.conj())
        W1 = solve_sca_subproblem(cache, W0, SCAParams())
        # surrogate objective at the solution vs at the start
        lin_grad = mean_lifted_grad(cache, "eve", W0)
        lin_const = float(np.mean(lifted_logterms(cache, "eve", W0)))

        def surrogate(W):
            linear = lin_const + float(np.real(np.sum(lin_grad * (W - W0).T)))
            return linear - float(np.mean(lifted_logterms(cache, "bob", W)))

        assert surrogate(W1) >= surrogate(W0) - 1e-12
        eigvals = np.linalg.eigvalsh((W1 + W1.conj().T) / 2)
        assert eigvals[0] >= -1e-9
        assert np.trace(W1).real <= 4 * (1 + 1e-9)


def test_subproblem_rejects_infeasible(instance):
    *_, cache = instance
    with pytest.raises(ValueError):
        solve_sca_subproblem(cache, 10.0 * np.eye(4, dtype=complex), SCAParams())


def test_subproblem_matches_grid_oracle():
    # 2x2 real-parametrized instance: real channels and BPSK make every pair
    # matrix real symmetric, so the surrogate depends only on (a, d, b) in
    # W = [[a, b], [b, d]]; exhaustive grid search over the feasible set.
    rng = np.random.default_rng(3)
    n_tx = 2
    H = np.abs(rng.standard_normal((1, n_tx))) + 0j
    G = rng.standard_normal((1, n_tx)) + 0j
    channels = S.ChannelPair(H=H, G=G)
    proj = S.an_projector(H)
    powers = S.PowerConfig(p_total=1.0, p1=0.7, p2=0.3, sigma2_b=0.4, sigma2_e=0.4)
    codebook = S.make_codebook(2, "psk", n_tx)
    cache = S.build_cache(channels, proj, powers, codebook)

    v0 = S.default_precoder(n_tx)
    W0 = np.outer(v0, v0.conj())
    W1 = solve_sca_subproblem(cache, W0, SCAParams())

    lin_grad = mean_lifted_grad(cache, "eve", W0)
    lin_const = float(np.mean(lifted_logterms(cache, "eve", W0)))

    def surrogate(W):
        linear = lin_const + float(np.real(np.sum(lin_grad * (W - W0).T)))
        return linear - float(np.mean(lifted_logterms(cache, "bob", W)))

    best = -np.inf
    grid = np.linspace(0.0, 2.0, 81)
    for a in grid:
        for d in grid:
            if a + d > 2.0 + 1e-12:
                continue
            bmax = math.sqrt(a * d)
            for b in np.linspace(-bmax, bmax, 41):
                W = np.array([[a, b], [b, d]], dtype=complex)
                best = max(best, surrogate(W))
    assert surrogate(W1) >= best - 1e-3
