"""The accelerated SCA inner solver against the backtracking loop it replaced.

The reference is the projected gradient ascent the subproblem solver used
before: a full-gradient step from the current iterate, halved until the
projected point improves the surrogate, doubled after every accepted step,
stopping when an accepted gain drops below ``inner_tol``.  It evaluates the
surrogate and the gradient separately, through ``_lifted_logterms`` and
``_mean_lifted_grad``.  The solver under test extrapolates FISTA-style and
evaluates each point once through ``_lifted_eval``.
"""

import math

import numpy as np
import pytest

import smsec as S
from smsec import SCAParams, project_spectrahedron, solve_sca_subproblem
from smsec.optim import (
    _STEP_FLOOR,
    _lifted_eval,
    _lifted_logterms,
    _lifted_weights,
    _mean_lifted_grad,
)

from conftest import make_instance

LINKS = [(2, 2), (2, 3), (1, 6)]
SNRS_DB = [0, 5, 10, 15]
SEEDS = [0, 1]
OUTER_STEPS = 3


def surrogate_fn(cache, W_prev):
    """The concave surrogate of the subproblem at W_prev, as the solver defines it."""
    lin_grad = _mean_lifted_grad(cache, "eve", W_prev)
    lin_const = float(np.mean(_lifted_logterms(cache, "eve", W_prev)))

    def surrogate(W):
        linear = lin_const + float(np.real(np.sum(lin_grad * (W - W_prev).T)))
        return linear - float(np.mean(_lifted_logterms(cache, "bob", W)))

    return lin_grad, surrogate


def reference_subproblem(cache, W_prev, params):
    """Backtracking projected gradient ascent on the surrogate (the replaced solver)."""
    budget = float(cache.n_tx)
    lin_grad, surrogate = surrogate_fn(cache, W_prev)
    W = project_spectrahedron(W_prev, budget)
    current = surrogate(W)
    step = 1.0
    for _ in range(params.inner_max):
        grad = lin_grad - _mean_lifted_grad(cache, "bob", W)
        improved = False
        while step >= _STEP_FLOOR:
            candidate = project_spectrahedron(W + step * grad, budget)
            value = surrogate(candidate)
            if value > current:
                improved = True
                break
            step /= 2
        if not improved:
            break
        gain = value - current
        W, current = candidate, value
        step *= 2
        if gain < params.inner_tol:
            break
    return W


def sca_path_subproblems():
    """(label, cache, W_prev) for every subproblem along SCA paths of the new solver."""
    params = SCAParams()
    for n_b, n_e in LINKS:
        for snr_db in SNRS_DB:
            for seed in SEEDS:
                *_, cache = make_instance(
                    seed=500 + seed, n_b=n_b, n_e=n_e, sigma2=10.0 ** (-snr_db / 10)
                )
                v0 = S.default_precoder(cache.n_tx)
                W = np.outer(v0, v0.conj())
                for step in range(OUTER_STEPS):
                    yield f"({n_b},{n_e}) {snr_db} dB seed {seed} step {step}", cache, W
                    W = solve_sca_subproblem(cache, W, params)


def test_accelerated_solver_matches_backtracking_reference():
    params = SCAParams()
    checked = 0
    for label, cache, W_prev in sca_path_subproblems():
        _, surrogate = surrogate_fn(cache, W_prev)
        counts = []
        W_new = solve_sca_subproblem(cache, W_prev, params, projections=counts)
        W_ref = reference_subproblem(cache, W_prev, params)
        assert surrogate(W_new) >= surrogate(W_ref) - 1e-6, label
        assert surrogate(W_new) >= surrogate(W_prev), label
        eigvals = np.linalg.eigvalsh((W_new + W_new.conj().T) / 2)
        assert eigvals[0] >= -1e-9, label
        assert np.trace(W_new).real <= cache.n_tx * (1 + 1e-9), label
        assert len(counts) == 1 and 1 <= counts[0], label
        checked += 1
    assert checked >= 60


@pytest.mark.parametrize("n_tx,M", [(4, 2), (8, 4), (16, 4)])
@pytest.mark.parametrize("snr_db", [-40, 0, 15, 90])
def test_fused_evaluation_matches_separate_paths(n_tx, M, snr_db):
    *_, cache = make_instance(
        seed=n_tx + M, n_tx=n_tx, M=M, sigma2=10.0 ** (-snr_db / 10)
    )
    rng = np.random.default_rng(snr_db + 100)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    A = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    points = [
        np.zeros((n_tx, n_tx), dtype=complex),
        np.outer(v, v.conj()) * (n_tx / np.vdot(v, v).real),
        A @ A.conj().T * (n_tx / np.trace(A @ A.conj().T).real),
    ]
    for side in ("bob", "eve"):
        for W in points:
            value, weights = _lifted_eval(cache, side, W)
            want_value = float(np.mean(_lifted_logterms(cache, side, W)))
            want_weights = _lifted_weights(cache, side, W)
            assert math.isfinite(value)
            assert np.all(np.isfinite(weights))
            assert abs(value - want_value) <= 1e-12 * max(1.0, abs(want_value))
            # Weights that underflow to subnormals carry no relative precision;
            # anything above 1e-300 must agree to 1e-12 relative.
            np.testing.assert_allclose(weights, want_weights, rtol=1e-12, atol=1e-300)
