import numpy as np
import pytest

import smsec as S
from smsec import (
    GDParams,
    SCAParams,
    asr,
    max_asr_gd,
    max_asr_sca,
    max_sr_gd,
    power_sweep_rounding,
)
from smsec.optim import (
    _is_rank_one,
    _leading_direction,
    _rounding_directions,
    relaxed_asr,
    solve_sca_subproblem,
)

from conftest import make_instance


def full_power_rounding(cache, W, params, rng):
    """Rounding restricted to the full-power sphere tr(v v^H) = N_t (reference).

    The same directions as :func:`power_sweep_rounding` from the same
    generator: the scaled leading eigenvector when W is numerically rank
    one, else the best of it and the Gaussian candidates by ASR.
    """
    lead, directions, lam = _rounding_directions(W, params.n_randomizations, rng)
    if _is_rank_one(lam, params.rank_tol):
        directions = []
    candidates = [np.sqrt(cache.n_tx) * d for d in [lead, *directions]]
    return max(candidates, key=lambda c: asr(cache, c))


def test_sca_symmetric_instance_converges_immediately(symmetric_instance):
    *_, cache = symmetric_instance
    W, trace = max_asr_sca(cache, S.default_precoder(4), SCAParams())
    assert trace.iterations <= 2
    assert trace.converged
    assert all(abs(x) <= 1e-12 for x in trace.objective_history)


def test_sca_history_monotone_and_feasible(rng):
    for seed in range(8):
        *_, cache = make_instance(seed=seed, sigma2=float(10 ** rng.uniform(-1.5, 0)))
        W, trace = max_asr_sca(cache, S.default_precoder(4), SCAParams())
        hist = trace.objective_history
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))
        assert trace.converged
        eigvals = np.linalg.eigvalsh((W + W.conj().T) / 2)
        assert eigvals[0] >= -1e-9
        assert np.trace(W).real <= 4 * (1 + 1e-9)
        assert relaxed_asr(cache, W) == pytest.approx(hist[-1], abs=1e-12)
        assert np.sum(np.abs(trace.final_vector) ** 2) == pytest.approx(4.0, abs=1e-9)


def test_sca_relaxed_at_lift_matches_vector_objective(instance, rng):
    *_, cache = instance
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert relaxed_asr(cache, np.outer(v, v.conj())) == pytest.approx(
        asr(cache, v), abs=1e-10
    )


def test_sca_rejects_zero_start(instance):
    *_, cache = instance
    with pytest.raises(ValueError):
        max_asr_sca(cache, np.zeros(4), SCAParams())


def test_extract_rank_one_recovery(instance, rng):
    # a rank-one W is rounded along its own direction, at some power
    *_, cache = instance
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v *= 2.0 / np.linalg.norm(v)  # tr(v v^H) = 4
    W = np.outer(v, v.conj())
    v_hat = power_sweep_rounding(cache, W, SCAParams(), rng)
    assert abs(np.vdot(v, v_hat)) == pytest.approx(
        np.linalg.norm(v) * np.linalg.norm(v_hat), rel=1e-12
    )
    assert np.sum(np.abs(v_hat) ** 2) <= 4 * (1 + 1e-9)


def test_extract_identity_uses_randomization(instance, rng):
    *_, cache = instance
    v_hat = power_sweep_rounding(cache, np.eye(4, dtype=complex), SCAParams(), rng)
    assert np.all(np.isfinite(v_hat))
    assert np.sum(np.abs(v_hat) ** 2) <= 4 * (1 + 1e-9)


def test_extract_respects_relaxation_bound():
    # The relaxed objective upper-bounds every rank-one feasible point when
    # the lifted solution is the relaxation's optimum; the surrogate loop
    # only guarantees a stationary point, so this is checked on an instance
    # where the loop converged well.
    *_, cache = make_instance(seed=23)
    W, _ = max_asr_sca(cache, S.default_precoder(4), SCAParams())
    v_hat = power_sweep_rounding(cache, W, SCAParams(), np.random.default_rng(1))
    assert asr(cache, v_hat) <= relaxed_asr(cache, W) + 1e-9


def test_power_sweep_handles_zero_matrix(instance):
    # SCA can collapse the relaxed optimum to W = 0 at low SNR; the sweep
    # then rounds the all-ones direction and isotropic draws, never raising
    *_, cache = instance
    v = power_sweep_rounding(
        cache, np.zeros((4, 4), dtype=complex), SCAParams(), np.random.default_rng(0)
    )
    assert np.all(np.isfinite(v))
    assert np.sum(np.abs(v) ** 2) <= 4 * (1 + 1e-9)
    assert asr(cache, v) >= asr(cache, S.default_precoder(4)) - 1e-12


def test_leading_direction_fixes_the_eigenvector_phase(rng):
    # Any phase of the returned eigenvector gives the same lead, whose
    # largest-modulus entry is real (to rounding) and positive.
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    W = np.outer(v, v.conj()) + 0.1 * np.eye(4)
    lam, U = np.linalg.eigh(W)
    lead = _leading_direction(lam, U)
    pivot = lead[np.argmax(np.abs(lead))]
    assert abs(pivot.imag) <= 1e-15 and pivot.real > 0
    assert np.linalg.norm(lead) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(lead, v)) == pytest.approx(np.linalg.norm(v), rel=1e-12)
    for theta in (0.3, 1.7, np.pi, -2.4):
        np.testing.assert_allclose(
            _leading_direction(lam, U * np.exp(1j * theta)), lead, rtol=0, atol=1e-14
        )


def test_leading_direction_of_zero_matrix_is_all_ones():
    lam, U = np.linalg.eigh(np.zeros((4, 4), dtype=complex))
    np.testing.assert_array_equal(_leading_direction(lam, U), np.full(4, 0.5, dtype=complex))


def test_sca_final_vector_is_the_phase_fixed_lead(rng):
    for seed in range(3):
        *_, cache = make_instance(seed=seed)
        W, trace = max_asr_sca(cache, S.default_precoder(4), SCAParams())
        lam, U = np.linalg.eigh((W + W.conj().T) / 2)
        np.testing.assert_array_equal(trace.final_vector, 2.0 * _leading_direction(lam, U))
        pivot = trace.final_vector[np.argmax(np.abs(trace.final_vector))]
        assert abs(pivot.imag) <= 1e-15 and pivot.real > 0


def test_power_sweep_at_least_as_good_as_full_power(rng):
    for seed in range(5):
        *_, cache = make_instance(seed=seed, sigma2=10 ** -1.5)
        W, _ = max_asr_sca(cache, S.default_precoder(4), SCAParams())
        full = full_power_rounding(cache, W, SCAParams(), np.random.default_rng(seed))
        swept = power_sweep_rounding(cache, W, SCAParams(), np.random.default_rng(seed))
        assert asr(cache, swept) >= asr(cache, full) - 1e-12
        assert np.sum(np.abs(swept) ** 2) <= 4 * (1 + 1e-9)


def test_head_to_head_against_gradient_ascent():
    # 100 seeded instances at moderate noise: the lifted route ends at or
    # above the gradient method's local optimum in at least 70% of trials.
    wins = 0
    sweep_wins = 0
    n_trials = 100
    for t in range(n_trials):
        *_, cache = make_instance(seed=5000 + t, sigma2=10 ** -0.5)
        v0 = S.default_precoder(4)
        gd_val = asr(cache, max_asr_gd(cache, v0, GDParams()).final_vector)
        W, _ = max_asr_sca(cache, v0, SCAParams())
        ext_val = asr(cache, full_power_rounding(cache, W, SCAParams(), np.random.default_rng(t)))
        sweep_val = asr(cache, power_sweep_rounding(cache, W, SCAParams(), np.random.default_rng(t)))
        if ext_val >= gd_val:
            wins += 1
        if sweep_val >= gd_val:
            sweep_wins += 1
    assert wins >= 70, f"full-power rounding beat gradient ascent in only {wins}/100"
    assert sweep_wins >= wins


def test_traces_report_stop_reason_and_inner_steps(rng):
    channels, proj, powers, codebook, cache = make_instance(seed=2)
    v0 = S.default_precoder(4)
    gd = max_asr_gd(cache, v0, GDParams())
    sr = max_sr_gd(channels, proj, powers, codebook, v0, GDParams(), 64, rng)
    for trace in (gd, sr):
        assert trace.stop_reason == "step_floor" and trace.converged
        assert trace.inner_steps == 0
        assert trace.wall_s > 0
    capped = max_asr_gd(cache, v0, GDParams(max_iters=1))
    assert capped.stop_reason == "max_iters" and not capped.converged

    params = SCAParams()
    W, sca = max_asr_sca(cache, v0, params)
    assert sca.stop_reason == "tol" and sca.converged
    assert sca.wall_s > 0
    # inner_steps is the projection count summed over the same subproblems
    counts = []
    W_path = np.outer(v0, v0.conj())
    for _ in range(sca.iterations):
        W_path = solve_sca_subproblem(cache, W_path, params, projections=counts)
    np.testing.assert_array_equal(W_path, W)
    assert len(counts) == sca.iterations
    assert sca.inner_steps == sum(counts) > sca.iterations
    _, capped = max_asr_sca(cache, v0, SCAParams(tol=1e-12, max_outer=1))
    assert capped.stop_reason == "max_iters" and not capped.converged
    assert capped.iterations == 1 and capped.inner_steps > 1
