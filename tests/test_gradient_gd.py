import numpy as np
import pytest

import smsec as S
from smsec import GDParams, asr, asr_gradient, max_asr_gd, max_sr_gd
from smsec import optim
from smsec.optim import _ascend, _SampledSecrecyObjective

from conftest import make_instance


def unit_direction(rng, n):
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return d / np.linalg.norm(d)


def test_gradient_zero_for_symmetric_instance(symmetric_instance, rng):
    *_, cache = symmetric_instance
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    np.testing.assert_array_equal(asr_gradient(cache, v), np.zeros(4))


def test_gradient_zero_at_origin(instance):
    *_, cache = instance
    np.testing.assert_array_equal(asr_gradient(cache, np.zeros(4)), np.zeros(4))


def test_gradient_matches_central_differences(rng):
    # conjugate-gradient pairing: f(v + d) - f(v - d) ~ 2 * 2 Re(g^H d)
    for seed in range(5):
        *_, cache = make_instance(seed=seed)
        for _ in range(5):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            g = asr_gradient(cache, v)
            d = 1e-5 * unit_direction(rng, 4)
            fd = asr(cache, v + d) - asr(cache, v - d)
            predicted = 2 * 2 * np.real(np.vdot(g, d))
            assert fd == pytest.approx(predicted, rel=1e-4, abs=1e-14)


def test_gd_symmetric_instance_returns_renormalized_start(symmetric_instance):
    *_, cache = symmetric_instance
    v0 = 0.5 * np.ones(4, dtype=complex)  # interior start, tr = 1
    trace = max_asr_gd(cache, v0, GDParams())
    assert all(x == 0.0 for x in trace.objective_history)
    np.testing.assert_allclose(trace.final_vector, np.ones(4), atol=1e-9)
    assert trace.converged


def test_gd_never_worse_than_start(rng):
    for seed in range(5):
        *_, cache = make_instance(seed=seed)
        v0 = S.default_precoder(4)
        trace = max_asr_gd(cache, v0, GDParams())
        assert asr(cache, trace.final_vector) >= asr(cache, v0) - 1e-12


def test_gd_history_monotone_and_feasible(rng):
    for seed in range(5):
        *_, cache = make_instance(seed=seed, sigma2=float(10 ** rng.uniform(-1.5, 0)))
        trace = max_asr_gd(cache, S.default_precoder(4), GDParams())
        hist = trace.objective_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))
        assert np.sum(np.abs(trace.final_vector) ** 2) <= 4 * (1 + 1e-9)
        assert trace.iterations == len(hist) - 1


def test_gd_beats_random_search(rng):
    # 200-restart random search over the power sphere as the baseline oracle
    *_, cache = make_instance(seed=42)
    trace = max_asr_gd(cache, S.default_precoder(4), GDParams())
    best = -np.inf
    for _ in range(200):
        v = unit_direction(rng, 4) * 2.0  # tr(v v^H) = 4
        best = max(best, asr(cache, v))
    assert asr(cache, trace.final_vector) >= best - 0.2


def test_gd_rejects_zero_start(instance):
    *_, cache = instance
    with pytest.raises(ValueError):
        max_asr_gd(cache, np.zeros(4), GDParams())


def test_gd_rejects_overpowered_start(instance):
    *_, cache = instance
    with pytest.raises(ValueError):
        max_asr_gd(cache, 10.0 * np.ones(4), GDParams())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
@pytest.mark.parametrize("method", ["max_asr_gd", "max_sr_gd", "max_asr_sca"])
def test_optimizers_reject_non_finite_start(instance, method, bad):
    channels, proj, powers, codebook, cache = instance
    v0 = np.ones(4, dtype=complex)
    v0[0] = bad
    run = {
        "max_asr_gd": lambda: max_asr_gd(cache, v0, GDParams()),
        "max_sr_gd": lambda: max_sr_gd(
            channels, proj, powers, codebook, v0, GDParams(), 16, np.random.default_rng(0)
        ),
        "max_asr_sca": lambda: S.max_asr_sca(cache, v0, S.SCAParams()),
    }[method]
    with pytest.raises(ValueError, match="finite"):
        run()


def counting(fn, calls):
    def spy(*args):
        calls.append(args)
        return fn(*args)

    return spy


def test_evaluations_count_the_candidates(monkeypatch):
    # evaluations = value_and_grad calls minus the start point, accepted or not
    channels, proj, powers, codebook, cache = make_instance(seed=2)
    v0 = S.default_precoder(4)
    calls = []
    monkeypatch.setattr(
        optim, "_asr_value_and_gradient", counting(optim._asr_value_and_gradient, calls)
    )
    monkeypatch.setattr(
        _SampledSecrecyObjective,
        "value_and_gradient",
        counting(_SampledSecrecyObjective.value_and_gradient, calls),
    )
    runs = [
        lambda: max_asr_gd(cache, v0, GDParams()),
        lambda: max_asr_gd(cache, v0, GDParams(max_iters=2)),
        lambda: max_sr_gd(
            channels, proj, powers, codebook, v0, GDParams(), 64, np.random.default_rng(3)
        ),
        lambda: _ascend(counting(lambda v: (0.0, np.zeros(4)), calls), v0, 4, GDParams()),
    ]
    for run in runs:
        calls.clear()
        trace = run()
        assert trace.evaluations == len(calls) - 1
        assert 0 < trace.iterations <= trace.evaluations
    # a flat objective accepts every candidate: accept ratio 1
    assert trace.iterations == trace.evaluations
    # at 20 dB this ascent rejects two candidates: accept ratio 12/14
    *_, sharp = make_instance(seed=2, sigma2=0.01)
    calls.clear()
    trace = max_asr_gd(sharp, v0, GDParams())
    assert (trace.iterations, trace.evaluations) == (12, 14) == (12, len(calls) - 1)
    _, sca = S.max_asr_sca(cache, v0, S.SCAParams())
    assert sca.evaluations == 0 and sca.inner_steps > 0


def test_gd_params_validation():
    with pytest.raises(ValueError):
        GDParams(step_init=0.5, step_min=0.5)
    with pytest.raises(ValueError):
        GDParams(step_init=-1.0)
    with pytest.raises(ValueError):
        GDParams(max_iters=0)


def test_sr_gd_symmetric_instance(symmetric_instance):
    channels, proj, powers, codebook, _ = symmetric_instance
    v0 = 0.5 * np.ones(4, dtype=complex)
    trace = max_sr_gd(
        channels, proj, powers, codebook, v0, GDParams(), 100, np.random.default_rng(0)
    )
    assert all(x == 0.0 for x in trace.objective_history)
    np.testing.assert_allclose(trace.final_vector, np.ones(4), atol=1e-9)


def test_sr_gd_gradient_matches_fixed_sample_objective(rng):
    channels, proj, powers, codebook, _ = make_instance(seed=13)
    objective = _SampledSecrecyObjective(
        channels, proj, powers, codebook, 100, np.random.default_rng(9)
    )
    for _ in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        _, g = objective.value_and_gradient(v)
        d = 1e-5 * unit_direction(rng, 4)
        fd = objective.value_and_gradient(v + d)[0] - objective.value_and_gradient(v - d)[0]
        predicted = 2 * 2 * np.real(np.vdot(g, d))
        assert fd == pytest.approx(predicted, rel=1e-3, abs=1e-14)


def test_sr_gd_history_monotone(rng):
    channels, proj, powers, codebook, _ = make_instance(seed=17)
    trace = max_sr_gd(
        channels, proj, powers, codebook, S.default_precoder(4), GDParams(), 100,
        np.random.default_rng(1),
    )
    hist = trace.objective_history
    assert all(b >= a for a, b in zip(hist, hist[1:]))


def test_sr_gd_deterministic_given_rng(rng):
    channels, proj, powers, codebook, _ = make_instance(seed=19)
    runs = [
        max_sr_gd(
            channels, proj, powers, codebook, S.default_precoder(4), GDParams(), 50,
            np.random.default_rng(77),
        )
        for _ in range(2)
    ]
    np.testing.assert_array_equal(runs[0].final_vector, runs[1].final_vector)
    assert runs[0].objective_history == runs[1].objective_history
