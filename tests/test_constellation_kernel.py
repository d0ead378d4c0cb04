"""The closed-form vector kernel on the received constellation against the lifted form.

``asr``, ``link_rate_approx`` and ASR-GD take every quadratic form from the
received points T = sqrt(p1) F diag(v) S of each link
(``_constellation_terms``); SCA keeps the lifted traces at a matrix W.  At
W = v v^H the two are the same quantity: the log terms must agree to 1e-12
relative and the ASR gradient to 1e-11.  The kernel needs no max shift
because its exponent matrix has an exactly zero diagonal, and it must read
the whitened channel the Monte-Carlo rate reads.  Its pairwise distances
come from ``_sq_distances``, which every rank-one quantity shares; routing
``_constellation_terms`` through it must not change one bit of its output.
"""

import numpy as np
import pytest

import smsec.metrics as metrics
from smsec import asr, link_rate_approx, noise_covariance, whiten
from smsec.metrics import (
    _EXP2_SCALE,
    _constellation_terms,
    _lifted_eval,
    _sampled_links,
    _sq_distances,
    _whitened_channels,
    relaxed_asr,
)
from smsec.model import _noiseless_points
from smsec.optim import _asr_value_and_gradient, _lifted_grad, _SampledSecrecyObjective

from conftest import make_instance
from test_asr_fused import LINKS, SHAPES, SNRS_DB, case_instance

SIDES = ("bob", "eve")


def cases():
    for n_tx, M in SHAPES + [(32, 4)]:
        for snr_db in SNRS_DB + [60]:
            for n_b, n_e in LINKS:
                yield pytest.param(
                    n_tx, M, snr_db, n_b, n_e, id=f"{n_tx}x{M}-{snr_db}dB-{n_b}x{n_e}"
                )


def received_points(cache, side, v):
    return _noiseless_points(cache.factor(side), v, cache.signals, cache.p1)


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_constellation_form_equals_the_lifted_form(n_tx, M, snr_db, n_b, n_e):
    cache, v = case_instance(n_tx, M, snr_db, n_b, n_e)
    W = np.outer(v, v.conj())
    lifted = {side: _lifted_eval(cache, side, W) for side in SIDES}
    for side in SIDES:
        terms, weights = _constellation_terms(received_points(cache, side, v))
        np.testing.assert_allclose(terms, lifted[side][0], rtol=1e-12, atol=0.0)
        assert np.all(terms >= 0.0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=1e-12)
        rate = np.log2(cache.n_signals) - np.mean(lifted[side][0])
        assert link_rate_approx(cache, side, v) == pytest.approx(rate, rel=1e-12, abs=1e-15)
    value, grad = _asr_value_and_gradient(cache, v)
    assert value == pytest.approx(relaxed_asr(cache, W), rel=1e-12, abs=0.0)
    want = (
        _lifted_grad(cache, "eve", lifted["eve"][1]) - _lifted_grad(cache, "bob", lifted["bob"][1])
    ) @ v
    np.testing.assert_allclose(grad, want, rtol=1e-11, atol=0.0)


def inplace_constellation_terms(T):
    """``_constellation_terms`` as it was written before ``_sq_distances`` took its distances."""
    Z = np.concatenate([T.real, T.imag])
    x = Z.T.copy() @ Z
    half = _EXP2_SCALE * x.diagonal()
    x *= -2.0 * _EXP2_SCALE
    x += half[:, None]
    x += half
    e = np.exp2(x, out=x)
    sums = e.sum(axis=1)
    e *= np.reciprocal(sums)[:, None]
    return np.log2(sums, out=sums), e


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_shared_distance_kernel_keeps_every_bit(n_tx, M, snr_db, n_b, n_e):
    cache, v = case_instance(n_tx, M, snr_db, n_b, n_e)
    for side in SIDES:
        T = received_points(cache, side, v)
        for got, want in zip(_constellation_terms(T), inplace_constellation_terms(T)):
            np.testing.assert_array_equal(got, want)


SCALES = [0.0, 1e-150, 1e-3, 1.0, 1e4, 1e150, _EXP2_SCALE, -1.0, -1e150]


@pytest.mark.parametrize("scale", SCALES)
def test_sq_distances_have_a_zero_diagonal_and_are_symmetric(scale):
    # The diagonal cancels exactly.  The two row and column terms are added
    # in opposite orders at (a, b) and (b, a), so the matrix is symmetric to
    # the rounding of those additions, not to the bit.
    rng = np.random.default_rng(11)
    for n, K in [(1, 2), (2, 8), (3, 64), (6, 128)]:
        T = rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K))
        x = _sq_distances(T, scale)
        assert np.all(np.diagonal(x) == 0.0)
        sq = np.sum(np.abs(T) ** 2, axis=0)
        want = scale * np.sum(np.abs(T[:, :, None] - T[:, None, :]) ** 2, axis=0)
        bound = 4 * np.finfo(float).eps * abs(scale) * (sq[:, None] + sq[None, :])
        assert np.all(np.abs(x - x.T) <= bound)
        np.testing.assert_allclose(x, want, rtol=1e-10, atol=float(np.max(bound)) * 4)


@pytest.mark.parametrize("scale", [_EXP2_SCALE, -1.0])
def test_stacked_sq_distances_equal_the_per_item_loop(scale):
    rng = np.random.default_rng(5)
    for B, n, K in [(1, 2, 8), (4, 1, 8), (4, 2, 32), (3, 6, 128)]:
        T = rng.standard_normal((B, n, K)) + 1j * rng.standard_normal((B, n, K))
        got = _sq_distances(T, scale)
        assert got.shape == (B, K, K)
        for item, x in zip(T, got):
            np.testing.assert_array_equal(x, _sq_distances(item, scale))


class _Exp2Spy:
    """Stands in for numpy inside ``smsec.metrics``; keeps every argument of exp2."""

    def __init__(self):
        self.seen = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp2(self, x, *args, **kwargs):
        self.seen.append(np.array(x))
        return np.exp2(x, *args, **kwargs)


@pytest.mark.parametrize("scale", [0.0, 1e-150, 1e-3, 1.0, 1e4, 1e150])
def test_exponent_diagonal_is_exactly_zero(monkeypatch, scale):
    spy = _Exp2Spy()
    monkeypatch.setattr(metrics, "np", spy)
    rng = np.random.default_rng(7)
    for n, K in [(1, 2), (2, 8), (3, 64), (6, 128)]:
        T = scale * (rng.standard_normal((n, K)) + 1j * rng.standard_normal((n, K)))
        terms, _ = _constellation_terms(T)
        assert np.all(np.isfinite(terms)) and np.all(terms >= 0.0)
    assert len(spy.seen) == 4
    for x in spy.seen:
        np.testing.assert_array_equal(np.diagonal(x), 0.0)


@pytest.mark.parametrize("n_b,n_e", LINKS)
def test_finite_at_90_db_with_128_points(n_b, n_e):
    cache, v = case_instance(32, 4, 90, n_b, n_e)
    assert cache.n_signals == 128
    value, grad = _asr_value_and_gradient(cache, v)
    assert np.isfinite(value) and np.all(np.isfinite(grad))
    assert value == asr(cache, v)
    for side in SIDES:
        terms, weights = _constellation_terms(received_points(cache, side, v))
        assert np.all(np.isfinite(terms)) and np.all(np.isfinite(weights))
        assert np.isfinite(link_rate_approx(cache, side, v))


@pytest.mark.parametrize("seed,n_tx,n_b,n_e", [(3, 4, 2, 2), (5, 16, 2, 3), (9, 8, 1, 6)])
def test_factors_are_the_monte_carlo_whitened_channels(seed, n_tx, n_b, n_e):
    channels, proj, powers, codebook, cache = make_instance(
        seed=seed, n_tx=n_tx, n_b=n_b, n_e=n_e, sigma2=0.05
    )
    wh_b = whiten(powers.sigma2_b * np.eye(n_b))
    wh_e = whiten(noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e))
    np.testing.assert_array_equal(cache.factor_b, wh_b @ channels.H)
    np.testing.assert_array_equal(cache.factor_e, wh_e @ channels.G)
    # the links the Monte-Carlo rate and SR-GD draw
    bob, eve = _sampled_links(
        *_whitened_channels(channels, proj, powers), 16, np.random.default_rng(0)
    )
    objective = _SampledSecrecyObjective(cache, 16, np.random.default_rng(0))
    for link in (bob, objective.bob):
        np.testing.assert_array_equal(cache.factor("bob"), link.F)
    for link in (eve, objective.eve):
        np.testing.assert_array_equal(cache.factor("eve"), link.F)
    with pytest.raises(ValueError, match="side"):
        cache.factor("carol")
