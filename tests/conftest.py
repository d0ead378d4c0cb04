import math

import numpy as np
import pytest
from scipy.special import softmax

import smsec as S
from smsec.metrics import _pair_traces, log2sumexp2
from smsec.optim import _lifted_grad

LN2 = math.log(2.0)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_instance(
    seed: int,
    n_tx: int = 4,
    n_b: int = 2,
    n_e: int = 2,
    M: int = 2,
    scheme: str = "psk",
    p1: float = 0.5,
    p2: float = 0.5,
    sigma2: float = 0.1,
    symmetric: bool = False,
):
    """One full random instance: channels, projector, powers, codebook, cache."""
    rng = np.random.default_rng(seed)
    H = S.sample_channel(rng, n_b, n_tx)
    G = H.copy() if symmetric else S.sample_channel(rng, n_e, n_tx)
    channels = S.ChannelPair(H=H, G=G)
    proj = S.an_projector(H)
    powers = S.PowerConfig(
        p_total=p1 + p2, p1=p1, p2=p2, sigma2_b=sigma2, sigma2_e=sigma2
    )
    codebook = S.make_codebook(M, scheme, n_tx)
    cache = S.build_cache(channels, proj, powers, codebook)
    return channels, proj, powers, codebook, cache


def signal_matrix(cache, scheme: str = "psk"):
    """The dense N_t x K signal matrix S of ``cache``'s codebook, which no kernel forms.

    ``codebook.signal_matrix()`` of the ``scheme`` codebook at the cache's
    shape, checked to carry the cache's symbols: the reference the tests
    hold the structured kernels against.
    """
    codebook = S.make_codebook(cache.M, scheme, cache.n_tx)
    assert np.array_equal(codebook.symbols, cache.symbols)
    return codebook.signal_matrix()


@pytest.fixture
def instance():
    return make_instance(seed=7)


@pytest.fixture
def symmetric_instance():
    """G = H, equal noise, no AN: both links bit-identical."""
    return make_instance(seed=11, p1=1.0, p2=0.0, symmetric=True)


def capped_simplex_oracle(lam, budget, tol=1e-12):
    """argmin ||x - lam||^2 over {x >= 0, sum(x) <= budget}, by bisection, KKT-checked.

    The minimizer is x = max(lam - tau, 0) with the smallest tau >= 0 that
    meets the budget; tau is found by bisection on the piecewise-linear,
    decreasing sum(max(lam - tau, 0)).  The KKT conditions are then checked
    directly: feasibility, tau >= 0, x_i = lam_i - tau where x_i > 0,
    lam_i <= tau where x_i = 0, and complementary slackness on the budget.
    """
    lam = np.asarray(lam, dtype=float)
    tau = 0.0
    if np.sum(np.clip(lam, 0.0, None)) > budget:
        lo, hi = 0.0, float(np.max(lam))
        for _ in range(200):
            tau = (lo + hi) / 2
            if np.sum(np.clip(lam - tau, 0.0, None)) > budget:
                lo = tau
            else:
                hi = tau
        tau = hi
    x = np.clip(lam - tau, 0.0, None)
    scale = max(1.0, budget, float(np.max(np.abs(lam))))
    positive = x > 0
    assert np.all(x >= 0) and tau >= 0
    assert np.sum(x) <= budget + tol * scale
    assert np.all(np.abs(x[positive] - (lam[positive] - tau)) <= tol * scale)
    assert np.all(lam[~positive] <= tau + tol * scale)
    assert tau * abs(budget - np.sum(x)) <= tol * scale * scale
    return x


# The lifted terms evaluated one quantity at a time, as smsec.optim did before
# _lifted_eval fused them into one exponential pass; kept as references.


def lifted_logterms(cache, side, W):
    """Per-k log2 sum_k' exp(-p1 tr(W A_{kk'})/2) on the ``side`` link, shape (K,)."""
    t = _pair_traces(cache, side, W)
    return log2sumexp2(-0.5 * cache.p1 * t / LN2, axis=1)


def lifted_weights(cache, side, W):
    """Row softmax of -p1 tr(W A_{kk'})/2: the gradient weights of each log term."""
    return softmax(-0.5 * cache.p1 * _pair_traces(cache, side, W), axis=1)


def mean_lifted_grad(cache, side, W):
    """(1/K) sum_k of the lifted log-sum-exp gradient at W (Hermitian)."""
    return _lifted_grad(cache, side, lifted_weights(cache, side, W))
