"""The Gram-matrix kernels against an einsum reference over explicit pair matrices.

The reference stacks every A_{kk'} from ``QuadFormCache.pair_matrix`` into a
(K, K, N_t, N_t) tensor and contracts it directly, which is how the
quadratic forms, traces and gradients are defined.
"""

import math

import numpy as np
import pytest
from scipy.special import softmax

import smsec as S
from smsec import asr, asr_gradient, build_cache, link_rate_approx, relaxed_asr
from smsec.optim import _mean_lifted_grad

from conftest import make_instance

LN2 = math.log(2.0)
SHAPES = [(4, 2), (8, 4), (16, 4)]


def stacked_pair_matrices(cache, side):
    K = cache.n_signals
    return np.stack(
        [np.stack([cache.pair_matrix(side, k, kp) for kp in range(K)]) for k in range(K)]
    )


def ref_lse(x):
    m = np.max(x, axis=1, keepdims=True)
    return np.log2(np.sum(np.exp2(x - m), axis=1)) + m[:, 0]


def ref_quadforms(mats, v):
    return np.real(np.einsum("abij,i,j->ab", mats, v.conj(), v))


def ref_traces(mats, W):
    return np.real(np.einsum("abij,ji->ab", mats, W))


def ref_link_sum(mats, v, p1):
    """sum_{kk'} P_kk' A_kk' v with P the row softmax of -p1 v^H A v / 2."""
    weights = softmax(-0.5 * p1 * ref_quadforms(mats, v), axis=1)
    return np.einsum("ab,abij,j->i", weights, mats, v)


def ref_mean_lifted_grad(mats, W, p1):
    K = mats.shape[0]
    weights = softmax(-0.5 * p1 * ref_traces(mats, W), axis=1)
    g = -p1 / (2 * LN2 * K) * np.einsum("ab,abji->ij", weights, mats.conj())
    return (g + g.conj().T) / 2


def rel_err(got, want):
    """Largest entry-wise error relative to the largest reference entry.

    At saturating SNR a reference can be exactly zero; the error is then
    absolute.
    """
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / (scale if scale > 0 else 1.0))


def kernel_cases():
    for n_tx, M in SHAPES:
        for sigma2 in (1.0, 1e-2, 1e-4):
            yield pytest.param(n_tx, M, sigma2, id=f"{n_tx}x{M}-s{sigma2:g}")


@pytest.mark.parametrize("n_tx,M,sigma2", kernel_cases())
def test_kernels_match_einsum_reference(n_tx, M, sigma2):
    *_, cache = make_instance(seed=n_tx + M, n_tx=n_tx, M=M, scheme="psk", sigma2=sigma2)
    rng = np.random.default_rng(n_tx * 100 + M)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    A = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    W = A @ A.conj().T * (n_tx / np.trace(A @ A.conj().T).real)
    p1, K = cache.p1, cache.n_signals
    mats = {side: stacked_pair_matrices(cache, side) for side in ("bob", "eve")}
    lse = {
        side: ref_lse(-0.5 * p1 * ref_quadforms(mats[side], v) / LN2) for side in mats
    }
    lifted = {side: ref_lse(-0.5 * p1 * ref_traces(mats[side], W) / LN2) for side in mats}

    for side in ("bob", "eve"):
        approx = math.log2(K) - np.mean(lse[side])
        assert rel_err(link_rate_approx(cache, side, v), approx) <= 1e-9
        want = ref_mean_lifted_grad(mats[side], W, p1)
        assert rel_err(_mean_lifted_grad(cache, side, W), want) <= 1e-9
    assert rel_err(asr(cache, v), np.mean(lse["eve"] - lse["bob"])) <= 1e-9
    grad = ref_link_sum(mats["bob"], v, p1) - ref_link_sum(mats["eve"], v, p1)
    grad *= p1 / (2 * LN2 * K)
    assert rel_err(asr_gradient(cache, v), grad) <= 1e-9
    assert rel_err(relaxed_asr(cache, W), np.mean(lifted["eve"] - lifted["bob"])) <= 1e-9


def test_cache_memory_is_small_at_32x4():
    # the cache holds S (N_t x K) and two N_t x N_t Grams: 96 KiB at (32, 4)
    # where the (K, K, N_t, N_t) pair tensors of both links took 512 MiB
    rng = np.random.default_rng(0)
    H, G = S.sample_channel(rng, 2, 32), S.sample_channel(rng, 2, 32)
    powers = S.PowerConfig(p_total=1.0, p1=0.5, p2=0.5, sigma2_b=0.1, sigma2_e=0.1)
    cache = build_cache(
        S.ChannelPair(H=H, G=G), S.an_projector(H), powers, S.make_codebook(4, "psk", 32)
    )
    held = sum(value.nbytes for value in vars(cache).values() if hasattr(value, "nbytes"))
    assert held < 2**20
