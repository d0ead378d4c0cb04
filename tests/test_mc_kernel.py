"""The Monte-Carlo pair kernel against the einsum path it replaced.

The reference builds the (K, K, N) tensor of received-point differences,
contracts it with the noise samples by einsum and takes a max-shifted
log-sum-exp; the SR-GD gradient reference adds the (K, K, N_t) symbol
differences and a three-operand einsum.  The kernel under test forms every
exponent from one broadcast of u = 2 Re(noise conj(T)) and the K x K Gram
of T, with no max shift.
"""

import math

import numpy as np
import pytest
from scipy.special import softmax

from smsec.metrics import _mc_exponentials, _mc_per_sample
from smsec.model import _noiseless_points
from smsec.optim import _SampledSecrecyObjective

from conftest import make_instance

LN2 = math.log(2.0)
SHAPES = [(4, 2), (8, 4), (16, 4)]
SNRS_DB = [-40, 0, 15, 90]
LINKS = [(2, 2), (2, 3), (1, 6)]
N_SAMP = 40


def ref_log2sumexp2(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return np.log2(np.sum(np.exp2(x - m), axis=axis)) + np.squeeze(m, axis=axis)


def ref_alpha_terms(F, signals, v, p1, noise):
    """Pair differences alpha (K, K, N), their norms and cross terms with the noise."""
    T = np.sqrt(p1) * (F @ (v[:, None] * signals))  # (N, K)
    alpha = T.T[:, None, :] - T.T[None, :, :]  # (K, K, N)
    norm2 = np.sum(np.abs(alpha) ** 2, axis=2)  # (K, K)
    cross = 2 * np.real(np.einsum("abj,sj->sab", alpha.conj(), noise, optimize=True))
    return alpha, norm2, cross


def ref_mc_per_sample(F, signals, v, p1, noise):
    K = signals.shape[1]
    _, norm2, cross = ref_alpha_terms(F, signals, v, p1, noise)
    expo = -(norm2[None, :, :] + cross) / LN2  # (S, K, K), base-2 units
    inner = ref_log2sumexp2(expo, axis=2)  # (S, K)
    return np.log2(K) - np.mean(inner, axis=1)


def ref_side_gradient(F, z, noise, v, signals, p1):
    """d/d(conj v) of one link's fixed-sample MI."""
    K = signals.shape[1]
    n_samp = noise.shape[0]
    alpha, norm2, cross = ref_alpha_terms(F, signals, v, p1, noise)
    weights = softmax(-(norm2[None, :, :] + cross), axis=2)  # (S, K, K)
    u = np.einsum("rj,abr->abj", F.conj(), alpha, optimize=True)  # F^H alpha
    rows = signals.T
    dbar = (rows[:, None, :] - rows[None, :, :]).conj()  # (K, K, N_t)
    term_u = np.einsum("ab,abj->j", weights.sum(axis=0), dbar * u, optimize=True)
    term_z = np.einsum("sab,abj,sj->j", weights, dbar, z, optimize=True)
    scale = np.sqrt(p1) / (K * n_samp * LN2)
    return scale * (term_u + term_z)


def rel_err(got, want):
    """Largest entry-wise error relative to the largest reference entry.

    At saturating SNR the reference gradient is exactly zero; the error is
    then absolute.
    """
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / (scale if scale > 0 else 1.0))


def kernel_cases():
    for n_tx, M in SHAPES:
        for snr_db in SNRS_DB:
            for n_b, n_e in LINKS:
                yield pytest.param(
                    n_tx, M, snr_db, n_b, n_e, id=f"{n_tx}x{M}-{snr_db}dB-{n_b}x{n_e}"
                )


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", kernel_cases())
def test_mc_kernel_matches_einsum_reference(n_tx, M, snr_db, n_b, n_e):
    channels, proj, powers, codebook, _ = make_instance(
        seed=n_tx + M + n_e, n_tx=n_tx, n_b=n_b, n_e=n_e, M=M, sigma2=10 ** (-snr_db / 10)
    )
    rng = np.random.default_rng(n_tx * 100 + M)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    v *= np.sqrt(n_tx) / np.linalg.norm(v)
    objective = _SampledSecrecyObjective(
        channels, proj, powers, codebook, N_SAMP, np.random.default_rng(5)
    )
    signals, p1 = objective.signals, objective.p1

    values, grads = [], []
    for F, noise, z in (
        (objective.F_b, objective.noise_b, objective.z_b),
        (objective.F_e, objective.noise_e, objective.z_e),
    ):
        T = _noiseless_points(F, v, signals, p1)
        expo = _mc_exponentials(T, noise)  # indexed [a, b, s]
        assert expo.shape == (T.shape[1], T.shape[1], N_SAMP)
        assert np.all(expo.sum(axis=1) >= 1.0)

        per_sample = _mc_per_sample(T, noise)
        want = ref_mc_per_sample(F, signals, v, p1, noise)
        assert np.all(np.isfinite(per_sample))
        assert np.max(np.abs(per_sample - want)) <= 1e-12

        mi, grad = objective._link(F, noise, z, v)
        want_grad = ref_side_gradient(F, z, noise, v, signals, p1)
        assert np.all(np.isfinite(grad))
        assert abs(mi - np.mean(want)) <= 1e-12
        assert rel_err(grad, want_grad) <= 1e-10
        values.append(np.mean(want))
        grads.append(want_grad)

    value, grad = objective.value_and_gradient(v)
    assert abs(value - (values[0] - values[1])) <= 1e-12
    assert rel_err(grad, grads[0] - grads[1]) <= 1e-10
