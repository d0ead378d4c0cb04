import dataclasses

import numpy as np
import pytest
import scipy.linalg

import smsec as S
from smsec import NumericalError, asr, build_cache, whiten

from conftest import make_instance


def test_whiten_scaled_identity():
    np.testing.assert_allclose(whiten(4.0 * np.eye(3)), 0.5 * np.eye(3), atol=1e-12)


def test_whiten_diagonal():
    np.testing.assert_allclose(
        whiten(np.diag([1.0, 9.0])), np.diag([1.0, 1.0 / 3.0]), atol=1e-12
    )


def test_whiten_reconstruction(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q = A @ A.conj().T + 0.5 * np.eye(4)
    W = whiten(Q)
    np.testing.assert_allclose(W @ Q @ W.conj().T, np.eye(4), atol=1e-10)
    assert np.linalg.norm(W - W.conj().T) <= 1e-12 * np.linalg.norm(W)


def test_whiten_rejects_indefinite():
    with pytest.raises(NumericalError):
        whiten(np.diag([1.0, -0.5]))
    with pytest.raises(NumericalError):
        whiten(np.diag([1.0, 0.0]))


def test_cache_diagonal_pairs_vanish(instance):
    *_, cache = instance
    for n in range(1, cache.n_tx + 1):
        for m in range(1, cache.M + 1):
            k = cache.pair_index(n, m)
            assert np.all(cache.pair_matrix("bob", k, k) == 0)
            assert np.all(cache.pair_matrix("eve", k, k) == 0)


def test_cache_pair_matrices_psd_and_sparse(instance):
    *_, cache = instance
    K = cache.n_signals
    for side in ("bob", "eve"):
        for k in range(K):
            for kp in range(K):
                mat = cache.pair_matrix(side, k, kp)
                assert np.linalg.norm(mat - mat.conj().T) <= 1e-12 * max(
                    1.0, np.linalg.norm(mat)
                )
                assert np.linalg.eigvalsh(mat).min() >= -1e-10
                # symbol differences have at most two nonzero entries
                assert np.count_nonzero(mat) <= 4


def test_quadratic_form_identity(rng):
    # oracle: whitened pairwise distance computed through an independent
    # matrix square root (Schur-based fractional power), explicit diag(v)
    channels, proj, powers, codebook, cache = make_instance(seed=3, M=2, n_tx=4)
    qb = powers.sigma2_b * np.eye(2)
    qe = S.noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e)
    wb = scipy.linalg.fractional_matrix_power(qb, -0.5)
    we = scipy.linalg.fractional_matrix_power(qe, -0.5)
    smat = codebook.signal_matrix()
    for _ in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        V = np.diag(v)
        for k in range(cache.n_signals):
            for kp in range(cache.n_signals):
                d = smat[:, k] - smat[:, kp]
                for side, W, C in (("bob", wb, channels.H), ("eve", we, channels.G)):
                    direct = np.sum(np.abs(np.sqrt(powers.p1) * W @ C @ V @ d) ** 2)
                    quad = powers.p1 * np.real(v.conj() @ cache.pair_matrix(side, k, kp) @ v)
                    assert quad == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_symmetric_instance_gives_identical_links(symmetric_instance):
    *_, cache = symmetric_instance
    K = cache.n_signals
    for k in range(K):
        for kp in range(K):
            np.testing.assert_array_equal(
                cache.pair_matrix("bob", k, kp), cache.pair_matrix("eve", k, kp)
            )


def test_asr_scale_consistency(instance, rng):
    # the objective sees only p1 * v^H A v, so (p1, v) -> (p1/4, 2v) is exact
    *_, cache = instance
    quarter = dataclasses.replace(cache, p1=cache.p1 / 4.0)
    for _ in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert asr(cache, v) == asr(quarter, 2.0 * v)


def test_asr_phase_invariance(instance, rng):
    *_, cache = instance
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    for theta in (0.3, 1.2, -2.0):
        assert asr(cache, np.exp(1j * theta) * v) == pytest.approx(
            asr(cache, v), abs=1e-12
        )


def test_cache_dimension_check(instance):
    channels, proj, powers, codebook, _ = instance
    wrong = S.make_codebook(2, "psk", 5)
    with pytest.raises(ValueError):
        build_cache(channels, proj, powers, wrong)
