import numpy as np
import pytest

from smsec import PowerConfig, an_projector, make_codebook, sample_channel
from smsec.model import ml_detect, sm_signal, transmit


@pytest.fixture
def setup(rng):
    cb = make_codebook(2, "psk", 4)
    H = sample_channel(rng, 2, 4)
    proj = an_projector(H)
    return cb, H, proj


def test_transmit_signal_only(setup):
    cb, H, proj = setup
    powers = PowerConfig(p_total=2.0, p1=2.0, p2=0.0, sigma2_b=1.0, sigma2_e=1.0)
    v = np.ones(4, dtype=complex)
    a = np.zeros(4, dtype=complex)
    x = transmit(cb, v, proj, powers, 2, 1, a)
    np.testing.assert_allclose(x, np.sqrt(2.0) * sm_signal(cb, 2, 1), atol=1e-12)


def test_transmit_an_only(setup, rng):
    cb, H, proj = setup
    powers = PowerConfig(p_total=3.0, p1=0.0, p2=3.0, sigma2_b=1.0, sigma2_e=1.0)
    v = np.ones(4, dtype=complex)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = transmit(cb, v, proj, powers, 1, 1, a)
    np.testing.assert_allclose(x, np.sqrt(3.0) * proj.t_an @ a, atol=1e-12)


def test_transmit_is_sum_of_branches(setup, rng):
    cb, H, proj = setup
    both = PowerConfig(p_total=1.0, p1=0.4, p2=0.6, sigma2_b=1.0, sigma2_e=1.0)
    sig = PowerConfig(p_total=1.0, p1=0.4, p2=0.0, sigma2_b=1.0, sigma2_e=1.0)
    an = PowerConfig(p_total=1.0, p1=0.0, p2=0.6, sigma2_b=1.0, sigma2_e=1.0)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = transmit(cb, v, proj, both, 3, 2, a)
    x_sig = transmit(cb, v, proj, sig, 3, 2, a)
    x_an = transmit(cb, v, proj, an, 3, 2, a)
    np.testing.assert_allclose(x, x_sig + x_an, atol=1e-12)


def test_transmit_dimension_mismatch(setup):
    cb, H, proj = setup
    powers = PowerConfig(p_total=1.0, p1=1.0, p2=0.0, sigma2_b=1.0, sigma2_e=1.0)
    with pytest.raises(ValueError):
        transmit(cb, np.ones(3, dtype=complex), proj, powers, 1, 1, np.zeros(4))


def test_ml_detect_noiseless_recovery(setup, rng):
    cb, H, proj = setup
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p1 = 0.8
    y = np.sqrt(p1) * H @ (v * sm_signal(cb, 2, 1))
    assert ml_detect(y, H, v, cb, p1) == (2, 1)


def _brute_force_detect(y, C, v, cb, p1):
    # independent oracle: explicit loops over the SM grid
    best = None
    best_metric = None
    for n in range(1, cb.n_tx + 1):
        for m in range(1, cb.M + 1):
            cand = np.sqrt(p1) * C @ (v * sm_signal(cb, n, m))
            metric = float(np.sum(np.abs(y - cand) ** 2))
            if best_metric is None or metric < best_metric:
                best_metric = metric
                best = (n, m)
    return best


def test_ml_detect_matches_brute_force(rng):
    cb = make_codebook(4, "psk", 4)
    p1 = 0.5
    for _ in range(100):
        C = sample_channel(rng, 2, 4)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        noise = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 0.5
        y = np.sqrt(p1) * C @ (v * sm_signal(cb, n, m)) + noise
        assert ml_detect(y, C, v, cb, p1) == _brute_force_detect(y, C, v, cb, p1)


def test_ml_detect_tie_break(rng):
    cb = make_codebook(2, "psk", 4)
    C = np.zeros((2, 4), dtype=complex)
    y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert ml_detect(y, C, np.ones(4, dtype=complex), cb, 1.0) == (1, 1)


def test_ml_detect_length_check(setup):
    cb, H, proj = setup
    with pytest.raises(ValueError):
        ml_detect(np.zeros(3, dtype=complex), H, np.ones(4, dtype=complex), cb, 1.0)
