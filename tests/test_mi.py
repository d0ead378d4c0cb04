import math

import numpy as np
import pytest

import smsec as S
from smsec import (
    asr,
    link_rate_approx,
    mi_lower_bound,
    mi_monte_carlo,
    secrecy_rate_mc,
    whiten,
)
from smsec.metrics import (
    QuadFormCache,
    _mc_link,
    _sampled_links,
    _whitened_channels,
    secrecy_rate_mc_estimate,
)
from smsec.model import _noiseless_points

from conftest import make_instance

# Frozen outputs of the hand-coded double-sum oracle (explicit loops over
# both symbol indices, Schur-based inverse square root, exp/log2 in scalar
# math) on the fixed small instance below; see scripts in the test body.
SMALL_H = np.array([[0.6 + 0.3j, -0.2 + 0.5j]])
SMALL_G = np.array([[0.1 - 0.4j, 0.7 + 0.2j]])
SMALL_LB_BOB = 0.7234702964861239
SMALL_LB_EVE = 0.6477051468879356


def small_cache():
    channels = S.ChannelPair(H=SMALL_H, G=SMALL_G)
    proj = S.an_projector(SMALL_H)
    powers = S.PowerConfig(p_total=1.0, p1=0.8, p2=0.2, sigma2_b=0.5, sigma2_e=0.5)
    codebook = S.make_codebook(2, "psk", 2)
    return channels, proj, powers, codebook, S.build_cache(channels, proj, powers, codebook)


def _oracle_lower_bound(C, Q, v, p1, M, n_tx):
    """Independent double-sum evaluation with scalar math."""
    import scipy.linalg

    Qm = scipy.linalg.fractional_matrix_power(Q, -0.5)
    syms = [1.0, -1.0]
    pairs = [(n, m) for n in range(n_tx) for m in range(M)]
    total = 0.0
    for (n, m) in pairs:
        inner = 0.0
        for (n2, m2) in pairs:
            s_a = np.zeros(n_tx, complex)
            s_a[n] = syms[m]
            s_b = np.zeros(n_tx, complex)
            s_b[n2] = syms[m2]
            alpha = math.sqrt(p1) * Qm @ C @ (np.diag(v) @ (s_a - s_b))
            inner += math.exp(-float(np.sum(np.abs(alpha) ** 2)) / 2.0)
        total += math.log2(inner)
    K = M * n_tx
    return math.log2(K) - total / K


def test_lower_bound_matches_hand_oracle():
    channels, proj, powers, codebook, cache = small_cache()
    v = np.array([1.0 + 0j, 1.0 + 0j])
    q_b = powers.sigma2_b * np.eye(1)
    q_e = S.noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e)
    oracle_b = _oracle_lower_bound(SMALL_H, q_b, v, powers.p1, 2, 2)
    oracle_e = _oracle_lower_bound(SMALL_G, q_e, v, powers.p1, 2, 2)
    assert oracle_b == pytest.approx(SMALL_LB_BOB, abs=1e-12)
    assert oracle_e == pytest.approx(SMALL_LB_EVE, abs=1e-12)
    assert link_rate_approx(cache, "bob", v) == pytest.approx(oracle_b, abs=1e-10)
    assert link_rate_approx(cache, "eve", v) == pytest.approx(oracle_e, abs=1e-10)


def test_lower_bound_zero_precoder(instance):
    *_, cache = instance
    assert mi_lower_bound(cache, "bob", np.zeros(4)) == 0.0
    assert mi_lower_bound(cache, "eve", np.zeros(4)) == 0.0


def test_lower_bound_high_power_asymptote():
    import dataclasses

    *_, cache = make_instance(seed=5)
    strong = dataclasses.replace(cache, p1=1e6)
    v = np.ones(4, dtype=complex)
    cap = math.log2(cache.n_signals)
    assert link_rate_approx(strong, "bob", v) == pytest.approx(cap, abs=0.01)
    assert link_rate_approx(strong, "eve", v) == pytest.approx(cap, abs=0.01)


def test_lower_bound_range(rng):
    cap = math.log2(8)
    for seed in range(10):
        *_, cache = make_instance(seed=seed, sigma2=float(10 ** rng.uniform(-2, 1)))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for side in ("bob", "eve"):
            lb = mi_lower_bound(cache, side, v)
            assert 0.0 <= lb <= cap


def test_lower_bound_is_floored_jensen_shift_of_approx(rng):
    # Per link, the bound is the approximation less r * (1/ln2 - 1) bits,
    # r = min(N, N_t), floored at 0; N_b != N_e exercises the per-link r.
    gap = 1.0 / math.log(2.0) - 1.0
    for n_b, n_e, sigma2 in ((2, 2, 0.1), (2, 3, 0.1), (2, 3, 0.01), (1, 6, 0.3)):
        *_, cache = make_instance(seed=3, n_b=n_b, n_e=n_e, sigma2=sigma2)
        assert cache.noise_dim("bob") == min(n_b, 4)
        assert cache.noise_dim("eve") == min(n_e, 4)
        for _ in range(4):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            for side, r in (("bob", min(n_b, 4)), ("eve", min(n_e, 4))):
                approx = link_rate_approx(cache, side, v)
                lb = mi_lower_bound(cache, side, v)
                assert lb == max(approx - r * gap, 0.0)
                assert 0.0 <= lb <= approx


def test_lower_bound_side_validation(instance):
    *_, cache = instance
    with pytest.raises(ValueError):
        mi_lower_bound(cache, "mallory", np.ones(4))


def test_asr_symmetric_instance_is_exactly_zero(symmetric_instance, rng):
    *_, cache = symmetric_instance
    for _ in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert asr(cache, v) == 0.0


def test_asr_zero_precoder(instance):
    *_, cache = instance
    assert asr(cache, np.zeros(4)) == 0.0


def test_asr_equals_bound_difference(instance, rng):
    *_, cache = instance
    for _ in range(5):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        two_path = link_rate_approx(cache, "bob", v) - link_rate_approx(cache, "eve", v)
        assert asr(cache, v) == pytest.approx(two_path, abs=1e-12)


def test_asr_clamp(instance):
    *_, cache = instance
    # eavesdropper outgains the target when the roles are reversed
    swapped = QuadFormCache(
        signals=cache.signals,
        p1=cache.p1,
        n_tx=cache.n_tx,
        M=cache.M,
        factor_b=cache.factor_e,
        factor_e=cache.factor_b,
    )
    v = np.ones(4, dtype=complex)
    if asr(swapped, v) < 0:
        assert asr(swapped, v, clamp=True) == 0.0


def test_monte_carlo_zero_signal_power(instance, rng):
    channels, proj, powers, codebook, cache = instance
    wh = whiten(powers.sigma2_b * np.eye(2))
    est = mi_monte_carlo(channels.H, wh, codebook, np.ones(4), 0.0, 64, rng)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_monte_carlo_binary_channel_asymptote(rng):
    # scalar channel, almost no noise: the binary input is fully resolved
    codebook = S.make_codebook(2, "psk", 1)
    channel = np.array([[1.0 + 0j]])
    wh = whiten(1e-6 * np.eye(1))
    est = mi_monte_carlo(channel, wh, codebook, np.ones(1), 1.0, 200, rng)
    assert est.value == pytest.approx(1.0, abs=0.01)


def test_monte_carlo_bounds_and_closeness(rng):
    # The closed-form approximation tracks the Monte-Carlo value to within a
    # few tenths of a bit but is NOT a one-sided bound: it overshoots the
    # true mutual information in the mid-SNR transition region (verified
    # against direct numerical integration).  Range and closeness are its
    # true properties; the one-sided claim belongs to mi_lower_bound, which
    # is checked against Monte Carlo in the acceptance suite.
    for seed in range(6):
        channels, proj, powers, codebook, cache = make_instance(
            seed=seed, sigma2=float(10 ** rng.uniform(-1.5, 0.5))
        )
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        wh_b = whiten(powers.sigma2_b * np.eye(2))
        wh_e = whiten(S.noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e))
        cap = math.log2(codebook.n_signals)
        for side, C, wh in (("bob", channels.H, wh_b), ("eve", channels.G, wh_e)):
            est = mi_monte_carlo(C, wh, codebook, v, powers.p1, 400, rng)
            assert 0.0 <= est.value <= cap + 3 * est.std_error
            assert abs(link_rate_approx(cache, side, v) - est.value) <= 0.5


def test_monte_carlo_sample_size_stability(rng):
    channels, proj, powers, codebook, _ = make_instance(seed=21)
    wh = whiten(S.noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e))
    v = np.ones(4, dtype=complex)
    small = mi_monte_carlo(channels.G, wh, codebook, v, powers.p1, 500, np.random.default_rng(1))
    large = mi_monte_carlo(channels.G, wh, codebook, v, powers.p1, 2000, np.random.default_rng(2))
    combined = math.hypot(small.std_error, large.std_error)
    assert abs(small.value - large.value) <= 4 * combined


def test_monte_carlo_deterministic_given_rng(instance):
    channels, _, powers, codebook, _ = instance
    wh = whiten(powers.sigma2_b * np.eye(2))
    a = mi_monte_carlo(channels.H, wh, codebook, np.ones(4), 0.5, 100, np.random.default_rng(5))
    b = mi_monte_carlo(channels.H, wh, codebook, np.ones(4), 0.5, 100, np.random.default_rng(5))
    assert a == b


def test_secrecy_rate_symmetric_instance_is_zero(symmetric_instance):
    channels, proj, powers, codebook, _ = symmetric_instance
    sr = secrecy_rate_mc(
        channels, proj, powers, codebook, np.ones(4), 200, np.random.default_rng(3)
    )
    assert sr == 0.0


def test_secrecy_rate_zero_signal_power(instance):
    channels, proj, powers, codebook, _ = instance
    import dataclasses

    no_signal = dataclasses.replace(powers, p1=0.0)
    sr = secrecy_rate_mc(
        channels, proj, no_signal, codebook, np.ones(4), 100, np.random.default_rng(3)
    )
    assert sr == 0.0


def test_secrecy_rate_close_to_asr(instance):
    # cross-estimator agreement on one instance, within Monte-Carlo error
    channels, proj, powers, codebook, cache = instance
    v = np.ones(4, dtype=complex)
    values = [
        secrecy_rate_mc(channels, proj, powers, codebook, v, 500, np.random.default_rng(s))
        for s in range(8)
    ]
    spread = np.std(values, ddof=1)
    assert abs(np.mean(values) - asr(cache, v, clamp=True)) <= max(3 * spread, 0.1)


@pytest.mark.parametrize("n_samp", [1, 300])
def test_secrecy_rate_estimate_value_and_paired_error(n_samp):
    channels, proj, powers, codebook, _ = make_instance(seed=9)
    v = np.array([1.0, 1j, -0.5, 1.2 + 0.3j])
    est = secrecy_rate_mc_estimate(
        channels, proj, powers, codebook, v, n_samp, np.random.default_rng(4)
    )
    # the value is secrecy_rate_mc's, and the difference of the floored link values
    assert est.value == secrecy_rate_mc(
        channels, proj, powers, codebook, v, n_samp, np.random.default_rng(4)
    )
    # each link draws from its own generator, both seeded by one draw of rng
    seed = int(np.random.default_rng(4).integers(0, 2**63))
    wh_b = whiten(powers.sigma2_b * np.eye(channels.H.shape[0]))
    wh_e = whiten(S.noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e))
    rng_b, rng_e = np.random.default_rng(seed), np.random.default_rng(seed)
    mi_b = mi_monte_carlo(channels.H, wh_b, codebook, v, powers.p1, n_samp, rng_b)
    mi_e = mi_monte_carlo(channels.G, wh_e, codebook, v, powers.p1, n_samp, rng_e)
    assert est.value == max(mi_b.value - mi_e.value, 0.0)
    assert est.n_samples == n_samp

    # the error is that of the paired per-sample differences (common noise)
    factors = _whitened_channels(channels, proj, powers)
    links = _sampled_links(*factors, n_samp, np.random.default_rng(4))
    per_link = [
        _mc_link(_noiseless_points(F, v, codebook.symbols, powers.p1), samples)
        for F, samples in zip(factors, links)
    ]
    np.testing.assert_array_equal(links[0], links[1])  # N_b = N_e here
    diff = per_link[0] - per_link[1]
    want = np.std(diff, ddof=1) / np.sqrt(n_samp) if n_samp > 1 else 0.0
    assert est.std_error == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n_samp", [0, -3])
def test_every_monte_carlo_entry_rejects_fewer_than_one_sample(n_samp):
    # The secrecy rate, one link's estimate and SR-GD draw their samples the same way.
    channels, proj, powers, codebook, cache = make_instance(seed=9)
    v = np.ones(4, dtype=complex)
    rng = np.random.default_rng(0)
    wh = whiten(powers.sigma2_b * np.eye(2))
    calls = [
        lambda: secrecy_rate_mc(channels, proj, powers, codebook, v, n_samp, rng),
        lambda: mi_monte_carlo(channels.H, wh, codebook, v, powers.p1, n_samp, rng),
        lambda: S.max_sr_gd(cache, v, S.GDParams(), n_samp, rng),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="n_samp must be >= 1"):
            call()
