"""The Monte-Carlo pair kernels against the einsum path they replaced and each other.

The reference builds the (K, K, N) tensor of received-point differences,
contracts it with the noise samples by einsum and takes a max-shifted
log-sum-exp; the SR-GD gradient reference adds the (K, K, N_t) symbol
differences and a three-operand einsum.  ``_mc_link`` serves the secrecy
rate and SR-GD alike and chooses the kernel: the factored one (S K shifted
exponentials and K x K by K x S products) or, beyond its spread limit, the
direct one (all S K^2 exponentials from one broadcast of u = 2 Re(T^H W)
and the K x K Gram of T).  Both links draw their samples once when they
have as many receive antennas, and ``_mc_link`` takes the samples in chunks
of bounded memory, for the rate and SR-GD alike: each chunk picks its own
kernel, and the pairwise exponentials are formed once per call.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from smsec import metrics, optim, secrecy_rate_mc
from smsec.metrics import (
    _SampledLink,
    _mc_exponentials,
    _mc_link,
    _sampled_links,
    _whitened_channels,
    secrecy_rate_mc_estimate,
)
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


def kernel_instance(n_tx, M, snr_db, n_b, n_e, n_samp=N_SAMP):
    """The frozen-noise SR-GD objective of one grid case and a unit-power precoder."""
    *_, cache = make_instance(
        seed=n_tx + M + n_e, n_tx=n_tx, n_b=n_b, n_e=n_e, M=M, sigma2=10 ** (-snr_db / 10)
    )
    rng = np.random.default_rng(n_tx * 100 + M)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    v *= np.sqrt(n_tx) / np.linalg.norm(v)
    objective = _SampledSecrecyObjective(cache, n_samp, np.random.default_rng(5))
    return objective, v


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", kernel_cases())
def test_mc_kernel_matches_einsum_reference(n_tx, M, snr_db, n_b, n_e):
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e)
    signals, p1 = objective.cache.signals, objective.cache.p1

    values, grads = [], []
    for link, z_stacked in ((objective.bob, objective.z_bob), (objective.eve, objective.z_eve)):
        F, noise = link.F, link.noise
        z = noise @ F.conj()  # z_s = F^H w_s
        T = _noiseless_points(F, v, signals, p1)
        u = 2 * np.real(T.conj().T @ noise.T)  # from the complex samples
        expo = _mc_exponentials(T, u)  # indexed [a, b, s]
        assert expo.shape == (T.shape[1], T.shape[1], N_SAMP)
        assert np.all(expo.sum(axis=1) >= 1.0)

        per_sample = _mc_link(T, link)
        want = ref_mc_per_sample(F, signals, v, p1, noise)
        assert np.all(np.isfinite(per_sample))
        assert np.max(np.abs(per_sample - want)) <= 1e-12

        mi, grad = objective._link(link, z_stacked, v)
        want_grad = ref_side_gradient(F, z, noise, v, signals, p1)
        assert np.all(np.isfinite(grad))
        assert abs(mi - np.mean(want)) <= 1e-12
        assert rel_err(grad, want_grad) <= 1e-10
        values.append(np.mean(want))
        grads.append(want_grad)

    value, grad = objective.value_and_gradient(v)
    assert abs(value - (values[0] - values[1])) <= 1e-12
    assert rel_err(grad, grads[0] - grads[1]) <= 1e-10


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", kernel_cases())
def test_factored_and_direct_branches_agree(monkeypatch, n_tx, M, snr_db, n_b, n_e):
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e)
    links = (objective.bob, objective.eve)
    cache = objective.cache
    points = [_noiseless_points(link.F, v, cache.signals, cache.p1) for link in links]
    per_sample = [_mc_link(T, link) for T, link in zip(points, links)]
    value, grad = objective.value_and_gradient(v)

    # No spread is below -1: every call now takes the direct kernel.
    monkeypatch.setattr(metrics, "_MC_SPREAD_LIMIT", -1.0)
    calls = count_direct_calls(monkeypatch)
    for T, link, got in zip(points, links, per_sample):
        assert np.max(np.abs(got - _mc_link(T, link))) <= 1e-12
    want_value, want_grad = objective.value_and_gradient(v)
    assert len(calls) == 4
    assert abs(value - want_value) <= 1e-10 * max(abs(want_value), 1e-300)
    assert rel_err(grad, want_grad) <= 1e-10


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", kernel_cases())
def test_sr_gd_over_chunks_mixes_the_branches(monkeypatch, n_tx, M, snr_db, n_b, n_e):
    # Four chunks of 10 samples per link.  A limit between two chunk spreads
    # sends some chunks of an evaluation to the direct kernel and keeps the
    # others factored (where any chunk is within the factored kernel's
    # range: at 90 dB with 4 x 2 and N_e > 2 none is); every mix gives the
    # same value and gradient.
    K = M * n_tx
    monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", 8 * K * 10)
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e)
    assert objective._work.shape == (4, K, 10)
    value, grad = objective.value_and_gradient(v)

    cache = objective.cache
    spreads = []
    for link in (objective.bob, objective.eve):
        T = _noiseless_points(link.F, v, cache.signals, cache.p1)
        u = (2 * np.concatenate([T.real, T.imag])).T @ link.stacked
        spread = u.max(axis=0) - u.min(axis=0)
        spreads += [spread[start : start + 10].max() for start in range(0, N_SAMP, 10)]
    levels = np.unique(spreads)
    assert len(spreads) == 8 and len(levels) >= 2
    mid = min(len(levels) // 2, int(np.count_nonzero(levels <= metrics._MC_SPREAD_LIMIT)))
    limits = [-1.0]
    if mid:
        limits.append((levels[mid - 1] + levels[mid]) / 2)
    for limit in limits:
        monkeypatch.setattr(metrics, "_MC_SPREAD_LIMIT", limit)
        calls = count_direct_calls(monkeypatch)
        got_value, got_grad = objective.value_and_gradient(v)
        assert len(calls) == sum(spread > limit for spread in spreads)
        assert 0 < len(calls) < 8 or limit < 0
        assert abs(got_value - value) <= 1e-10 * max(abs(value), 1e-300)
        assert rel_err(got_grad, grad) <= 1e-10


def count_direct_calls(monkeypatch):
    """Count calls of the direct kernel, which only ``metrics._mc_chunk`` makes."""
    calls = []

    def spy(T, u):
        calls.append(T.shape)
        return _mc_exponentials(T, u)

    monkeypatch.setattr(metrics, "_mc_exponentials", spy)
    return calls


@pytest.mark.parametrize("snr_db,factored", [(0, True), (90, False)])
def test_spread_selects_the_branch(monkeypatch, snr_db, factored):
    channels, proj, powers, codebook, cache = make_instance(seed=3, sigma2=10 ** (-snr_db / 10))
    v = np.ones(4, dtype=complex)
    objective = _SampledSecrecyObjective(cache, N_SAMP, np.random.default_rng(5))
    bob = objective.bob
    T = _noiseless_points(bob.F, v, cache.signals, cache.p1)
    calls = count_direct_calls(monkeypatch)
    _mc_link(T, bob)
    assert (len(calls) == 0) == factored

    secrecy_rate_mc(channels, proj, powers, codebook, v, N_SAMP, np.random.default_rng(1))
    objective.value_and_gradient(v)
    assert (len(calls) == 0) == factored
    assert not hasattr(optim, "_mc_exponentials")


@pytest.mark.parametrize("snr_db,factored", [(0, True), (90, False)])
def test_secrecy_rate_and_sr_gd_share_one_estimator(monkeypatch, snr_db, factored):
    # On the same seed both draw the same links: the reported rate, whose
    # floors are inactive here, is SR-GD's objective up to summation order.
    channels, proj, powers, codebook, cache = make_instance(seed=3, sigma2=10 ** (-snr_db / 10))
    v = np.array([1.0, 1j, -0.5, 1.2 + 0.3j])
    calls = count_direct_calls(monkeypatch)
    est = secrecy_rate_mc_estimate(
        channels, proj, powers, codebook, v, N_SAMP, np.random.default_rng(7)
    )
    objective = _SampledSecrecyObjective(cache, N_SAMP, np.random.default_rng(7))
    value, _ = objective.value_and_gradient(v)
    assert (len(calls) == 0) == factored

    F_b, F_e = _whitened_channels(channels, proj, powers)
    links = _sampled_links(F_b, F_e, N_SAMP, np.random.default_rng(7))
    points = [_noiseless_points(link.F, v, cache.signals, powers.p1) for link in links]
    mi_b, mi_e = (float(np.mean(_mc_link(T, link))) for T, link in zip(points, links))
    assert mi_b > mi_e > 0
    assert est.value == mi_b - mi_e
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)


def test_secrecy_rate_memory_stays_linear_in_samples():
    """At K = 64 and 500 samples the direct kernel's (K, K, S) array alone is 16 MiB."""
    channels, proj, powers, codebook, _ = make_instance(seed=4, n_tx=16, M=4)
    v = np.ones(16, dtype=complex)
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        secrecy_rate_mc(channels, proj, powers, codebook, v, 500, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_secrecy_rate_memory_stays_bounded_at_many_samples():
    """At K = 64 and 4000 samples one K x S float array alone is 2 MiB."""
    channels, proj, powers, codebook, _ = make_instance(seed=4, n_tx=16, M=4)
    v = np.ones(16, dtype=complex)
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        secrecy_rate_mc(channels, proj, powers, codebook, v, 4000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def sr_gd_peak(cache, n_samp):
    """tracemalloc peak of a short SR-GD run from the all-ones start, in bytes."""
    v0 = np.ones(cache.n_tx, dtype=complex)
    params = optim.GDParams(max_iters=3)
    tracemalloc.start()
    try:
        optim.max_sr_gd(cache, v0, params, n_samp, np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sr_gd_memory_stays_bounded_at_many_samples():
    """At K = 64 and 4000 samples a (4, K, S) workspace is 8 MiB, a (4, K, chunk) one 512 KiB."""
    *_, cache = make_instance(seed=3, n_tx=16, M=4, sigma2=0.1)
    assert sr_gd_peak(cache, 4000) < 4 * 2**20


def test_sr_gd_memory_stays_bounded_on_the_direct_kernel(monkeypatch):
    """At 30 dB chunks take the direct kernel: (K, K, S) is 16 MiB at 500 samples, 8 MiB a chunk."""
    *_, cache = make_instance(seed=3, n_tx=16, M=4, sigma2=1e-3)
    calls = count_direct_calls(monkeypatch)
    _SampledSecrecyObjective(cache, 500, np.random.default_rng(2)).value_and_gradient(
        np.ones(16, dtype=complex)
    )
    assert calls
    monkeypatch.undo()
    assert sr_gd_peak(cache, 500) < 12 * 2**20


@pytest.mark.parametrize("n_b,n_e", [(2, 2), (1, 3), (3, 1)])
def test_links_draw_their_samples_once(n_b, n_e):
    channels, proj, powers, *_ = make_instance(seed=6, n_b=n_b, n_e=n_e)
    factors = _whitened_channels(channels, proj, powers)
    bob, eve = _sampled_links(*factors, 30, np.random.default_rng(3))
    seed = int(np.random.default_rng(3).integers(0, 2**63))
    for link, F in zip((bob, eve), factors):
        assert np.array_equal(link.F, F)
        want = _SampledLink.draw(F, np.random.default_rng(seed), 30)
        assert np.array_equal(link.stacked, want.stacked)
    assert (eve.stacked is bob.stacked) == (n_b == n_e)


def count_chunk_widths(monkeypatch):
    """The sample counts of the chunks ``_mc_link`` evaluates, through a spy."""
    widths = []
    chunk = metrics._mc_chunk

    def spy(T, points, X, stacked, *args):
        widths.append(stacked.shape[1])
        return chunk(T, points, X, stacked, *args)

    monkeypatch.setattr(metrics, "_mc_chunk", spy)
    return widths


@pytest.mark.parametrize(
    "n_tx,M,n_samp,chunks", [(4, 2, 500, 1), (4, 2, 2000, 1), (16, 4, 500, 2), (16, 4, 4000, 16)]
)
def test_chunked_estimates_match_one_kernel_call(monkeypatch, n_tx, M, n_samp, chunks):
    # One chunk is the whole sample set's result bit for bit.  Several may
    # move an estimate, log2 K minus a mean of log terms, by a few ulps of
    # log2 K.
    channels, proj, powers, codebook, _ = make_instance(seed=4, n_tx=n_tx, M=M, sigma2=1.0)
    K = codebook.n_signals
    v = np.ones(n_tx, dtype=complex)
    F_b, F_e = _whitened_channels(channels, proj, powers)
    for link in _sampled_links(F_b, F_e, n_samp, np.random.default_rng(2)):
        T = _noiseless_points(link.F, v, codebook.signal_matrix(), powers.p1)
        widths = count_chunk_widths(monkeypatch)
        got = _mc_link(T, link)
        assert len(widths) == chunks and sum(widths) == n_samp
        assert max(widths) * K * 8 <= metrics._MC_CHUNK_BYTES
        monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", K * n_samp * 8)
        want = _mc_link(T, link)
        monkeypatch.undo()
        assert len(widths) == chunks + 1
        if chunks == 1:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.spacing(np.log2(K)))


@pytest.mark.parametrize("sr_gd", [False, True])
def test_pairwise_exponentials_are_formed_once_per_link_evaluation(monkeypatch, sr_gd):
    # K = 64 and 4000 samples make 16 chunks per link; the K x K distances
    # of the received points depend on them only through T.
    channels, proj, powers, codebook, cache = make_instance(seed=4, n_tx=16, M=4, sigma2=1.0)
    v = np.ones(16, dtype=complex)
    objective = _SampledSecrecyObjective(cache, 4000, np.random.default_rng(2))
    counts = {"_mc_link": 0, "_sq_distances": 0, "_mc_chunk": 0}
    spied = ((metrics, "_sq_distances"), (metrics, "_mc_chunk"), (metrics, "_mc_link"))
    for module, name in spied + ((optim, "_mc_link"),):

        def spy(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, spy)
    if sr_gd:
        objective.value_and_gradient(v)
    else:
        secrecy_rate_mc(channels, proj, powers, codebook, v, 4000, np.random.default_rng(2))
    assert counts == {"_mc_link": 2, "_sq_distances": 2, "_mc_chunk": 32}
