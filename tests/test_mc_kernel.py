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
kernel, and the pairwise exponentials are formed once per call.  A link's
samples are one real 2N x S array [Re W; Im W], which every caller pairs
with the whitened channel F it already holds.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import softmax

from smsec import metrics, optim, secrecy_rate_mc
from smsec.metrics import (
    _draw_samples,
    _mc_exponentials,
    _mc_link,
    _sampled_links,
    _whitened_channels,
    secrecy_rate_mc_estimate,
)
from smsec.model import _noiseless_points, _point_basis
from smsec.optim import _SampledSecrecyObjective

from conftest import make_instance, signal_matrix

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


def complex_rows(samples):
    """The samples w_s of a real 2N x S sample array as complex rows (S x N)."""
    re, im = np.split(samples, 2)
    return re.T + 1j * im.T


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


def sampled_links(objective):
    """Each link of the objective as its whitened channel and its sample array."""
    return ((objective.cache.factor_b, objective.bob), (objective.cache.factor_e, objective.eve))


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", kernel_cases())
def test_mc_kernel_matches_einsum_reference(n_tx, M, snr_db, n_b, n_e):
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e)
    signals, p1 = signal_matrix(objective.cache), objective.cache.p1

    values, grads = [], []
    for side, (F, samples) in zip(("bob", "eve"), sampled_links(objective)):
        noise = complex_rows(samples)
        z = noise @ F.conj()  # z_s = F^H w_s
        T = _noiseless_points(F, v, objective.cache.symbols, p1)
        u = 2 * np.real(T.conj().T @ noise.T)  # from the complex samples
        expo = _mc_exponentials(T, u)  # indexed [a, b, s]
        assert expo.shape == (T.shape[1], T.shape[1], N_SAMP)
        assert np.all(expo.sum(axis=1) >= 1.0)

        per_sample = _mc_link(T, samples)
        want = ref_mc_per_sample(F, signals, v, p1, noise)
        assert np.all(np.isfinite(per_sample))
        assert np.max(np.abs(per_sample - want)) <= 1e-12

        mi, grad = objective._link(side, v)
        want_grad = ref_side_gradient(F, z, noise, v, signals, p1)
        assert np.all(np.isfinite(grad))
        assert abs(mi - np.mean(want)) <= 1e-12
        assert rel_err(grad, want_grad) <= 1e-10
        values.append(np.mean(want))
        grads.append(want_grad)

    value, grad = objective.value_and_gradient(v)
    assert abs(value - (values[0] - values[1])) <= 1e-12
    assert rel_err(grad, grads[0] - grads[1]) <= 1e-10


def two_term_link(cache, F, samples, v):
    """One link's sampled MI and gradient as two terms, each with its own contraction.

    The pair term is ``_pair_pull`` of the summed pair weights P on the
    link's pull basis [conj(B); 1j conj(B)]; the sample
    term contracts M = sum_s (r_s - c_s) z_s (K x N_t) with conj(S), from
    the samples' own copies z_s = F^H w_s.  The chunks, kernels and value are
    ``_mc_link``'s, so the value is equal bit for bit.
    """
    K, n_samp = cache.n_signals, samples.shape[1]
    noise = complex_rows(samples)
    z = noise @ F.conj()
    z = np.hstack([z.real, z.imag])  # [Re z, Im z], S x 2N_t
    T = _noiseless_points(F, v, cache.symbols, cache.p1)
    points = (2 * np.concatenate([T.real, T.imag])).T
    X = np.exp(metrics._sq_distances(T, -1.0))
    np.fill_diagonal(X, 0.0)
    P, M, total = np.zeros((K, K)), np.zeros((K, z.shape[1])), 0.0
    width = metrics._mc_chunk_width(K, n_samp)
    for start in range(0, n_samp, width):
        chunk = slice(start, start + width)
        u = points @ samples[:, chunk]
        top = u.max(axis=0)
        if np.max(top - u.min(axis=0)) > metrics._MC_SPREAD_LIMIT:
            expo = _mc_exponentials(T, u)
            sums = expo.sum(axis=1)
            total += np.sum(np.log2(sums))
            expo /= sums[:, None, :]
            expo[np.arange(K), np.arange(K)] = 0.0
            P += expo.sum(axis=2)
            r_minus_c = expo.sum(axis=1) - expo.sum(axis=0)
        else:
            e = np.exp(u - top)
            Xe = X @ e
            total += np.sum(np.log2(Xe / e + 1.0))
            g = 1.0 / (e + Xe)
            P += X * (g @ e.T)
            r_minus_c = Xe * g - e * (X @ g)
        M += r_minus_c @ z[chunk]
    basis = _point_basis(F, cache.symbols, cache.p1).conj()
    term_u = optim._pair_pull(T, P, np.stack([basis, 1j * basis]))  # carries sqrt(p1)
    n_tx = cache.n_tx
    term_z = np.sum(signal_matrix(cache).conj() * (M[:, :n_tx] + 1j * M[:, n_tx:]).T, axis=1)
    scale = 1.0 / (K * n_samp * LN2)
    return np.log2(K) - total / (K * n_samp), scale * (term_u + np.sqrt(cache.p1) * term_z)


def one_pull_cases():
    # One chunk (K = 8), several ((16, 4) at 1200 samples: five chunks) and
    # direct-kernel chunks (35 and 40 dB), on every (N_b, N_e) kind.
    for n_tx, M, n_samp, snr_db in [
        (4, 2, 500, 0),
        (4, 2, 2000, 10),
        (4, 2, 500, 35),
        (8, 4, 500, 40),
        (16, 4, 1200, 10),
        (16, 4, 1200, 35),
        (16, 4, 1200, 40),
    ]:
        for n_b, n_e in [(2, 2), (1, 3), (3, 1)]:
            case = f"{n_tx}x{M}-S{n_samp}-{snr_db}dB-{n_b}x{n_e}"
            yield pytest.param(n_tx, M, n_samp, snr_db, n_b, n_e, id=case)


@pytest.mark.parametrize("n_tx,M,n_samp,snr_db,n_b,n_e", one_pull_cases())
def test_one_pull_matches_the_two_term_gradient(monkeypatch, n_tx, M, n_samp, snr_db, n_b, n_e):
    # SR-GD adds its samples' term W (r - c)^T to the pair term before the
    # one contraction; the value is untouched and the gradient moves only
    # by the order of the sums.
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e, n_samp)
    calls = count_direct_calls(monkeypatch)
    value, grad = objective.value_and_gradient(v)
    assert (len(calls) > 0) == (snr_db >= 35)
    (mi_b, g_b), (mi_e, g_e) = (
        two_term_link(objective.cache, F, samples, v) for F, samples in sampled_links(objective)
    )
    assert value == float(mi_b - mi_e)
    assert rel_err(grad, g_b - g_e) <= 1e-13


@pytest.mark.parametrize("n_tx,M,n_samp,limit", [(4, 2, 2000, 720 * 2**10), (16, 4, 4000, 2**20)])
def test_sr_gd_objective_holds_no_sample_copies(n_tx, M, n_samp, limit):
    """Building the objective and one evaluation at 10 dB: no S x 2N_t copies z_s = F^H w_s.

    Such copies were 250 KiB of a 900 KiB peak at (4, 2) with 2000 samples
    and 2 MiB of 3.25 MiB at (16, 4) with 4000.
    """
    *_, cache = make_instance(seed=3, n_tx=n_tx, M=M, sigma2=0.1)
    v = np.ones(n_tx, dtype=complex)
    tracemalloc.start()
    try:
        objective = _SampledSecrecyObjective(cache, n_samp, np.random.default_rng(1))
        objective.value_and_gradient(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", kernel_cases())
def test_factored_and_direct_branches_agree(monkeypatch, n_tx, M, snr_db, n_b, n_e):
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e)
    links = sampled_links(objective)
    cache = objective.cache
    points = [_noiseless_points(F, v, cache.symbols, cache.p1) for F, _ in links]
    per_sample = [_mc_link(T, samples) for T, (_, samples) in zip(points, links)]
    value, grad = objective.value_and_gradient(v)

    # No spread is below -1: every call now takes the direct kernel.
    monkeypatch.setattr(metrics, "_MC_SPREAD_LIMIT", -1.0)
    calls = count_direct_calls(monkeypatch)
    for T, (_, samples), got in zip(points, links, per_sample):
        assert np.max(np.abs(got - _mc_link(T, samples))) <= 1e-12
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
    for F, samples in sampled_links(objective):
        T = _noiseless_points(F, v, cache.symbols, cache.p1)
        u = (2 * np.concatenate([T.real, T.imag])).T @ samples
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
    T = _noiseless_points(cache.factor_b, v, cache.symbols, cache.p1)
    calls = count_direct_calls(monkeypatch)
    _mc_link(T, objective.bob)
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

    factors = _whitened_channels(channels, proj, powers)
    links = _sampled_links(*factors, N_SAMP, np.random.default_rng(7))
    points = [_noiseless_points(F, v, cache.symbols, powers.p1) for F in factors]
    mi_b, mi_e = (float(np.mean(_mc_link(T, W))) for T, W in zip(points, links))
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
    for samples, F in zip((bob, eve), factors):
        assert samples.shape == (2 * F.shape[0], 30)
        assert np.array_equal(samples, _draw_samples(F.shape[0], 30, np.random.default_rng(seed)))
    assert (eve is bob) == (n_b == n_e)


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
    factors = _whitened_channels(channels, proj, powers)
    for F, samples in zip(factors, _sampled_links(*factors, n_samp, np.random.default_rng(2))):
        T = _noiseless_points(F, v, codebook.symbols, powers.p1)
        widths = count_chunk_widths(monkeypatch)
        got = _mc_link(T, samples)
        assert len(widths) == chunks and sum(widths) == n_samp
        assert max(widths) * K * 8 <= metrics._MC_CHUNK_BYTES
        monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", K * n_samp * 8)
        want = _mc_link(T, samples)
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

        def spy(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    if sr_gd:
        objective.value_and_gradient(v)
    else:
        secrecy_rate_mc(channels, proj, powers, codebook, v, 4000, np.random.default_rng(2))
    assert counts == {"_mc_link": 2, "_sq_distances": 2, "_mc_chunk": 32}
