"""Received constellations and gradient pulls built on the SM signal structure.

Every SM symbol is s_{n,m} = e_n s_m, so a link's received points
T = sqrt(p1) F diag(v) S are the point basis B_inm = sqrt(p1) F_in s_m times
v_n (``_point_basis``, ``_basis_points``), and each gradient pull contracts
over (antenna, symbol) with the pull basis [conj(B); 1j conj(B)] instead of
through S^H (``_pair_pull``).  These tests hold the broadcast against the
dense product with S, the pull against the lifted weighted pair sum, SCA's
lifted iterate against a frozen copy (SCA reads neither basis), the shared
draw of the Monte-Carlo rate over a stack of precoders against one call per
precoder, and the certified spread bound of ``_mc_link`` against the exact
spread check it skips.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from smsec import (
    SCAParams,
    harness,
    max_asr_sca,
    metrics,
    optim,
    run_sr_vs_snr,
    secrecy_rate_mc,
)
from smsec.harness import parse_config_text
from smsec.metrics import _mc_exponentials, _mc_link, _sample_radius
from smsec.model import _basis_points, _noiseless_points
from smsec.optim import _pair_pull, _weighted_pair_sum

from conftest import make_instance
from test_mc_kernel import count_direct_calls, kernel_instance, sampled_links

EPS = np.finfo(float).eps
ROOT = Path(__file__).resolve().parents[1]
W_STAR = Path(__file__).parent / "calibration" / "sca_w_star.json"

# (n_tx, M, scheme): the shapes of the kernel tests plus 16- and 64-QAM,
# whose symbols are complex and not of unit modulus.
SHAPES = [
    (4, 2, "psk"), (8, 4, "psk"), (16, 4, "psk"), (32, 4, "psk"), (4, 16, "qam"), (4, 64, "qam")
]
LINKS = [(2, 2), (1, 3), (3, 1)]


def shape_cases():
    for n_tx, M, scheme in SHAPES:
        for n_b, n_e in LINKS:
            yield pytest.param(n_tx, M, scheme, n_b, n_e, id=f"{n_tx}x{M}{scheme}-{n_b}x{n_e}")


def shape_instance(n_tx, M, scheme, n_b, n_e, snr_db=10.0):
    *_, cache = make_instance(
        seed=n_tx + M + n_b, n_tx=n_tx, n_b=n_b, n_e=n_e, M=M, scheme=scheme,
        sigma2=10 ** (-snr_db / 10),
    )
    rng = np.random.default_rng(n_tx * 100 + M)
    V = rng.standard_normal((3, n_tx)) + 1j * rng.standard_normal((3, n_tx))
    V *= np.sqrt(n_tx) / np.linalg.norm(V, axis=1, keepdims=True)
    return cache, V


def dense_points(F, v, cache):
    """sqrt(p1) F diag(v) S, the product with the dense N_t x K signal matrix."""
    return np.sqrt(cache.p1) * (F @ (v[:, None] * cache.signals))


@pytest.mark.parametrize("n_tx,M,scheme,n_b,n_e", shape_cases())
def test_sm_points_equal_the_dense_product(n_tx, M, scheme, n_b, n_e):
    cache, V = shape_instance(n_tx, M, scheme, n_b, n_e)
    assert np.array_equal(cache.symbols, cache.signals[0, :M])
    for side in ("bob", "eve"):
        F = cache.factor(side)
        basis = cache.bases(side)[0]
        assert basis.shape == (F.shape[0], n_tx, M)
        stacked = _basis_points(basis, V)
        assert stacked.shape == (len(V), F.shape[0], n_tx * M)
        for v, got in zip(V, stacked):
            want = dense_points(F, v, cache)
            # Three complex products per entry on either side: a few ulps.
            assert np.all(np.abs(got - want) <= 8 * EPS * np.abs(want))
            single = _noiseless_points(F, v, cache.symbols, cache.p1)
            assert np.array_equal(single, got)
            assert np.array_equal(_basis_points(basis, v), got)
    # Both links' points in one stacked pass equal the per-link points, the
    # padding rows of the shorter link exactly zero.
    v = V[0]
    both = _basis_points(cache.basis, v)
    for link, side in enumerate(("bob", "eve")):
        n_rx = cache.factor(side).shape[0]
        assert np.array_equal(both[link, :n_rx], _basis_points(cache.bases(side)[0], v))
        assert not np.any(both[link, n_rx:])


@pytest.mark.parametrize("n_tx,M,scheme,n_b,n_e", shape_cases())
def test_sm_pull_equals_the_lifted_weighted_sum(n_tx, M, scheme, n_b, n_e):
    # The pull carries sqrt(p1) in its basis, so it is p1 (sum_ab P_ab A_ab) v.
    cache, V = shape_instance(n_tx, M, scheme, n_b, n_e)
    K = n_tx * M
    rng = np.random.default_rng(K + n_e)
    for side in ("bob", "eve"):
        basis, D = cache.bases(side)
        for v in V:
            P = rng.random((K, K))
            P /= P.sum(axis=1, keepdims=True)
            got = _pair_pull(_basis_points(basis, v), P, D)
            lifted = _weighted_pair_sum(cache.gram(side), cache.signals, cache.signals_h, P)
            want = cache.p1 * (lifted @ v)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_sca_iterate_is_unchanged(monkeypatch):
    # SCA's kernels are the lifted ones, which read neither basis: its
    # iterate is the frozen one bit for bit, taken before the received
    # constellations were built on the SM structure (one BLAS thread,
    # numpy 2.4.6).
    def unused(*args):
        raise AssertionError("SCA called a received-constellation kernel")

    for name in ("_basis_points", "_pair_pull", "_constellation_terms"):
        monkeypatch.setattr(optim, name, unused)
    frozen = json.loads(W_STAR.read_text())
    for case in frozen.values():
        *_, cache = make_instance(**case["instance"])
        W, trace = max_asr_sca(cache, np.ones(cache.n_tx, dtype=complex), SCAParams())
        want = np.array([float.fromhex(x) for x in case["w_star"]]).view(complex)
        assert trace.iterations == case["outer_iterations"]
        assert trace.inner_steps == case["projections"]
        assert np.array_equal(W.ravel(), want)


@pytest.mark.parametrize("n_b,n_e", LINKS)
@pytest.mark.parametrize("snr_db", [10, 35])
def test_stacked_rate_lanes_equal_single_calls(n_b, n_e, snr_db):
    channels, proj, powers, codebook, _ = make_instance(
        seed=4, n_b=n_b, n_e=n_e, sigma2=10 ** (-snr_db / 10)
    )
    rng = np.random.default_rng(9)
    V = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    V = np.vstack([np.ones(4), V * 2 / np.linalg.norm(V, axis=1, keepdims=True)])
    got = secrecy_rate_mc(channels, proj, powers, codebook, V, 300, np.random.default_rng(2))
    assert isinstance(got, np.ndarray) and got.shape == (len(V),)
    for v, lane in zip(V, got):
        single = secrecy_rate_mc(channels, proj, powers, codebook, v, 300, np.random.default_rng(2))
        assert isinstance(single, float)
        assert lane == single


def test_harness_draws_each_point_once(monkeypatch):
    config = parse_config_text(
        (ROOT / "configs" / "benchmark.cfg").read_text()
        + "\nn_channels = 2\nsnr_db_grid = 0, 10\nn_samp = 100\n"
    )
    calls = []

    def spy(channels, proj, powers, codebook, v, n_samp, rng):
        calls.append(np.shape(v))
        return secrecy_rate_mc(channels, proj, powers, codebook, v, n_samp, rng)

    monkeypatch.setattr(harness, "secrecy_rate_mc", spy)
    rows = run_sr_vs_snr(config)
    assert calls == [(len(config.methods), config.n_tx)] * 4
    assert [row["method"] for row in rows[:4]] == [m.value for m in config.methods]


def bound_cases():
    # The 36 cases of the Monte-Carlo kernel grid plus 30, 35 and 40 dB,
    # where the legitimate link's spread reaches the limit.
    for n_tx, M in [(4, 2), (8, 4), (16, 4)]:
        for snr_db in [-40, 0, 15, 30, 35, 40, 90]:
            for n_b, n_e in [(2, 2), (2, 3), (1, 6)]:
                yield pytest.param(
                    n_tx, M, snr_db, n_b, n_e, id=f"{n_tx}x{M}-{snr_db}dB-{n_b}x{n_e}"
                )


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", bound_cases())
def test_certified_spread_bound_picks_the_exact_branch(monkeypatch, n_tx, M, snr_db, n_b, n_e):
    # Chunks of 10 samples, so each link evaluation checks four chunks.
    K = M * n_tx
    monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", 8 * K * 10)
    objective, v = kernel_instance(n_tx, M, snr_db, n_b, n_e)
    margin = metrics._MC_SPREAD_MARGIN
    for side, (_, samples) in zip(("bob", "eve"), sampled_links(objective)):
        T = _basis_points(objective.cache.bases(side)[0], v)
        u = (2 * np.concatenate([T.real, T.imag])).T @ samples
        spreads = [
            np.max(u[:, c].max(axis=0) - u[:, c].min(axis=0))
            for c in (slice(s, s + 10) for s in range(0, samples.shape[1], 10))
        ]
        D = -metrics._sq_distances(T, -1.0)
        bound = 2 * math.sqrt(D.max()) * _sample_radius(samples)
        assert max(spreads) <= bound * (1 + metrics._MC_SPREAD_MARGIN)
        want_direct = sum(spread > metrics._MC_SPREAD_LIMIT for spread in spreads)

        calls = count_direct_calls(monkeypatch)
        got = [_mc_link(T, samples), _mc_link(T, samples, True, objective._work)]
        assert len(calls) == 2 * want_direct
        # An infinite margin runs the exact spread pass on every chunk.
        monkeypatch.setattr(metrics, "_MC_SPREAD_MARGIN", math.inf)
        calls.clear()
        exact = [_mc_link(T, samples), _mc_link(T, samples, True, objective._work)]
        assert len(calls) == 2 * want_direct
        monkeypatch.setattr(metrics, "_MC_SPREAD_MARGIN", margin)
        monkeypatch.setattr(metrics, "_mc_exponentials", _mc_exponentials)
        assert np.array_equal(got[0], exact[0])
        assert got[1][0] == exact[1][0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1][1:], exact[1][1:]))
