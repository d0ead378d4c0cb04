"""The blocked power sweep of ``power_sweep_rounding`` against the per-direction loop.

``power_sweep_rounding`` scores its directions a block at a time on their
received constellations F diag(d) S.  The reference below is independent
of that kernel: it draws each Gaussian direction with its own pair of
``standard_normal(n)`` calls and scores it on the lifted pair traces of
d d^H, with one max-shifted ``log2sumexp2`` per link over the whole power
grid.  The two scores agree to rounding, which picks the same
(direction, power) on every case here, so the sweep must return the
reference's vector to the bit and leave the generator in the same state.
"""

import math
import tracemalloc

import numpy as np
import pytest

from smsec import SCAParams, optim, power_sweep_rounding
from smsec.metrics import _pair_traces, log2sumexp2
from smsec.model import _noiseless_points
from smsec.optim import (
    _POWER_GRID,
    _POWER_SNAP,
    _is_rank_one,
    _leading_direction,
    _rounding_directions,
    _swept_log_terms,
)

from conftest import make_instance

LN2 = math.log(2.0)

SHAPES = [(4, 2), (8, 4), (16, 4)]
SNRS_DB = [-40, 0, 15, 30, 60, 90]
KINDS = ["rank-one", "full-rank", "zero"]
DRAWS = [0, 1, 100]


def reference_rounding_directions(W_star, n_randomizations, rng):
    """Lead, Gaussian directions (a list) and ascending spectrum, one draw at a time."""
    lam, U = np.linalg.eigh((W_star + W_star.conj().T) / 2)
    n = W_star.shape[0]
    lead = _leading_direction(lam, U)
    if lam[-1] > 0:
        root = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.conj().T
    else:
        root = np.eye(n)
    directions = []
    for _ in range(n_randomizations):
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        xi = root @ z
        norm = np.linalg.norm(xi)
        if norm > 0:
            directions.append(xi / norm)
    return lead, directions, lam


def reference_power_sweep_rounding(cache, W_star, params, rng):
    """The power sweep scored one direction at a time, one row maximum per power."""
    n_tx = cache.n_tx
    lead_dir, directions, lam = reference_rounding_directions(
        W_star, params.n_randomizations, rng
    )
    if _is_rank_one(lam, params.rank_tol):
        directions = []
    trace_w = float(np.clip(np.real(np.trace(W_star)), n_tx / _POWER_GRID, n_tx))
    t_grid = np.linspace(n_tx / _POWER_GRID, n_tx, _POWER_GRID)
    if np.min(np.abs(t_grid - trace_w) / t_grid) > _POWER_SNAP:
        t_grid = np.unique(np.concatenate([t_grid, [trace_w]]))
    best_vec, best_val = None, -np.inf
    for direction in [lead_dir] + directions:
        D = np.outer(direction, direction.conj())
        qb = _pair_traces(cache, "bob", D)
        qe = _pair_traces(cache, "eve", D)
        xb = -0.5 * cache.p1 * np.multiply.outer(t_grid, qb) / LN2
        xe = -0.5 * cache.p1 * np.multiply.outer(t_grid, qe) / LN2
        values = np.mean(log2sumexp2(xe, axis=2) - log2sumexp2(xb, axis=2), axis=1)
        i = int(np.argmax(values))
        if values[i] > best_val:
            best_val = float(values[i])
            best_vec = np.sqrt(t_grid[i]) * direction
    return best_vec


def lifted_solution(kind, n_tx, seed):
    """A W* of the given kind: off the power grid in trace, so tr(W*) is swept too."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    if kind == "zero":
        return np.zeros((n_tx, n_tx), dtype=complex)
    W = np.outer(A[0], A[0].conj()) if kind == "rank-one" else A @ A.conj().T
    return W * (n_tx / 3 / np.trace(W).real)


def cases():
    for n_tx, M in SHAPES:
        for snr_db in SNRS_DB:
            for kind in KINDS:
                for draws in DRAWS:
                    yield pytest.param(
                        n_tx, M, snr_db, kind, draws, id=f"{n_tx}x{M}-{snr_db}dB-{kind}-{draws}"
                    )


@pytest.mark.parametrize("n_tx,M,snr_db,kind,draws", cases())
def test_sweep_equals_the_per_direction_loop(n_tx, M, snr_db, kind, draws):
    *_, cache = make_instance(seed=n_tx + M, n_tx=n_tx, M=M, sigma2=10 ** (-snr_db / 10))
    W = lifted_solution(kind, n_tx, seed=n_tx * 10 + M)
    params = SCAParams(n_randomizations=draws)
    rng, rng_ref = np.random.default_rng(draws), np.random.default_rng(draws)
    got = power_sweep_rounding(cache, W, params, rng)
    want = reference_power_sweep_rounding(cache, W, params, rng_ref)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)
    assert rng.random() == rng_ref.random()


def swept_grids(monkeypatch, cache, trace_w):
    """The power grids ``power_sweep_rounding`` sweeps for a rank-one W* of trace ``trace_w``."""
    grids = []

    def spy(T, t_grid):
        grids.append(t_grid)
        return _swept_log_terms(T, t_grid)

    monkeypatch.setattr(optim, "_swept_log_terms", spy)
    W = np.zeros((cache.n_tx, cache.n_tx), dtype=complex)
    W[0, 0] = trace_w
    v = power_sweep_rounding(cache, W, SCAParams(), np.random.default_rng(0))
    assert np.all(np.isfinite(v))
    return grids


@pytest.mark.parametrize("k", range(1, 7))
def test_a_trace_ulps_below_the_budget_is_swept_as_the_budget(monkeypatch, k):
    # tr(W*) = N_t (1 - k 2^-52): the grid must hold no second power within
    # those ulps of N_t, or the argmax between the two follows last-bit noise.
    *_, cache = make_instance(seed=3)
    n_tx = cache.n_tx
    trace_w = n_tx * (1 - k * 2.0**-52)
    assert 0 < n_tx - trace_w <= 6 * 2.0**-52 * n_tx
    grids = swept_grids(monkeypatch, cache, trace_w)
    assert len(grids) == 2  # one block, both links
    for t_grid in grids:
        assert len(t_grid) == _POWER_GRID and t_grid[-1] == n_tx
        assert np.min(np.diff(t_grid)) > 6 * 2.0**-52 * n_tx


def test_a_trace_off_the_grid_is_swept_too(monkeypatch):
    *_, cache = make_instance(seed=3)
    trace_w = cache.n_tx * (1 - 1e-9)
    for t_grid in swept_grids(monkeypatch, cache, trace_w):
        assert len(t_grid) == _POWER_GRID + 1 and t_grid[-2] == trace_w


@pytest.mark.parametrize("p1", [0.5, 1e-3, 1e4, 0.0])
@pytest.mark.parametrize("n_tx,M", SHAPES)
def test_swept_log_terms_equal_the_lifted_log_sums(n_tx, M, p1):
    # At every power t the sweep's log terms are those of the lifted traces
    # q of d d^H at t d d^H; with p1 = 0 every term is exactly log2 K.
    *_, cache = make_instance(seed=n_tx, n_tx=n_tx, M=M, p1=p1)
    W = lifted_solution("full-rank", n_tx, seed=M)
    lead, directions, _ = _rounding_directions(W, 5, np.random.default_rng(n_tx))
    block = np.concatenate([lead[None], directions])
    t_grid = np.unique(np.concatenate([np.linspace(n_tx / 64, n_tx, 64), [1.3]]))
    for side in ("bob", "eve"):
        T = _noiseless_points(cache.factor(side), block, cache.signals, cache.p1)
        got = _swept_log_terms(T, t_grid)
        assert got.shape == (len(block), len(t_grid), cache.n_signals)
        D = block[:, :, None] * block.conj()[:, None, :]
        q = _pair_traces(cache, side, D)
        want = log2sumexp2(-0.5 * p1 * np.einsum("t,bij->btij", t_grid, q) / LN2, axis=-1)
        if p1 == 0.0:
            np.testing.assert_array_equal(got, np.log2(cache.n_signals))
        # Each row sum is at least 1, so a log term is accurate to a few
        # ulps of log2 near 1 (about 3e-16) however small it is.
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 32, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_direction_norms_equal_the_loop(n, kind):
    # The directions are normalized by stacked dot products; they must equal,
    # to the bit, one np.linalg.norm call per draw.
    W = lifted_solution(kind, n, seed=n)
    lead, got, lam = _rounding_directions(W, 500, np.random.default_rng(n))
    want_lead, want, want_lam = reference_rounding_directions(W, 500, np.random.default_rng(n))
    assert len(got) == len(want) == 500
    np.testing.assert_array_equal(got, np.array(want))
    np.testing.assert_array_equal(lead, want_lead)
    np.testing.assert_array_equal(lam, want_lam)


# Traced peak of one sweep (100 draws, full-rank W*) when each direction was
# scored on its own: 0.183 MiB at (4, 2) and 8.30 MiB at (16, 4).  Blocks of
# four directions may add half of that; blocks of eight would not fit.
PARENT_PEAK_MIB = {(4, 2): 0.183, (16, 4): 8.30}


@pytest.mark.parametrize("n_tx,M", list(PARENT_PEAK_MIB))
def test_sweep_peak_memory(n_tx, M):
    *_, cache = make_instance(seed=3, n_tx=n_tx, M=M, sigma2=0.1)
    W = lifted_solution("full-rank", n_tx, seed=1)
    power_sweep_rounding(cache, W, SCAParams(), np.random.default_rng(2))  # warm up
    tracemalloc.start()
    try:
        power_sweep_rounding(cache, W, SCAParams(), np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * PARENT_PEAK_MIB[(n_tx, M)] * 2**20
