"""ASR-GD's fused value-and-gradient pass against the separate evaluations.

``_asr_value_and_gradient`` takes each link's received constellation and
softmax once and returns both the approximate secrecy rate and its
gradient.  Its value must equal ``asr(cache, v, clamp=False)`` bit for bit,
and ASR-GD driven by it must retrace, step for step, the ascent that
evaluated ``asr`` and ``asr_gradient`` separately for each candidate.  The
constellation form must agree with the lifted form at W = v v^H to rounding:
the value to 1e-12 relative and the gradient to 1e-11.

The pair kernels and the spectrahedron projection work in place on their own
temporaries and read the SM symbols, not the dense signal matrix S.  On the
same grid they must equal, bit for bit, the straightforward forms on S kept
below as references, except the lifted weighted pair sum, which contracts
the symbols in another order and is held to 1e-14 of its largest entry
(bit for bit once symmetrized into the gradient at (4, 2)).  So must
the stacked pass over both links (``QuadFormCache.basis``, the link with
fewer receive antennas padded by zero rows) against the per-link kernel it
replaced, kept below as ``ref_asr_value_and_gradient``.
"""

import math

import numpy as np
import pytest

from smsec import GDParams, asr, asr_gradient, default_precoder, max_asr_gd
from smsec.metrics import _EXP2_SCALE, _lifted_eval, _pair_traces, _sq_distances
from smsec.model import _basis_points, _point_basis
from smsec.optim import (
    _ascend,
    _asr_value_and_gradient,
    _lifted_grad,
    _project_capped_simplex,
    _weighted_pair_sum,
    project_spectrahedron,
    relaxed_asr,
)

from conftest import make_instance, signal_matrix

SHAPES = [(4, 2), (8, 4), (16, 4)]
SNRS_DB = [-40, 0, 15, 90]
LINKS = [(2, 2), (2, 3), (1, 6), (3, 1)]
LN2 = math.log(2.0)


# References: each kernel as a sequence of fresh temporaries on the dense S.


def ref_pairwise(G):
    g = np.real(np.diagonal(G))
    return g[:, None] + g[None, :] - np.real(G + G.T)


def ref_row_log2sumexp2(x):
    m = np.max(x, axis=1, keepdims=True)
    e = np.exp2(x - m)
    sums = e.sum(axis=1)
    e /= sums[:, None]
    return np.log2(sums) + m[:, 0], e


def ref_pair_traces(cache, side, W):
    S = signal_matrix(cache)
    return ref_pairwise(S.conj().T @ (cache.gram(side) * W.T) @ S)


def ref_lifted_eval(cache, side, W):
    return ref_row_log2sumexp2(-0.5 * cache.p1 * ref_pair_traces(cache, side, W) / LN2)


def ref_weighted_pair_sum(gram, S, P):
    P = P.copy()
    np.fill_diagonal(P, 0.0)
    L = np.diag(P.sum(axis=1) + P.sum(axis=0)) - P - P.T
    return gram * (S @ L @ S.conj().T).conj()


def ref_lifted_grad(cache, side, P):
    g = ref_weighted_pair_sum(cache.gram(side), signal_matrix(cache), P)
    g = -cache.p1 / (2 * LN2 * cache.n_signals) * g
    return (g + g.conj().T) / 2


def ref_project_spectrahedron(W, budget):
    S = (W + W.conj().T) / 2
    lam, U = np.linalg.eigh(S)
    clipped = np.clip(lam, 0.0, None)
    if clipped.sum() > budget:
        clipped = _project_capped_simplex(lam, budget)
    out = (U * clipped) @ U.conj().T
    return (out + out.conj().T) / 2


def ref_link_pull(cache, F, v):
    """One link's log terms and pair pull, as ASR-GD took them one link at a time."""
    basis = _point_basis(F, cache.symbols, cache.p1)
    T = _basis_points(basis, v)
    x = _sq_distances(T, _EXP2_SCALE)
    e = np.exp2(x, out=x)
    sums = e.sum(axis=1)
    e *= np.reciprocal(sums)[:, None]
    inner, P = np.log2(sums, out=sums), e
    P.reshape(-1)[:: P.shape[0] + 1] = 0.0
    ones = np.ones(P.shape[0])
    Z = np.concatenate([T.real, T.imag])
    ZL = Z * (P @ ones + ones @ P)
    ZL -= Z @ P
    ZL -= Z @ P.T
    D = np.stack([basis.conj(), 1j * basis.conj()])
    return inner, (D * ZL.reshape(D.shape)).sum(axis=(0, 1, 3))


def ref_asr_value_and_gradient(cache, v):
    inner_b, pull_b = ref_link_pull(cache, cache.factor_b, v)
    inner_e, pull_e = ref_link_pull(cache, cache.factor_e, v)
    grad = np.subtract(pull_e, pull_b, out=pull_e)
    grad *= -1.0 / (2 * LN2 * cache.n_signals)
    return float(np.mean(inner_e - inner_b)), grad


def cases():
    for n_tx, M in SHAPES:
        for snr_db in SNRS_DB:
            for n_b, n_e in LINKS:
                yield pytest.param(
                    n_tx, M, snr_db, n_b, n_e, id=f"{n_tx}x{M}-{snr_db}dB-{n_b}x{n_e}"
                )


def case_instance(n_tx, M, snr_db, n_b, n_e):
    """The quadratic-form cache of one grid case and a full-power random precoder."""
    *_, cache = make_instance(
        seed=n_tx + M + n_e, n_tx=n_tx, n_b=n_b, n_e=n_e, M=M, sigma2=10 ** (-snr_db / 10)
    )
    rng = np.random.default_rng(n_tx * 100 + M)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    v *= np.sqrt(n_tx) / np.linalg.norm(v)
    return cache, v


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_fused_pass_equals_separate_evaluations(n_tx, M, snr_db, n_b, n_e):
    cache, v = case_instance(n_tx, M, snr_db, n_b, n_e)
    value, grad = _asr_value_and_gradient(cache, v)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))
    assert value == asr(cache, v, clamp=False)
    # asr is taken from the received points, relaxed_asr from the lifted
    # traces: the same quantity, equal to rounding (worst seen 8.8e-14).
    lifted = relaxed_asr(cache, np.outer(v, v.conj()))
    assert asr(cache, v, clamp=False) == pytest.approx(lifted, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(grad, asr_gradient(cache, v))


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_stacked_pass_equals_the_per_link_kernel(n_tx, M, snr_db, n_b, n_e):
    cache, v = case_instance(n_tx, M, snr_db, n_b, n_e)
    assert cache.basis.shape == (2, max(n_b, n_e), n_tx, M)
    value, grad = _asr_value_and_gradient(cache, v)
    want_value, want_grad = ref_asr_value_and_gradient(cache, v)
    assert value == want_value
    np.testing.assert_array_equal(grad, want_grad)


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_asr_gd_retraces_the_separate_ascent(n_tx, M, snr_db, n_b, n_e):
    cache, _ = case_instance(n_tx, M, snr_db, n_b, n_e)
    v0, params = default_precoder(n_tx), GDParams()
    got = max_asr_gd(cache, v0, params)
    want = _ascend(lambda v: (asr(cache, v), asr_gradient(cache, v)), v0, n_tx, params)
    assert all(np.isfinite(got.objective_history))
    assert np.all(np.isfinite(got.final_vector))
    assert got.objective_history == want.objective_history
    assert got.iterations == want.iterations
    assert got.stop_reason == want.stop_reason
    np.testing.assert_array_equal(got.final_vector, want.final_vector)


def lifted_points(n_tx, v):
    """v v^H, a full-rank PSD matrix and an indefinite Hermitian one (as FISTA extrapolates)."""
    rng = np.random.default_rng(n_tx)
    A = rng.standard_normal((n_tx, n_tx)) + 1j * rng.standard_normal((n_tx, n_tx))
    return [np.outer(v, v.conj()), A @ A.conj().T / n_tx, (A + A.conj().T) / 2]


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_kernels_equal_their_references(n_tx, M, snr_db, n_b, n_e):
    cache, v = case_instance(n_tx, M, snr_db, n_b, n_e)
    points = lifted_points(n_tx, v)
    for side in ("bob", "eve"):
        stacked = _pair_traces(cache, side, np.stack(points))
        for k, W in enumerate(points):
            traces = ref_pair_traces(cache, side, W)
            np.testing.assert_array_equal(_pair_traces(cache, side, W), traces)
            np.testing.assert_array_equal(stacked[k], traces)
            terms, weights = _lifted_eval(cache, side, W)
            want_terms, want_weights = ref_lifted_eval(cache, side, W)
            np.testing.assert_array_equal(terms, want_terms)
            np.testing.assert_array_equal(weights, want_weights)
            # The weighted sum contracts the symbols, not the dense S, so BLAS
            # sums its terms in another order: a few ulps of the largest
            # entry (the raw sum even at (4, 2), in the 1e-16 imaginary part
            # of the second BPSK symbol), bit for bit once symmetrized there.
            gram = cache.gram(side)
            got = _weighted_pair_sum(gram, cache.symbols, weights)
            want = ref_weighted_pair_sum(gram, signal_matrix(cache), weights)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            got = _lifted_grad(cache, side, weights)
            want = ref_lifted_grad(cache, side, weights)
            if (n_tx, M) == (4, 2):
                np.testing.assert_array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    for W in points:
        for budget in (float(n_tx), n_tx / 8):
            got = project_spectrahedron(W, budget)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, ref_project_spectrahedron(W, budget))
