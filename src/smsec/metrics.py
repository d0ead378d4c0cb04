"""Secrecy metrics for finite-alphabet spatial modulation.

Two routes to the same quantity:

* ``mi_monte_carlo`` / ``secrecy_rate_mc``: the exact mutual information of
  the whitened link, estimated by averaging the log-sum-exp likelihood ratio
  over sampled noise realizations.
* ``link_rate_approx`` / ``asr``: the closed-form approximation of each
  link's mutual information (the paper's analytical expression); the
  difference of the two links' approximations is the approximate secrecy
  rate (ASR) used as the optimization objective.
* ``mi_lower_bound``: a true closed-form lower bound on each link's mutual
  information.  Jensen's inequality on the expectation over the whitened
  noise gives I >= link_rate_approx - r * (1/ln 2 - 1), where r is the
  dimension of the noise subspace the likelihood ratio depends on; the
  bound is additionally floored at 0 because I >= 0.

The closed form is driven by whitened pairwise distances.  For the SM
symbols s_k (the columns of S = ``codebook.signal_matrix()``, N_t x K) and
a precoding vector v,

    ||Q^{-1/2} C diag(v) (s_k - s_k')||^2 = v^H A_{kk'} v,
    A_{kk'} = R * conj(d d^H)  elementwise, d = s_k - s_k', R = C^H Q^{-1} C.

Note the conjugate on the symbol-difference outer product: it is required
for the identity above to hold per pair (the Hadamard factorization of
diag(v)^H R diag(v) pairs R with the *transpose* of the difference outer
product).  No A_{kk'} is ever formed.  With X = diag(v) S every distance
is a difference of entries of one K x K Gram matrix,

    v^H A_{kk'} v = G_kk + G_k'k' - 2 Re G_kk',  G = X^H R X,

so all K^2 quadratic forms cost O(K N_t^2 + K^2 N_t) and
:class:`QuadFormCache` holds only S and the two N_t x N_t Grams R.  The
lifted traces tr(W A_{kk'}) and the softmax-weighted sums of the A_{kk'}
used by the optimizers follow the same way (see ``smsec.optim``).

The closed-form log-sum-exps are evaluated with max-shifting so that high
signal-to-noise ratios do not underflow.

The Monte-Carlo estimate rests on the same pairwise structure.  With
F = Q^{-1/2} C the whitened channel, T = sqrt(p1) F diag(v) S (N x K) the
noise-free received points t_k, and u = 2 Re(noise conj(T)) (S x K) for S
noise samples w_s, the exponent of pair (a, b) under sample s is

    E_sab = ||w_s||^2 - ||t_a - t_b + w_s||^2 = u_sb - u_sa - pairwise(T^H T)_ab,

so all S K^2 exponents come from one broadcast of u and one K x K Gram,
at cost O(S K^2 + S K N) and O(S K^2) memory.  No max shift is needed:
E_sab <= ||w_s||^2, which for CN(0, I_N) samples stays far below the
~709 at which exp overflows, and the diagonal E_saa is exactly 0 in
floating point, so every row sum of exp(E) is at least 1 and its log2 is
finite and nonnegative.  SR-GD (``smsec.optim``) reuses the same
exponentials, normalised, as the weights of its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .model import (
    ANProjector,
    ChannelPair,
    PowerConfig,
    SMCodebook,
    _noiseless_points,
    noise_covariance,
)

__all__ = [
    "QuadFormCache",
    "MIEstimate",
    "whiten",
    "build_cache",
    "link_rate_approx",
    "mi_lower_bound",
    "asr",
    "mi_monte_carlo",
    "secrecy_rate_mc",
]

_LN2 = math.log(2.0)
# Per-dimension Jensen offset in bits: log2(e) for E||w||^2 minus the 1 bit
# of the 2^-r factor in E exp(-||d + w||^2) over CN(0, I_r) noise.
_JENSEN_GAP = 1.0 / _LN2 - 1.0


def log2sumexp2(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted log2 of a sum of 2**x terms along ``axis``.

    Working in base-2 units end to end keeps the degenerate all-zero case
    exact: log2sumexp2(zeros(K)) == log2(K) bit for bit when K is a power
    of two, which several zero-rate contracts rely on.
    """
    x = np.asarray(x, dtype=float)
    m = np.max(x, axis=axis, keepdims=True)
    out = np.log2(np.sum(np.exp2(x - m), axis=axis)) + np.squeeze(m, axis=axis)
    return out


@dataclass(frozen=True)
class QuadFormCache:
    """What the pairwise quadratic forms of both links are computed from.

    ``signals`` is the SM signal matrix S (N_t x K), column k the symbol
    s_k in antenna-major order.  ``gram_b``/``gram_e`` are the whitened
    channel Grams R = C^H Q^{-1} C of the legitimate / eavesdropper link.
    The pair matrix of symbols (k, k') on a link is R * conj(d d^H) with
    d = s_k - s_k'; the kernels never form it, and :meth:`pair_matrix`
    builds one on demand for checks.  ``noise_dim_b``/``noise_dim_e`` bound
    the rank of each Gram (the link's min(N, N_t)); ``None`` falls back to
    ``n_tx``, which is always valid.  The arrays take O(N_t K + N_t^2)
    memory.  Immutable after construction; safe to share across threads.
    """

    signals: np.ndarray
    gram_b: np.ndarray
    gram_e: np.ndarray
    p1: float
    n_tx: int
    M: int
    noise_dim_b: int | None = None
    noise_dim_e: int | None = None

    @property
    def n_signals(self) -> int:
        return self.M * self.n_tx

    def gram(self, side: str) -> np.ndarray:
        """Whitened Gram C^H Q^{-1} C of the ``side`` link."""
        if side == "bob":
            return self.gram_b
        if side == "eve":
            return self.gram_e
        raise ValueError(f"side must be 'bob' or 'eve', got {side!r}")

    def noise_dim(self, side: str) -> int:
        """Integer >= rank(C^H Q^{-1} C) of the ``side`` link."""
        if side == "bob":
            dim = self.noise_dim_b
        elif side == "eve":
            dim = self.noise_dim_e
        else:
            raise ValueError(f"side must be 'bob' or 'eve', got {side!r}")
        return self.n_tx if dim is None else dim

    def pair_matrix(self, side: str, k: int, kp: int) -> np.ndarray:
        """Hermitian PSD pair matrix A_{kk'} (N_t x N_t) of the ``side`` link.

        v^H A_{kk'} v is the whitened distance between symbols k and k'
        (0-based, antenna-major) under precoder v; zero when k == k'.
        """
        d = self.signals[:, k] - self.signals[:, kp]
        return self.gram(side) * np.outer(d.conj(), d)

    def pair_index(self, n: int, m: int) -> int:
        """Flatten 1-based (n, m) to the antenna-major linear index."""
        if not (1 <= n <= self.n_tx and 1 <= m <= self.M):
            raise ValueError(f"pair ({n}, {m}) out of range")
        return (n - 1) * self.M + (m - 1)


@dataclass(frozen=True)
class MIEstimate:
    """Monte-Carlo mutual-information estimate in bits per channel use."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.value < 0 or self.std_error < 0:
            raise ValueError("estimate and standard error must be nonnegative")


def whiten(Q: np.ndarray) -> np.ndarray:
    """Hermitian inverse square root Q^{-1/2}, so that W Q W^H = I.

    Computed by eigendecomposition of the symmetrized input; raises
    :class:`NumericalError` if Q is not positive definite.
    """
    S = (Q + Q.conj().T) / 2
    eigvals, U = np.linalg.eigh(S)
    if eigvals[0] <= 0:
        raise NumericalError(f"covariance not positive definite (min eig {eigvals[0]:g})")
    W = (U / np.sqrt(eigvals)) @ U.conj().T
    return (W + W.conj().T) / 2


def _whitened_gram(C: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Hermitian C^H Q^{-1} C via a positive-definite solve."""
    gram = C.conj().T @ scipy.linalg.solve(Q, C, assume_a="pos")
    return (gram + gram.conj().T) / 2


def build_cache(
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    codebook: SMCodebook,
) -> QuadFormCache:
    """Whitened Grams of both links plus the SM signal matrix.

    The legitimate link's interference covariance reduces exactly to
    sigma_b^2 * I because the AN projector nulls H; the eavesdropper's is
    the full AN-plus-noise covariance.
    """
    H, G = channels.H, channels.G
    n_tx = codebook.n_tx
    if H.shape[1] != n_tx:
        raise ValueError("channel and codebook transmit dimensions differ")

    # Bob's covariance reduces exactly to sigma_b^2 * I (the projector nulls
    # H); both Grams go through the same solve so a fully symmetric instance
    # yields bit-identical Grams, hence identical rates, on the two links.
    q_b = powers.sigma2_b * np.eye(H.shape[0])
    q_e = noise_covariance(G, proj, powers.p2, powers.sigma2_e)
    return QuadFormCache(
        signals=codebook.signal_matrix(),
        gram_b=_whitened_gram(H, q_b),
        gram_e=_whitened_gram(G, q_e),
        p1=powers.p1,
        n_tx=n_tx,
        M=codebook.M,
        noise_dim_b=min(H.shape[0], n_tx),
        noise_dim_e=min(G.shape[0], n_tx),
    )


def _pairwise(G: np.ndarray) -> np.ndarray:
    """Re(G_aa + G_bb - G_ab - G_ba) for every (a, b), shape (K, K).

    For G = S^H M S this is Re d^H M d with d = s_a - s_b: the pairwise
    distances that M induces between the columns of S.
    """
    g = np.real(np.diagonal(G))
    return g[:, None] + g[None, :] - np.real(G + G.T)


def _pair_quadforms(cache: QuadFormCache, side: str, v: np.ndarray) -> np.ndarray:
    """Real quadratic forms v^H A_{kk'} v for every pair, shape (K, K)."""
    X = v[:, None] * cache.signals
    return _pairwise(X.conj().T @ (cache.gram(side) @ X))


def link_rate_approx(cache: QuadFormCache, side: str, v: np.ndarray) -> float:
    """Closed-form link-rate approximation in bits (the paper's expression).

    log2(M*N_t) - (1/(M*N_t)) * sum_k log2 sum_k' exp(-p1 * v^H A_{kk'} v / 2).

    Tracks the Monte-Carlo mutual information closely over the whole SNR
    range and is exact in both limits (0 and log2(M*N_t)), but it is not a
    one-sided bound: in the mid-SNR transition region it can overshoot the
    true value.  :func:`mi_lower_bound` is the bound.
    """
    K = cache.n_signals
    q = _pair_quadforms(cache, side, np.asarray(v, dtype=complex))
    inner = log2sumexp2(-0.5 * cache.p1 * q / _LN2, axis=1)
    return float(np.log2(K) - np.mean(inner))


def mi_lower_bound(cache: QuadFormCache, side: str, v: np.ndarray) -> float:
    """Closed-form lower bound on the link's mutual information in bits.

    max(link_rate_approx - r * (1/ln 2 - 1), 0), with r = ``cache.noise_dim(side)``.
    Only the r-dimensional component of the whitened noise in the range of
    Q^{-1/2} C enters the likelihood ratio; Jensen's inequality on
    E_w log sum_k' exp(-||d + w||^2) over that CN(0, I_r) component costs
    exactly r * (1/ln 2 - 1) bits relative to the approximation.  The floor
    at 0 holds because mutual information is nonnegative.  Never exceeds
    :func:`link_rate_approx`.
    """
    approx = link_rate_approx(cache, side, v)
    return max(approx - cache.noise_dim(side) * _JENSEN_GAP, 0.0)


def asr(cache: QuadFormCache, v: np.ndarray, clamp: bool = False) -> float:
    """Approximate secrecy rate: difference of the links' rate approximations.

    Equals link_rate_approx(bob) - link_rate_approx(eve) for every
    (N_b, N_e); it is not built from :func:`mi_lower_bound`, whose Jensen
    offsets differ between the links when N_b != N_e.  Evaluated directly
    from the two links' pairwise distances, so the log2(M*N_t) terms cancel
    analytically.  With ``clamp`` the value is floored at 0, matching the
    reported (rather than optimized) secrecy rate.
    """
    v = np.asarray(v, dtype=complex)
    qb = _pair_quadforms(cache, "bob", v)
    qe = _pair_quadforms(cache, "eve", v)
    inner_b = log2sumexp2(-0.5 * cache.p1 * qb / _LN2, axis=1)
    inner_e = log2sumexp2(-0.5 * cache.p1 * qe / _LN2, axis=1)
    value = float(np.mean(inner_e - inner_b))
    return max(value, 0.0) if clamp else value


def _complex_noise(rng: np.random.Generator, n_samp: int, dim: int) -> np.ndarray:
    """n_samp i.i.d. CN(0, I_dim) rows."""
    re = rng.standard_normal((n_samp, dim))
    im = rng.standard_normal((n_samp, dim))
    return (re + 1j * im) / np.sqrt(2.0)


def _mc_exponentials(T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """exp(E_sab) for every symbol pair and noise sample, indexed [a, b, s].

    ``T`` holds the noise-free received points t_k as columns (N x K) and
    ``noise`` the whitened samples w_s as rows (S x N).  The exponent is
    E_sab = ||w_s||^2 - ||t_a - t_b + w_s||^2 = u_sb - u_sa - ||t_a - t_b||^2
    with u = 2 Re(noise conj(T)).  It is bounded above by ||w_s||^2, so for
    CN(0, I) samples exp cannot overflow and needs no max shift; the
    diagonal E_saa is exactly 0, so each row sum over b is at least 1.  The
    samples are the innermost axis, so every elementwise pass and every sum
    over a or b runs along contiguous rows of length S however small K is.
    """
    u = 2 * np.real(T.conj().T @ noise.T)  # (K, S)
    expo = u[None, :, :] - u[:, None, :]
    expo -= _pairwise(T.conj().T @ T)[:, :, None]
    return np.exp(expo, out=expo)


def _mc_per_sample(T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-noise-sample mutual-information estimates, shape (S,).

    For each transmitted symbol a the integrand is
    log2 sum_b exp(||w||^2 - ||t_a - t_b + w||^2) over the received points
    ``T`` (N x K); the noise samples (rows of ``noise``) are shared across
    the average over a.  See :func:`_mc_exponentials` for the exponents
    and why their row sums need no max shift.
    """
    inner = np.log2(_mc_exponentials(T, noise).sum(axis=1))  # (K, S)
    return np.log2(T.shape[1]) - np.mean(inner, axis=0)


def mi_monte_carlo(
    channel: np.ndarray,
    whitening: np.ndarray,
    codebook: SMCodebook,
    v: np.ndarray,
    p1: float,
    n_samp: int,
    rng: np.random.Generator,
) -> MIEstimate:
    """Monte-Carlo mutual information of one link over the whitened channel.

    ``channel`` is the raw link matrix (N x N_t) and ``whitening`` its
    interference-plus-noise inverse square root.  The expectation over the
    whitened noise is replaced by an ``n_samp``-sample average; the reported
    standard error is the per-sample standard deviation divided by
    sqrt(n_samp).  The value is floored at 0 (the estimator can dip below
    zero by sampling noise alone).
    """
    if n_samp < 1:
        raise ValueError("n_samp must be >= 1")
    v = np.asarray(v, dtype=complex)
    noise = _complex_noise(rng, n_samp, channel.shape[0])
    T = _noiseless_points(whitening @ channel, v, codebook.signal_matrix(), p1)
    per_sample = _mc_per_sample(T, noise)
    value = float(np.mean(per_sample))
    if n_samp > 1:
        std_error = float(np.std(per_sample, ddof=1) / np.sqrt(n_samp))
    else:
        std_error = 0.0
    return MIEstimate(value=max(value, 0.0), std_error=std_error, n_samples=n_samp)


def secrecy_rate_mc(
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    codebook: SMCodebook,
    v: np.ndarray,
    n_samp: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo secrecy rate [I(bob) - I(eve)]^+ in bits per channel use.

    Both links are estimated with ``n_samp`` noise realizations drawn from
    generators seeded identically (common random numbers), which cancels
    shared sampling noise in the difference.
    """
    # Bob's interference covariance is exactly sigma_b^2 * I (AN is nulled);
    # still run it through whiten() so both links share a code path and a
    # fully symmetric instance (G = H, equal noise) cancels bit for bit.
    wh_b = whiten(powers.sigma2_b * np.eye(channels.H.shape[0]))
    q_e = noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e)
    wh_e = whiten(q_e)

    noise_seed = int(rng.integers(0, 2**63))
    mi_b = mi_monte_carlo(
        channels.H, wh_b, codebook, v, powers.p1, n_samp, np.random.default_rng(noise_seed)
    )
    mi_e = mi_monte_carlo(
        channels.G, wh_e, codebook, v, powers.p1, n_samp, np.random.default_rng(noise_seed)
    )
    return max(mi_b.value - mi_e.value, 0.0)
