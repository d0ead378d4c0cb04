"""Secrecy metrics for finite-alphabet spatial modulation.

Two routes to the same quantity:

* ``mi_monte_carlo`` / ``secrecy_rate_mc`` (``secrecy_rate_mc_estimate``
  with its standard error): the exact mutual information of the whitened
  link, estimated by averaging the log-sum-exp likelihood ratio over
  sampled noise realizations.
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

which separates: sum_b exp(E_sab) = exp(-u_sa) sum_b X_ab exp(u_sb) with
X = exp(-pairwise(T^H T)) (K x K, unit diagonal).  The kernel
(``_mc_factors``) shifts each sample by c_s = max_b u_sb, takes the S K
exponentials e = exp(u - c) and gets every row sum from one K x K by
K x S matrix product, as 1 + (X' e)_as / e_as with X' the off-diagonal
part of X.  That is O(S K^2 + S K N) time, O(S K + K^2) memory and
O(S K + K^2) exponentials instead of S K^2 (see Blanchard, Higham &
Higham, "Accurately computing the log-sum-exp and softmax functions",
IMA J. Numer. Anal. 2021, for the shift).  The diagonal term is exactly 1
in floating point, so every row sum is at least 1 and its log2 is finite
and nonnegative.  SR-GD (``smsec.optim``) takes its gradient weights from
the same factors.

The factored form is exact only while each sample's spread
max_b u_sb - min_b u_sb stays below ``_MC_SPREAD_LIMIT`` (500, fixed by
the double-precision range; see its comment).  The spread grows with the
received amplitude: at the ``configs/benchmark.cfg`` shape the legitimate
link passes the limit at about 30-35 dB.  A call in which any sample
exceeds it uses the direct kernel ``_mc_exponentials``, which forms all
S K^2 exponentials E_sab <= ||w_s||^2 by one broadcast of u (O(S K^2)
memory); it needs no shift, since for CN(0, I_N) samples ||w_s||^2 stays
far below the ~709 at which exp overflows.

``secrecy_rate_mc_estimate`` adds the standard error of the secrecy rate:
both links draw the same noise (common random numbers), so it is the
error of the paired per-sample differences.
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
    "log2sumexp2",
    "whiten",
    "build_cache",
    "link_rate_approx",
    "mi_lower_bound",
    "asr",
    "mi_monte_carlo",
    "secrecy_rate_mc",
    "secrecy_rate_mc_estimate",
]

_LN2 = math.log(2.0)
# Per-dimension Jensen offset in bits: log2(e) for E||w||^2 minus the 1 bit
# of the 2^-r factor in E exp(-||d + w||^2) over CN(0, I_r) noise.
_JENSEN_GAP = 1.0 / _LN2 - 1.0

# Largest per-sample spread max_b u_sb - min_b u_sb (natural-log units) for
# which :func:`_mc_factors` is used.  Below it, in double precision, every
# shifted exponential e = exp(u - max u) is at least e^-500, a normal float;
# the reciprocal row sums 1 / (e + X e) <= e^500 keep SR-GD's matrix products
# finite; and a pair whose exp(-D_ab) underflows (D_ab > ~745) weighs less
# than e^(500 - 745) relative to its row sum.
_MC_SPREAD_LIMIT = 500.0


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


def _link_pair_setup(
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.random.Generator, np.random.Generator]:
    """Whitening matrices of both links and two identically seeded noise generators.

    Draws one seed from ``rng`` for the two generators, so the links see
    common random numbers.  Bob's interference covariance is exactly
    sigma_b^2 * I (AN is nulled); it still goes through :func:`whiten` so
    both links share a code path and a fully symmetric instance (G = H,
    equal noise) cancels bit for bit.
    """
    wh_b = whiten(powers.sigma2_b * np.eye(channels.H.shape[0]))
    wh_e = whiten(noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e))
    seed = int(rng.integers(0, 2**63))
    return wh_b, wh_e, np.random.default_rng(seed), np.random.default_rng(seed)


def _complex_noise(rng: np.random.Generator, n_samp: int, dim: int) -> np.ndarray:
    """n_samp i.i.d. CN(0, I_dim) rows."""
    re = rng.standard_normal((n_samp, dim))
    im = rng.standard_normal((n_samp, dim))
    return (re + 1j * im) / np.sqrt(2.0)


def _mc_exponentials(T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """exp(E_sab) for every symbol pair and noise sample, indexed [a, b, s].

    The direct kernel, used beyond :data:`_MC_SPREAD_LIMIT`.  ``T`` holds
    the noise-free received points t_k as columns (N x K) and ``noise`` the
    whitened samples w_s as rows (S x N).  The exponent is
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


def _stacked_noise(noise: np.ndarray) -> np.ndarray:
    """Samples w_s (rows of ``noise``, S x N) as the real 2N x S [Re W; Im W], W = noise^T."""
    return np.concatenate([noise.real.T, noise.imag.T])


def _mc_factors(
    T: np.ndarray, stacked: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
    """The factored pair kernel: (inner, e, X, Xe), or None beyond the spread limit.

    ``T`` holds the received points as columns (N x K) and ``stacked`` the
    noise as :func:`_stacked_noise` returns it.  With u = 2 Re(T^H W)
    (K x S), c_s = max_b u_sb, e = exp(u - c) and X = exp(-D),
    D = pairwise(T^H T), with its unit diagonal zeroed, the row sums of
    exp(E_sab) = exp(u_sb - u_sa - D_ab) are

        sum_b exp(E_sab) = (e_as + (X e)_as) / e_as = 1 + (X e)_as / e_as,

    so ``inner``, their log2 (K x S), costs O(K S) exponentials and one
    K x K by K x S product.  As on the direct path the diagonal term is
    exactly 1: with no signal (T = 0) and K a power of two every entry of
    ``inner`` is log2(K) bit for bit.  Returns None when some sample's
    spread max_b u_sb - min_b u_sb exceeds :data:`_MC_SPREAD_LIMIT`; the
    caller then uses :func:`_mc_exponentials`.
    """
    u = (2 * np.concatenate([T.real, T.imag])).T @ stacked
    top = u.max(axis=0)
    if np.max(top - u.min(axis=0)) > _MC_SPREAD_LIMIT:
        return None
    u -= top
    e = np.exp(u, out=u)
    X = np.exp(-_pairwise(T.conj().T @ T))
    np.fill_diagonal(X, 0.0)
    Xe = X @ e
    inner = Xe / e
    inner += 1.0
    return np.log2(inner, out=inner), e, X, Xe


def _mc_per_sample(T: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-noise-sample mutual-information estimates, shape (S,).

    For each transmitted symbol a the integrand is
    log2 sum_b exp(||w||^2 - ||t_a - t_b + w||^2) over the received points
    ``T`` (N x K); the noise samples (rows of ``noise``) are shared across
    the average over a.  The row sums come from :func:`_mc_factors`, or from
    :func:`_mc_exponentials` beyond the spread limit.
    """
    factors = _mc_factors(T, _stacked_noise(noise))
    if factors is None:
        inner = np.log2(_mc_exponentials(T, noise).sum(axis=1))
    else:
        inner = factors[0]
    return np.log2(T.shape[1]) - np.mean(inner, axis=0)


def _link_samples(
    channel: np.ndarray,
    whitening: np.ndarray,
    codebook: SMCodebook,
    v: np.ndarray,
    p1: float,
    n_samp: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-sample mutual-information estimates of one link, shape (n_samp,)."""
    if n_samp < 1:
        raise ValueError("n_samp must be >= 1")
    v = np.asarray(v, dtype=complex)
    noise = _complex_noise(rng, n_samp, channel.shape[0])
    T = _noiseless_points(whitening @ channel, v, codebook.signal_matrix(), p1)
    return _mc_per_sample(T, noise)


def _std_error(samples: np.ndarray) -> float:
    """Standard error of the mean of ``samples``; 0 for a single sample."""
    if len(samples) < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / np.sqrt(len(samples)))


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
    per_sample = _link_samples(channel, whitening, codebook, v, p1, n_samp, rng)
    value = float(np.mean(per_sample))
    return MIEstimate(value=max(value, 0.0), std_error=_std_error(per_sample), n_samples=n_samp)


def secrecy_rate_mc_estimate(
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    codebook: SMCodebook,
    v: np.ndarray,
    n_samp: int,
    rng: np.random.Generator,
) -> MIEstimate:
    """Monte-Carlo secrecy rate with its common-random-numbers standard error.

    ``value`` is [max(I_b, 0) - max(I_e, 0)]^+ of the two links' floored
    :func:`mi_monte_carlo` values; ``std_error`` is the standard error of the
    paired per-sample differences I_b,s - I_e,s, which share their noise
    draws, so it is the error of the unfloored difference of the means.
    """
    wh_b, wh_e, rng_b, rng_e = _link_pair_setup(channels, proj, powers, rng)
    per_b = _link_samples(channels.H, wh_b, codebook, v, powers.p1, n_samp, rng_b)
    per_e = _link_samples(channels.G, wh_e, codebook, v, powers.p1, n_samp, rng_e)
    mi_b = max(float(np.mean(per_b)), 0.0)
    mi_e = max(float(np.mean(per_e)), 0.0)
    return MIEstimate(
        value=max(mi_b - mi_e, 0.0), std_error=_std_error(per_b - per_e), n_samples=n_samp
    )


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
    shared sampling noise in the difference.  The value of
    :func:`secrecy_rate_mc_estimate`.
    """
    return secrecy_rate_mc_estimate(channels, proj, powers, codebook, v, n_samp, rng).value
