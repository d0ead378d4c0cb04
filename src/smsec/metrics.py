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

so all K^2 quadratic forms cost O(K N_t^2 + K^2 N_t) in this form.

Every *vector* quantity is taken from the received constellation.  With
F = Q^{-1/2} C the whitened channel (N x N_t) and t_k = sqrt(p1) F diag(v) s_k
the noise-free received points, the scaled quadratic form p1 v^H A_{kk'} v
is ||t_k - t_k'||^2, a pairwise distance of the N x K matrix T.  One kernel,
``_sq_distances``, takes all K^2 of them (times a scale) from one real
K x K Gram of the stacked points [Re T; Im T], in O(K^2 N) per link; N, the
link's receive antennas, is small.  ``_constellation_terms`` turns them
into the log terms of ``asr``, ``link_rate_approx`` and ASR-GD's value
(``smsec.optim``), and the Monte-Carlo kernels below take them with scale
-1.  The gradients of ASR-GD and SR-GD pull each pair's weight back through
the same points (``_pair_pull`` in ``smsec.optim``), and the rounding sweep
there scores each direction d on the points sqrt(p1) F diag(d) S: power t
only scales every distance by t.  :class:`QuadFormCache` is built from S
and each link's F alone; it derives S^H, each link's N_t x N_t Gram
R = F^H F and the rank bound min(N, N_t) from them, so one whitening per
link (an eigendecomposition of Q, in :func:`whiten`) serves every kernel,
and the module needs only numpy.  It also stacks both links' F as one
(2, N_max, N_t) array, the link with fewer receive antennas padded by zero
rows, so that ``asr`` and ASR-GD take both links' points, distances, log
terms and pulls in one stacked pass.  A zero row adds an exact zero to every
sum, so the stacked results equal the per-link ones bit for bit wherever
BLAS sums the taller products in the same order: at every shape up to
K = 64 that the tests cover, but not at K = 128 with (N_b, N_e) = (1, 6),
where ASR-GD's gradient moves by a few ulps.

Lifted *matrices* keep the trace form.  Under W = v v^H each quadratic
form is a trace, v^H A_{kk'} v = tr(W A_{kk'}), and G above is
S^H (R * W^T) S: ``_pair_traces`` gives the K x K traces of any Hermitian
W and ``_lifted_eval`` their per-symbol log terms with the row-softmax
weights.  Only true lifted W use them (``relaxed_asr``, the SCA iterates
and the paper-indexed ``f1``/``f2``/``grad_f1``), and every lifted pair
gradient comes from the weighted-sum kernel ``_weighted_pair_sum`` in
``smsec.optim``.  At W = v v^H the two forms agree to rounding.

The lifted log-sum-exps are evaluated with max-shifting so that high
signal-to-noise ratios do not underflow; a lifted W need not be PSD (FISTA
extrapolates), so a row's largest exponent is not known in advance.  The
vector ones need no shift: every exponent c ||t_k - t_k'||^2 (c < 0) has
an exactly zero diagonal in ``_sq_distances``, so each row sum is at least
1 and its log2 is finite and nonnegative, at every power of the sweep too.

The Monte-Carlo estimate rests on the same pairwise structure, and one
chunked evaluator, :func:`_mc_link`, serves the secrecy rate,
``mi_monte_carlo`` and SR-GD (``smsec.optim``).  A link is a
:class:`_SampledLink`: its whitened channel F (from
:func:`_whitened_channels`, which ``build_cache`` also uses, so SR-GD draws
on the cache's factors) and S frozen noise samples w_s.
:func:`_sampled_links` draws both links of an evaluation from one seed
(common random numbers); when both links have as many receive antennas the
two draws are equal, so the samples are drawn once and shared.  With
T = sqrt(p1) F diag(v) S (N x K) the noise-free received points t_k and
u = 2 Re(T^H W) (K x S) for the samples W = [w_1 ... w_S], the exponent of
pair (a, b) under sample s is

    E_sab = ||w_s||^2 - ||t_a - t_b + w_s||^2 = u_sb - u_sa - ||t_a - t_b||^2,

which separates: sum_b exp(E_sab) = exp(-u_sa) sum_b X_ab exp(u_sb) with
X_ab = exp(-||t_a - t_b||^2) (K x K, unit diagonal).  :func:`_mc_link`
forms X once per link evaluation and takes the samples in chunks, each as
wide as fits one K x chunk float array in ``_MC_CHUNK_BYTES`` (128 KiB),
so no caller's working set grows with S.  Each chunk (:func:`_mc_chunk`)
forms its columns of u and takes every row sum from them.  The factored
kernel shifts each sample by c_s = max_b u_sb, takes the exponentials
e = exp(u - c) and gets every row sum from one K x K by K x chunk matrix
product, as 1 + (X' e)_as / e_as with X' the off-diagonal part of X.  That
is O(S K^2 + S K N) time, O(chunk K + K^2) memory and O(S K + K^2)
exponentials instead of S K^2 (see Blanchard, Higham & Higham, "Accurately
computing the log-sum-exp and softmax functions", IMA J. Numer. Anal.
2021, for the shift).  The diagonal term is exactly 1 in floating point,
so every row sum is at least 1 and its log2 is finite and nonnegative.
For SR-GD the evaluator also sums the gradient's pair weights over the
chunks, from the same factors, into a workspace of one chunk's four
K x chunk arrays; no K x S array leaves it.

The factored form is exact only while each sample's spread
max_b u_sb - min_b u_sb stays below ``_MC_SPREAD_LIMIT`` (500, fixed by
the double-precision range; see its comment).  The spread grows with the
received amplitude: at the ``configs/benchmark.cfg`` shape the legitimate
link passes the limit at about 30-35 dB.  A chunk in which any sample
exceeds it takes the direct kernel ``_mc_exponentials`` on the same u,
which forms the chunk's K^2 exponentials E_sab <= ||w_s||^2 per sample by
one broadcast (O(chunk K^2) memory); it needs no shift, since for
CN(0, I_N) samples ||w_s||^2 stays far below the ~709 at which exp
overflows.  Each chunk picks its kernel by its own samples' spread, and
:func:`_mc_chunk` is the only place that chooses.  At K = 256 (4
antennas, 64-QAM) a chunk is 64 samples: at 30 dB, where every chunk is
direct, an SR-GD run peaks at about 34 MiB instead of 258 MiB with all
samples at once, and at 10 dB the narrow factored chunks make it about
1.2x slower than one pass.

``secrecy_rate_mc_estimate`` adds the standard error of the secrecy rate:
both links draw the same noise (common random numbers), so it is the
error of the paired per-sample differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
# c = -1/(2 ln 2): exp(-d / 2) = 2^(c d) for a squared distance d.
_EXP2_SCALE = -0.5 / _LN2

# Largest per-sample spread max_b u_sb - min_b u_sb (natural-log units) for
# which a chunk of :func:`_mc_link` takes the factored kernel.  Below it, in double
# precision, every shifted exponential e = exp(u - max u) is at least e^-500,
# a normal float; the reciprocal row sums 1 / (e + X e) <= e^500 keep SR-GD's
# matrix products finite; and a pair whose exp(-D_ab) underflows
# (D_ab > ~745) weighs less than e^(500 - 745) relative to its row sum.
_MC_SPREAD_LIMIT = 500.0

# Largest K x chunk float array, in bytes, that :func:`_mc_link` takes its
# samples in, for the secrecy rate, mi_monte_carlo and SR-GD alike: K = 8
# with up to 2048 samples is one chunk, so the configs/benchmark.cfg studies
# keep their arithmetic; at K = 64 a chunk is 256 samples, and at S = 4000
# the secrecy rate's tracemalloc peak is 0.6 MiB instead of 6.1 MiB in one
# piece; at K = 256 a chunk is 64 samples, and a direct-kernel chunk's
# (K, K, 64) exponentials (32 MiB) set SR-GD's peak at high SNR.
_MC_CHUNK_BYTES = 2**17


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
    s_k in antenna-major order.  ``factor_b``/``factor_e`` are the whitened
    channels F = Q^{-1/2} C (N x N_t) of the legitimate / eavesdropper link,
    from which every vector kernel (``asr``, ``link_rate_approx``, ASR-GD
    and the rounding sweep) forms the received points; they are the
    matrices the Monte-Carlo rate whitens with, bit for bit.  Everything
    else is derived from them at construction: ``factors`` stacks them as
    one (2, N_max, N_t) array [F_b; F_e], the link with fewer receive
    antennas padded by zero rows, so that ``asr`` and ASR-GD take both links
    in one stacked pass (a zero row adds an exact zero to every distance and
    every pull); ``gram_b``/``gram_e`` are the
    Grams R = F^H F = C^H Q^{-1} C (their Hermitian part,
    :func:`_factor_gram`), which only the lifted kernels of a matrix W take
    (``relaxed_asr``, SCA, ``f1``/``f2``/``grad_f1``), and ``signals_h`` is
    S^H, so that the pair kernels do not conjugate S on every call.
    ``dataclasses.replace`` with new factors therefore rederives the stack
    and both Grams.
    The pair matrix of symbols (k, k') on a link is R * conj(d d^H) with
    d = s_k - s_k'; the kernels never form it, and :meth:`pair_matrix`
    builds one on demand for checks.  The arrays
    take O(N_t K + N_t^2 + N N_t) memory.  Immutable after construction;
    safe to share across threads.
    """

    signals: np.ndarray
    p1: float
    n_tx: int
    M: int
    factor_b: np.ndarray
    factor_e: np.ndarray
    factors: np.ndarray = field(init=False, repr=False, compare=False)
    gram_b: np.ndarray = field(init=False, repr=False, compare=False)
    gram_e: np.ndarray = field(init=False, repr=False, compare=False)
    signals_h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        links = (self.factor_b, self.factor_e)
        n_rx = max(F.shape[0] for F in links)
        factors = np.zeros((2, n_rx, self.factor_b.shape[1]), dtype=np.result_type(*links))
        for out, F in zip(factors, links):
            out[: F.shape[0]] = F
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "gram_b", _factor_gram(self.factor_b))
        object.__setattr__(self, "gram_e", _factor_gram(self.factor_e))
        object.__setattr__(self, "signals_h", self.signals.conj().T)

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

    def factor(self, side: str) -> np.ndarray:
        """Whitened channel Q^{-1/2} C (N x N_t) of the ``side`` link."""
        if side == "bob":
            return self.factor_b
        if side == "eve":
            return self.factor_e
        raise ValueError(f"side must be 'bob' or 'eve', got {side!r}")

    def noise_dim(self, side: str) -> int:
        """min(N, N_t) of the ``side`` link, which bounds the rank of its Gram."""
        return min(self.factor(side).shape)

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


def _factor_gram(F: np.ndarray) -> np.ndarray:
    """Hermitian part of the Gram F^H F of a whitened channel F = Q^{-1/2} C."""
    gram = F.conj().T @ F
    return (gram + gram.conj().T) / 2


def _whitened_channels(
    channels: ChannelPair, proj: ANProjector, powers: PowerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Whitened channels Q^{-1/2} C (N x N_t) of the legitimate and eavesdropper links.

    Bob's interference-plus-noise covariance is exactly sigma_b^2 * I, since
    the AN projector nulls H; the eavesdropper's is the full AN-plus-noise
    covariance.  Both still go through :func:`whiten`, so a fully symmetric
    instance (G = H, equal noise) yields bit-identical factors, hence
    identical rates, on the two links.
    """
    q_b = powers.sigma2_b * np.eye(channels.H.shape[0])
    q_e = noise_covariance(channels.G, proj, powers.p2, powers.sigma2_e)
    return whiten(q_b) @ channels.H, whiten(q_e) @ channels.G


def build_cache(
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    codebook: SMCodebook,
) -> QuadFormCache:
    """Whitened channels of both links plus the SM signal matrix.

    The factors are :func:`_whitened_channels`' F, the matrices the
    Monte-Carlo rate draws its links with (:func:`_sampled_links`), so the
    closed-form and Monte-Carlo rates see the same received points; the
    cache derives each link's Gram from its factor, so every link is
    whitened once.
    """
    n_tx = codebook.n_tx
    if channels.H.shape[1] != n_tx:
        raise ValueError("channel and codebook transmit dimensions differ")
    factor_b, factor_e = _whitened_channels(channels, proj, powers)
    return QuadFormCache(
        signals=codebook.signal_matrix(),
        p1=powers.p1,
        n_tx=n_tx,
        M=codebook.M,
        factor_b=factor_b,
        factor_e=factor_e,
    )


def _row_log2sumexp2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log2 sum_k' 2^x_kk' (shape (K,)) and the row-softmax weights.

    One max-shifted exponential pass: with m the row maxima and
    e = 2^(x - m), the log terms are log2(rowsum e) + m and the weights
    e / rowsum e, which are the derivatives of each log term with respect
    to its row of x (up to the factor ln 2).  The weights are computed in
    place: ``x`` is overwritten and returned as the second value.
    """
    m = x.max(axis=1)
    x -= m[:, None]
    e = np.exp2(x, out=x)
    sums = e.sum(axis=1)
    e /= sums[:, None]
    logs = np.log2(sums, out=sums)
    logs += m
    return logs, e


def _pair_traces(cache: QuadFormCache, side: str, W: np.ndarray) -> np.ndarray:
    """Real traces tr(W A_{kk'}) for every pair, shape (..., K, K).

    tr(W A_{kk'}) = d^H (R * W^T) d with d = s_k - s_k', so all K^2 traces
    are pairwise distances under one K x K Gram matrix S^H (R * W^T) S.  A
    stack of matrices W (shape (B, N_t, N_t)) gives a stack of traces, each
    equal to the traces of its own matrix.  Each trace is
    Re(G_kk + G_k'k' - G_kk' - G_k'k) of that Gram G.
    """
    G = cache.signals_h @ (cache.gram(side) * W.swapaxes(-1, -2)) @ cache.signals
    g = G.diagonal(axis1=-2, axis2=-1).real
    out = g[..., :, None] + g[..., None, :]
    real = G.real
    out -= real + real.swapaxes(-1, -2)
    return out


def _lifted_eval(
    cache: QuadFormCache, side: str, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol lifted log terms on the ``side`` link at W and their weights.

    The log terms are log2 sum_k' exp(-p1 tr(W A_{kk'}) / 2), shape (K,); the
    weights are their row softmax, from which ``smsec.optim._lifted_grad``
    builds the gradient.  Both come from one pass of :func:`_row_log2sumexp2`,
    so the value and the gradient of a point cost one ``_pair_traces`` and
    one exponential.
    """
    x = _pair_traces(cache, side, W)
    x *= -0.5 * cache.p1
    x /= _LN2
    return _row_log2sumexp2(x)


def _sq_distances(T: np.ndarray, scale: float) -> np.ndarray:
    """scale * ||t_a - t_b||^2 for every pair of columns of T, shape (..., K, K).

    ``T`` holds points t_k as columns (N x K), with an optional leading
    stack axis that is carried through.  With the real stacked points
    Z = [Re T; Im T] (2N x K), G = Z^T Z (one real product) and sq = diag G,
    the result is scale sq_a + scale sq_b - 2 scale G_ab, formed in place.
    Its diagonal is exactly 0: -2 scale is an exact doubling of scale, so
    scale sq_a twice cancels -2 scale sq_a to the bit.  ``scale`` is
    ``_EXP2_SCALE`` for the base-2 exponents of the closed form and -1.0 for
    the natural ones of the Monte-Carlo kernels.  O(K^2 N) time.
    """
    Z = np.concatenate([T.real, T.imag], axis=-2)
    # A general product: BLAS's A^T A routine is slower at this size.
    x = Z.swapaxes(-1, -2).copy() @ Z
    half = scale * x.diagonal(0, -2, -1)  # taken before x is overwritten
    x *= -2.0 * scale
    x += half[..., None]
    x += half[..., None, :]
    return x


def _constellation_terms(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-point log2 sum_b exp(-||t_a - t_b||^2 / 2) of the columns of T, and the row softmax.

    ``T`` holds the received points t_k as columns (N x K), with an optional
    leading stack axis that is carried through (both links at once, as
    ``QuadFormCache.factors`` gives them).  The exponents
    in base 2 are x = :func:`_sq_distances` (T, c) with c = -1/(2 ln 2),
    whose diagonal is exactly 0, hence every row sum is at least 1 and no
    max shift is needed.  Returns the K log terms and the K x K weights
    2^x_ab / rowsum_a, which are the derivatives of each log term with
    respect to its row of x (up to the factor ln 2).  O(K^2 N) time.
    """
    x = _sq_distances(T, _EXP2_SCALE)
    e = np.exp2(x, out=x)
    sums = e.sum(axis=-1)
    e *= np.reciprocal(sums)[..., None]
    return np.log2(sums, out=sums), e


def relaxed_asr(cache: QuadFormCache, W: np.ndarray) -> float:
    """Lifted approximate secrecy rate at a Hermitian W (unclamped).

    Averages the per-pair difference of the eavesdropper and legitimate
    lifted log-sum-exp terms; at W = v v^H this equals ``asr(cache, v)`` to
    rounding.
    """
    inner_e, _ = _lifted_eval(cache, "eve", W)
    inner_b, _ = _lifted_eval(cache, "bob", W)
    return float(np.mean(inner_e - inner_b))


def link_rate_approx(cache: QuadFormCache, side: str, v: np.ndarray) -> float:
    """Closed-form link-rate approximation in bits (the paper's expression).

    log2(M*N_t) - (1/(M*N_t)) * sum_k log2 sum_k' exp(-p1 * v^H A_{kk'} v / 2),
    the log terms of :func:`_constellation_terms` at the link's received
    points, O(K^2 N + K N N_t) with K = M*N_t.

    Tracks the Monte-Carlo mutual information closely over the whole SNR
    range and is exact in both limits (0 and log2(M*N_t)), but it is not a
    one-sided bound: in the mid-SNR transition region it can overshoot the
    true value.  :func:`mi_lower_bound` is the bound.
    """
    v = np.asarray(v, dtype=complex)
    T = _noiseless_points(cache.factor(side), v, cache.signals, cache.p1)
    inner, _ = _constellation_terms(T)
    return float(np.log2(cache.n_signals) - np.mean(inner))


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
    offsets differ between the links when N_b != N_e.  It is the mean
    difference of the links' :func:`_constellation_terms` (eavesdropper
    minus legitimate), so the log2(M*N_t) terms cancel analytically, and it
    equals :func:`relaxed_asr` at W = v v^H to rounding.  Both links are
    taken in one stacked pass over ``cache.factors``, which costs
    O(K^2 N + K N N_t) per link with K = M*N_t.  With ``clamp`` the
    value is floored at 0, matching the reported (rather than optimized)
    secrecy rate.
    """
    v = np.asarray(v, dtype=complex)
    inner, _ = _constellation_terms(_noiseless_points(cache.factors, v, cache.signals, cache.p1))
    value = float(np.mean(inner[1] - inner[0]))
    return max(value, 0.0) if clamp else value


@dataclass(frozen=True)
class _SampledLink:
    """One link of a Monte-Carlo evaluation: whitened channel and frozen noise.

    ``F`` is the whitened channel (N x N_t) and ``stacked`` holds the samples
    w_s ~ CN(0, I_N) as the real 2N x S array [Re W; Im W], W = [w_1 ... w_S],
    that :func:`_mc_link` takes; :attr:`noise` gives them as complex rows.
    Only the real form is stored: the rate never reads the complex one, and
    holding both would raise its peak memory.  The secrecy rate,
    ``mi_monte_carlo`` and SR-GD all evaluate links drawn by :meth:`draw`.
    """

    F: np.ndarray
    stacked: np.ndarray

    @property
    def noise(self) -> np.ndarray:
        """The samples w_s as rows (S x N), copied from ``stacked`` bit for bit."""
        re, im = np.split(self.stacked, 2)
        noise = np.empty(re.T.shape, dtype=complex)
        noise.real, noise.imag = re.T, im.T
        return noise

    @classmethod
    def draw(cls, F: np.ndarray, rng: np.random.Generator, n_samp: int) -> "_SampledLink":
        """``n_samp`` samples from ``rng``: the real parts of all, then the imaginary parts."""
        if n_samp < 1:
            raise ValueError("n_samp must be >= 1")
        shape = (n_samp, F.shape[0])
        noise = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        return cls(F=F, stacked=np.concatenate([noise.real.T, noise.imag.T]))


def _sampled_links(
    F_b: np.ndarray, F_e: np.ndarray, n_samp: int, rng: np.random.Generator
) -> tuple[_SampledLink, _SampledLink]:
    """The legitimate and eavesdropper links, in that order, drawn with common random numbers.

    ``F_b`` and ``F_e`` are the links' whitened channels, as
    :func:`_whitened_channels` gives them and the cache holds them.  One
    seed from ``rng`` seeds both links' generators, so they draw the same
    stream of normals, which cancels shared sampling noise in the
    difference of their rates.  With as many receive antennas on both links
    the two draws are equal bit for bit, so the samples are drawn once and
    the eavesdropper's link holds the very ``stacked`` array of the
    legitimate one; otherwise each link draws its own, from the same seed.
    """
    seed = int(rng.integers(0, 2**63))
    bob = _SampledLink.draw(F_b, np.random.default_rng(seed), n_samp)
    if F_e.shape[0] == F_b.shape[0]:
        return bob, _SampledLink(F=F_e, stacked=bob.stacked)
    return bob, _SampledLink.draw(F_e, np.random.default_rng(seed), n_samp)


def _mc_exponentials(T: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp(E_sab) for every symbol pair and noise sample, indexed [a, b, s].

    The direct kernel, which :func:`_mc_link` takes beyond
    :data:`_MC_SPREAD_LIMIT`.  ``T`` holds the noise-free received points
    t_k as columns (N x K) and ``u`` is 2 Re(T^H W) (K x S) for the samples
    W.  The exponent is
    E_sab = ||w_s||^2 - ||t_a - t_b + w_s||^2 = u_sb - u_sa - ||t_a - t_b||^2,
    the distances from :func:`_sq_distances`.  It is bounded above by
    ||w_s||^2, so for CN(0, I) samples exp cannot overflow and needs no max
    shift; the diagonal E_saa is exactly 0, so each row sum over b is at
    least 1.  The samples are the innermost axis, so every elementwise pass
    and every sum over a or b runs along contiguous rows of length S however
    small K is.
    """
    expo = u[None, :, :] - u[:, None, :]
    expo += _sq_distances(T, -1.0)[:, :, None]
    return np.exp(expo, out=expo)


def _mc_chunk_width(K: int, n_samp: int) -> int:
    """Samples per chunk of :func:`_mc_link`: one K x chunk float array fits the budget."""
    return min(n_samp, max(1, _MC_CHUNK_BYTES // (8 * K)))


def _mc_link(
    T: np.ndarray,
    link: _SampledLink,
    z: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray | tuple[float, np.ndarray, np.ndarray]:
    """Sampled mutual information of one link at its received points, in sample chunks.

    ``T`` = sqrt(p1) F diag(v) S holds the noise-free received points of
    ``link`` as columns (N x K).  With inner_as = log2 sum_b exp(E_sab)
    (K x S), the link's estimate is log2 K - mean(inner).  X = exp(-D),
    D_ab = ||t_a - t_b||^2 (:func:`_sq_distances`), with its unit diagonal
    zeroed, is formed once; the samples are then taken in chunks of
    :func:`_mc_chunk_width` samples, each by :func:`_mc_chunk`, which picks
    the factored or the direct kernel by the chunk's own spread.  Each
    chunk's arrays are freed before the next chunk's are allocated, so the
    working set does not grow with S.

    Without ``z`` returns the per-sample estimates (S,), log2 K minus the
    mean of each sample's column of inner.  ``z`` is SR-GD's samples
    z_s = F^H w_s as the real S x 2N_t array [Re z, Im z]; with it, returns
    the link's estimate, log2 K minus the sum of all K S log terms divided by
    K S, as if all samples were taken at once, and
    SR-GD's pair weights summed over the chunks: P (K x K), the summed
    off-diagonal softmax weights of E over the samples, and
    M = sum_s (r_s - c_s) z_s (K x 2N_t), r and c the row and column sums
    of each sample's weights.  ``work``, a float array of shape
    (4, K, :func:`_mc_chunk_width`), holds each chunk's four K x chunk
    arrays instead of new ones, with the same bits.  With one chunk
    (K = 8 with S up to 2048) every result is that of the whole sample set
    bit for bit; with several, BLAS may block the narrower products
    differently, which moves a result by a few ulps.
    """
    K, n_samp = T.shape[1], link.stacked.shape[1]
    width = _mc_chunk_width(K, n_samp)
    chunks = [slice(start, start + width) for start in range(0, n_samp, width)]
    points = (2 * np.concatenate([T.real, T.imag])).T
    X = _sq_distances(T, -1.0)
    np.exp(X, out=X)
    np.fill_diagonal(X, 0.0)
    if z is None:
        return np.concatenate([_mc_chunk(T, points, X, link.stacked[:, c], work) for c in chunks])
    P, M = np.zeros((K, K)), np.zeros((K, z.shape[1]))
    total = sum(_mc_chunk(T, points, X, link.stacked[:, c], work, (z[c], P, M)) for c in chunks)
    return np.log2(K) - total / (K * n_samp), P, M


def _mc_chunk(
    T: np.ndarray,
    points: np.ndarray,
    X: np.ndarray,
    stacked: np.ndarray,
    work: np.ndarray | None,
    weights: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray | float:
    """One sample chunk of :func:`_mc_link`, by the kernel its samples' spread picks.

    ``points`` is (2 [Re T; Im T])^T, ``X`` the zero-diagonal exp(-D) and
    ``stacked`` the chunk's samples (2N x w), so u = 2 Re(T^H W) (K x w) is
    one real product.  While every sample's spread
    max_b u_sb - min_b u_sb is at most :data:`_MC_SPREAD_LIMIT` the row sums
    come from the factored kernel: with c_s = max_b u_sb and e = exp(u - c),

        sum_b exp(E_sab) = (e_as + (X e)_as) / e_as = 1 + (X e)_as / e_as,

    O(K w) exponentials and one K x K by K x w product.  Beyond the limit
    they come from :func:`_mc_exponentials` on the same u.  On both paths
    the diagonal term is exactly 1: with no signal (T = 0) and K a power of
    two every log term is log2(K) bit for bit.

    Without ``weights`` returns the chunk's per-sample estimates (w,).
    With ``weights`` = (z, P, M), z the chunk's rows of SR-GD's samples,
    returns the sum of the chunk's log terms and adds its pair weights to P
    and M in place.  From the factors, with g = 1 / (e + X e) the
    off-diagonal weights are X_ab e_bs g_as, so their sum over samples is
    X * (g e^T), their row sums are g * (X e) and, X being symmetric, their
    column sums are e * (X g); the zero-diagonal X for the row sums avoids
    forming 1 - (a weight near 1).  With ``work`` the factored kernel's four
    K x w arrays (u and e, X e, inner then g, and r - c) are contiguous
    views of its slots, so the log terms are summed before g reuses
    inner's slot; the direct kernel writes u and r - c there.
    """
    K, width = X.shape[0], stacked.shape[1]
    slots = [None] * 4
    if work is not None:
        slots = work.reshape(4, -1)[:, : K * width].reshape(4, K, width)
    u = np.matmul(points, stacked, out=slots[0])
    top = u.max(axis=0)
    direct = np.max(top - u.min(axis=0)) > _MC_SPREAD_LIMIT
    if direct:
        expo = _mc_exponentials(T, u)
        sums = expo.sum(axis=1)
        inner = np.log2(sums)
    else:
        u -= top
        e = np.exp(u, out=u)
        Xe = np.matmul(X, e, out=slots[1])
        inner = np.divide(Xe, e, out=slots[2])
        inner += 1.0
        np.log2(inner, out=inner)
    if weights is None:
        return np.log2(K) - np.mean(inner, axis=0)
    z, P, M = weights
    total = np.sum(inner)
    if direct:
        expo /= sums[:, None, :]  # the softmax weights, indexed [a, b, s]
        expo[np.arange(K), np.arange(K)] = 0.0
        P += expo.sum(axis=2)
        r_minus_c = np.subtract(expo.sum(axis=1), expo.sum(axis=0), out=slots[3])
    else:
        g = np.add(e, Xe, out=slots[2])
        np.reciprocal(g, out=g)
        r_minus_c = np.matmul(X, g, out=slots[3])
        r_minus_c *= e
        Xe *= g
        np.subtract(Xe, r_minus_c, out=r_minus_c)
        P += X * (g @ e.T)
    M += r_minus_c @ z
    return total


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
    zero by sampling noise alone).  The samples come from ``rng`` itself
    (:meth:`_SampledLink.draw`), and :func:`_mc_link` evaluates the link as
    it does each link of the secrecy rate.
    """
    link = _SampledLink.draw(whitening @ channel, rng, n_samp)
    T = _noiseless_points(link.F, np.asarray(v, dtype=complex), codebook.signal_matrix(), p1)
    per_sample = _mc_link(T, link)
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
    draws (:func:`_sampled_links`, as SR-GD draws its frozen samples), so it
    is the error of the unfloored difference of the means.  The per-sample
    values come from :func:`_mc_link`, in chunks of bounded memory.
    """
    v = np.asarray(v, dtype=complex)
    S = codebook.signal_matrix()
    links = _sampled_links(*_whitened_channels(channels, proj, powers), n_samp, rng)
    per_b, per_e = (_mc_link(_noiseless_points(link.F, v, S, powers.p1), link) for link in links)
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
