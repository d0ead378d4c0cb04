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
and the module needs only numpy.

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
code path serves the secrecy rate, ``mi_monte_carlo`` and SR-GD
(``smsec.optim``).  A link is a :class:`_SampledLink`: its whitened channel
F (from :func:`_whitened_channels`, which ``build_cache`` also uses) and S
frozen noise samples w_s.  :func:`_sampled_links` draws both links of an
evaluation from one seed (common random numbers).  With
T = sqrt(p1) F diag(v) S (N x K) the noise-free received points t_k and
u = 2 Re(T^H W) (K x S) for the samples W = [w_1 ... w_S], the exponent of
pair (a, b) under sample s is

    E_sab = ||w_s||^2 - ||t_a - t_b + w_s||^2 = u_sb - u_sa - ||t_a - t_b||^2,

which separates: sum_b exp(E_sab) = exp(-u_sa) sum_b X_ab exp(u_sb) with
X_ab = exp(-||t_a - t_b||^2) (K x K, unit diagonal).  :func:`_mc_link`
forms u once per link evaluation and takes every row sum from it.  The
factored kernel shifts each sample by c_s = max_b u_sb, takes the S K
exponentials e = exp(u - c) and gets every row sum from one K x K by
K x S matrix product, as 1 + (X' e)_as / e_as with X' the off-diagonal
part of X.  That is O(S K^2 + S K N) time, O(S K + K^2) memory and
O(S K + K^2) exponentials instead of S K^2 (see Blanchard, Higham &
Higham, "Accurately computing the log-sum-exp and softmax functions",
IMA J. Numer. Anal. 2021, for the shift).  The diagonal term is exactly 1
in floating point, so every row sum is at least 1 and its log2 is finite
and nonnegative.  SR-GD's gradient weights come from the same factors, by
the same function.

The factored form is exact only while each sample's spread
max_b u_sb - min_b u_sb stays below ``_MC_SPREAD_LIMIT`` (500, fixed by
the double-precision range; see its comment).  The spread grows with the
received amplitude: at the ``configs/benchmark.cfg`` shape the legitimate
link passes the limit at about 30-35 dB.  A call in which any sample
exceeds it takes the direct kernel ``_mc_exponentials`` on the same u,
which forms all S K^2 exponentials E_sab <= ||w_s||^2 by one broadcast
(O(S K^2) memory); it needs no shift, since for CN(0, I_N) samples
||w_s||^2 stays far below the ~709 at which exp overflows.
:func:`_mc_link` is the only place that chooses between the two kernels.

``secrecy_rate_mc_estimate`` adds the standard error of the secrecy rate:
both links draw the same noise (common random numbers), so it is the
error of the paired per-sample differences.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
# which :func:`_mc_link` takes the factored kernel.  Below it, in double
# precision, every shifted exponential e = exp(u - max u) is at least e^-500,
# a normal float; the reciprocal row sums 1 / (e + X e) <= e^500 keep SR-GD's
# matrix products finite; and a pair whose exp(-D_ab) underflows
# (D_ab > ~745) weighs less than e^(500 - 745) relative to its row sum.
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
    s_k in antenna-major order.  ``factor_b``/``factor_e`` are the whitened
    channels F = Q^{-1/2} C (N x N_t) of the legitimate / eavesdropper link,
    from which every vector kernel (``asr``, ``link_rate_approx``, ASR-GD
    and the rounding sweep) forms the received points; they are the
    matrices the Monte-Carlo rate whitens with, bit for bit.  Everything
    else is derived from them at construction: ``gram_b``/``gram_e`` are the
    Grams R = F^H F = C^H Q^{-1} C (their Hermitian part,
    :func:`_factor_gram`), which only the lifted kernels of a matrix W take
    (``relaxed_asr``, SCA, ``f1``/``f2``/``grad_f1``), and ``signals_h`` is
    S^H, so that the pair kernels do not conjugate S on every call.
    ``dataclasses.replace`` with new factors therefore rederives both Grams.
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
    gram_b: np.ndarray = field(init=False, repr=False, compare=False)
    gram_e: np.ndarray = field(init=False, repr=False, compare=False)
    signals_h: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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

    ``T`` holds the received points t_k as columns (N x K).  The exponents
    in base 2 are x = :func:`_sq_distances` (T, c) with c = -1/(2 ln 2),
    whose diagonal is exactly 0, hence every row sum is at least 1 and no
    max shift is needed.  Returns the K log terms and the K x K weights
    2^x_ab / rowsum_a, which are the derivatives of each log term with
    respect to its row of x (up to the factor ln 2).  O(K^2 N) time.
    """
    x = _sq_distances(T, _EXP2_SCALE)
    e = np.exp2(x, out=x)
    sums = e.sum(axis=1)
    e *= np.reciprocal(sums)[:, None]
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
    equals :func:`relaxed_asr` at W = v v^H to rounding.  One evaluation
    costs O(K^2 N + K N N_t) per link with K = M*N_t.  With ``clamp`` the
    value is floored at 0, matching the reported (rather than optimized)
    secrecy rate.
    """
    v = np.asarray(v, dtype=complex)
    inner_b, _ = _constellation_terms(
        _noiseless_points(cache.factor_b, v, cache.signals, cache.p1)
    )
    inner_e, _ = _constellation_terms(
        _noiseless_points(cache.factor_e, v, cache.signals, cache.p1)
    )
    value = float(np.mean(inner_e - inner_b))
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
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    n_samp: int,
    rng: np.random.Generator,
) -> Iterator[_SampledLink]:
    """The legitimate and eavesdropper links, in that order, drawn with common random numbers.

    One seed from ``rng`` seeds both links' generators, so they draw the
    same stream of normals, which cancels shared sampling noise in the
    difference of their rates.  The channels come from
    :func:`_whitened_channels`, as the cache's do.  Each link is drawn when
    it is taken, so a caller that evaluates one link before it takes the
    next holds one link's samples at a time, as the reported rate does.
    """
    seed = int(rng.integers(0, 2**63))
    for F in _whitened_channels(channels, proj, powers):
        yield _SampledLink.draw(F, np.random.default_rng(seed), n_samp)


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


def _mc_link(
    T: np.ndarray,
    link: _SampledLink,
    axis: int | None = 0,
    work: np.ndarray | None = None,
    weights: bool = False,
) -> tuple[np.ndarray | float, tuple[np.ndarray, np.ndarray] | None]:
    """Sampled mutual information of one link at its received points, by either kernel.

    ``T`` = sqrt(p1) F diag(v) S holds the noise-free received points of
    ``link`` as columns (N x K).  With inner_as = log2 sum_b exp(E_sab)
    (K x S), returns log2 K - mean(inner, ``axis``): the per-sample estimates
    (S,) for axis 0, the link's estimate for axis None.  u = 2 Re(T^H W) is
    formed once, as one real product with ``link.stacked``.  While every
    sample's spread max_b u_sb - min_b u_sb is at most
    :data:`_MC_SPREAD_LIMIT` the row sums come from the factored kernel:
    with c_s = max_b u_sb, e = exp(u - c) and X = exp(-D),
    D_ab = ||t_a - t_b||^2 (:func:`_sq_distances`), with its unit diagonal
    zeroed,

        sum_b exp(E_sab) = (e_as + (X e)_as) / e_as = 1 + (X e)_as / e_as,

    O(K S) exponentials and one K x K by K x S product.  Beyond the limit
    they come from :func:`_mc_exponentials` on the same u.  On both paths
    the diagonal term is exactly 1: with no signal (T = 0) and K a power of
    two every entry of inner is log2(K) bit for bit.

    The second value is None unless ``weights``, and then SR-GD's pair
    weights: the summed off-diagonal softmax weights of E over the samples
    (K x K) and their row-minus-column sums per sample (K x S).  From the
    factors, with g = 1 / (e + X e) the off-diagonal weights are
    X_ab e_bs g_as, so their sum over samples is X * (g e^T), their row sums
    are g * (X e) and, X being symmetric, their column sums are e * (X g);
    the zero-diagonal X for the row sums avoids forming 1 - (a weight near
    1).  With ``work``, a float array of shape (4, K, S), u and e, X e,
    inner then g, and r - c are written to its slots instead of new arrays,
    with the same bits, so the mean is taken before g reuses inner's slot.
    """
    K = T.shape[1]
    u_out, xe_out, inner_out, rc_out = (None,) * 4 if work is None else work
    u = np.matmul((2 * np.concatenate([T.real, T.imag])).T, link.stacked, out=u_out)
    top = u.max(axis=0)
    if np.max(top - u.min(axis=0)) > _MC_SPREAD_LIMIT:
        expo = _mc_exponentials(T, u)
        sums = expo.sum(axis=1)
        mi = np.log2(K) - np.mean(np.log2(sums), axis=axis)
        if not weights:
            return mi, None
        expo /= sums[:, None, :]  # the softmax weights, indexed [a, b, s]
        expo[np.arange(K), np.arange(K)] = 0.0
        return mi, (expo.sum(axis=2), expo.sum(axis=1) - expo.sum(axis=0))
    u -= top
    e = np.exp(u, out=u)
    X = np.exp(_sq_distances(T, -1.0))
    np.fill_diagonal(X, 0.0)
    Xe = np.matmul(X, e, out=xe_out)
    inner = np.divide(Xe, e, out=inner_out)
    inner += 1.0
    mi = np.log2(K) - np.mean(np.log2(inner, out=inner), axis=axis)
    if not weights:
        return mi, None
    g = np.add(e, Xe, out=inner_out)
    np.reciprocal(g, out=g)
    r_minus_c = np.matmul(X, g, out=rc_out)
    r_minus_c *= e
    Xe *= g
    np.subtract(Xe, r_minus_c, out=r_minus_c)
    return mi, (X * (g @ e.T), r_minus_c)


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
    per_sample, _ = _mc_link(T, link)
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
    is the error of the unfloored difference of the means.
    """
    v = np.asarray(v, dtype=complex)
    per_b, per_e = (
        _mc_link(_noiseless_points(link.F, v, codebook.signal_matrix(), powers.p1), link)[0]
        for link in _sampled_links(channels, proj, powers, n_samp, rng)
    )
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
