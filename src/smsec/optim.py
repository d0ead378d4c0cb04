"""Precoder optimizers for the approximate and Monte-Carlo secrecy rates.

Three methods under the power constraint tr(v v^H) <= N_t:

* :func:`max_asr_gd`: gradient ascent on the closed-form approximate
  secrecy rate, with step-size halving on non-improving steps.  Every step
  is renormalized onto the power sphere tr(v v^H) = N_t, so the search
  never tries a lower power.
* :func:`max_sr_gd`: the same ascent loop (on the same sphere) driven by
  the Monte-Carlo secrecy rate under frozen noise samples (common random
  numbers), so the objective and its sample-average gradient are
  deterministic within a run.
* :func:`max_asr_sca`: lift to W = v v^H, drop the rank-one constraint,
  and maximize the resulting difference of convex log-sum-exp terms by
  successive convex approximation: linearize the convex (eavesdropper)
  term at the current iterate and solve each concave subproblem by
  accelerated projected gradient ascent (FISTA with backtracking and
  restart) over the spectrahedron {W Hermitian, W >= 0, tr(W) <= N_t},
  the whole ball, evaluating each point's surrogate value and gradient
  weights from one exponential pass (:func:`_lifted_eval`).
  :func:`power_sweep_rounding` recovers a rank-one precoder from the
  solution by Gaussian randomization with a transmit-power line search.

The closed-form objectives, their gradients and the lifted terms never form
a pair matrix A_{kk'}: each is a pairwise-distance or weighted-sum identity
over K x K Gram matrices of the SM signal matrix S (see ``smsec.metrics``).

Objectives are optimized unclamped; the [.]^+ floor applies only to
reported secrecy rates (clamping would kill gradients wherever the
eavesdropper is momentarily ahead).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .metrics import (
    _complex_noise,
    _link_pair_setup,
    _mc_exponentials,
    _mc_factors,
    _pair_quadforms,
    _pairwise,
    _stacked_noise,
    QuadFormCache,
    asr,
    log2sumexp2,
)
from .model import (
    ANProjector,
    ChannelPair,
    PowerConfig,
    SMCodebook,
    _noiseless_points,
)

__all__ = [
    "GDParams",
    "SCAParams",
    "OptTrace",
    "default_precoder",
    "random_precoder",
    "asr_gradient",
    "max_asr_gd",
    "max_sr_gd",
    "f1",
    "f2",
    "grad_f1",
    "project_spectrahedron",
    "solve_sca_subproblem",
    "relaxed_asr",
    "max_asr_sca",
    "power_sweep_rounding",
]

_LN2 = math.log(2.0)

# Smallest backtracking step before a line search gives up.
_STEP_FLOOR = 1e-14

# Factor the SCA inner solver's step grows by after an improving step.
_STEP_GROWTH = 1.25

# Transmit powers N_t/n, 2 N_t/n, ..., N_t that rounding sweeps per direction.
_POWER_GRID = 64


def _is_integer(x) -> bool:
    """Whether x is an integer value (a bool is not, a float is not even if whole)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class GDParams:
    """Gradient-ascent controls: initial step, halving floor, iteration cap.

    The step also halves after an accepted step that improves the objective
    by less than ``min_improve``; without a plateau rule the fixed-step
    ascent can crawl along flat ridges for hundreds of iterations, never
    triggering the rejection path that shrinks the step.
    """

    step_init: float = 0.5
    step_min: float = 0.01
    max_iters: int = 100
    min_improve: float = 5e-3

    def __post_init__(self):
        # Written so that nan fails every check: a nan or infinite step
        # never falls below step_min, and the ascent loop would not end.
        if not (self.step_init > 0 and self.step_min > 0):
            raise ValueError("step sizes must be positive")
        if not self.step_min < self.step_init < math.inf:
            raise ValueError("step_min must be below step_init, which must be finite")
        if not _is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not self.min_improve >= 0:
            raise ValueError("min_improve must be nonnegative")


@dataclass(frozen=True)
class SCAParams:
    """Successive-convex-approximation controls.

    ``tol`` stops the outer loop once consecutive relaxed objectives agree;
    ``inner_tol``/``inner_max`` bound the accelerated projected-gradient
    subproblem solver; ``rank_tol`` is the eigenvalue-ratio threshold below which the
    lifted solution counts as rank one; ``n_randomizations`` is the number
    of Gaussian rounding candidates otherwise.
    """

    tol: float = 0.001
    max_outer: int = 50
    inner_tol: float = 1e-8
    inner_max: int = 500
    rank_tol: float = 1e-3
    n_randomizations: int = 100

    def __post_init__(self):
        if not all(t > 0 for t in (self.tol, self.inner_tol, self.rank_tol)):
            raise ValueError("tolerances must be positive")
        counts = (self.max_outer, self.inner_max, self.n_randomizations)
        if not all(_is_integer(count) for count in counts):
            raise ValueError(f"iteration counts must be integers, got {counts!r}")
        if self.max_outer < 1 or self.inner_max < 1 or self.n_randomizations < 0:
            raise ValueError("iteration counts must be positive")


@dataclass(frozen=True)
class OptTrace:
    """Optimizer run record: accepted-objective history and the final iterate.

    ``stop_reason`` says why the run ended: ``"step_floor"`` (the ascent
    step fell below ``step_min``), ``"tol"`` (consecutive SCA objectives
    agreed within ``tol``) or ``"max_iters"`` (the iteration cap).
    ``inner_steps`` is the inner work: for SCA the spectrahedron projections
    summed over all subproblems, 0 for the gradient methods.  ``wall_s`` is
    the run's wall-clock time in seconds (``time.perf_counter``), 0.0 for a
    trace not produced by an optimizer.
    """

    objective_history: list[float]
    iterations: int
    converged: bool
    final_vector: np.ndarray
    stop_reason: str | None = None
    inner_steps: int = 0
    wall_s: float = 0.0


def default_precoder(n_tx: int) -> np.ndarray:
    """All-ones precoding vector (tr(v v^H) = N_t); the no-precoding baseline."""
    return np.ones(n_tx, dtype=complex)


def random_precoder(n_tx: int, rng: np.random.Generator) -> np.ndarray:
    """Random complex Gaussian precoder rescaled onto the power sphere."""
    v = (rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)) / np.sqrt(2)
    return _renormalize(v, n_tx)


def _renormalize(v: np.ndarray, n_tx: int) -> np.ndarray:
    """Rescale onto the power sphere tr(v v^H) = N_t."""
    power = float(np.sum(np.abs(v) ** 2))
    if power == 0.0:
        raise ValueError("cannot renormalize the zero vector")
    return v * np.sqrt(n_tx / power)


def _check_start(v0: np.ndarray, n_tx: int) -> np.ndarray:
    v0 = np.asarray(v0, dtype=complex)
    if len(v0) != n_tx:
        raise ValueError(f"start vector must have length {n_tx}")
    power = float(np.sum(np.abs(v0) ** 2))
    if power == 0.0:
        raise ValueError("start vector must be nonzero (the origin is stationary)")
    if power > n_tx * (1 + 1e-9):
        raise ValueError("start vector violates the power constraint tr(v v^H) <= N_t")
    return v0


def asr_gradient(cache: QuadFormCache, v: np.ndarray) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of the unclamped approximate secrecy rate.

    A perturbation d changes the objective by 2*Re(grad^H d) to first
    order.  Both links' terms are softmax-weighted sums of the pair
    matrices applied to v, taken through the links' K x K Gram matrices
    (see :func:`_weighted_pair_apply`), so evaluation is
    O(K N_t^2 + K^2 N_t) with K = M*N_t.
    """
    v = np.asarray(v, dtype=complex)
    p1 = cache.p1
    term_b = _weighted_pair_apply(cache, "bob", v)
    term_e = _weighted_pair_apply(cache, "eve", v)
    return (p1 / (2 * _LN2 * cache.n_signals)) * (term_b - term_e)


def _row_log2sumexp2(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row log2 sum_k' 2^x_kk' (shape (K,)) and the row-softmax weights.

    One max-shifted exponential pass: with m the row maxima and
    e = 2^(x - m), the log terms are log2(rowsum e) + m and the weights
    e / rowsum e, which are the derivatives of each log term with respect
    to its row of x (up to the factor ln 2).
    """
    m = np.max(x, axis=1, keepdims=True)
    e = np.exp2(x - m)
    sums = e.sum(axis=1)
    e /= sums[:, None]
    return np.log2(sums) + m[:, 0], e


def _off_diagonal(P: np.ndarray) -> np.ndarray:
    """P with a zero diagonal.

    Pairs (k, k) have A_kk = 0, so dropping their weight changes no sum over
    pairs; it spares the Gram identities a cancellation of two O(1) terms
    when the softmax weight sits on the diagonal (high SNR).
    """
    P = P.copy()
    np.fill_diagonal(P, 0.0)
    return P


def _pair_apply(S: np.ndarray, Y: np.ndarray, P: np.ndarray) -> np.ndarray:
    """sum_{kk'} P_kk' conj(s_k - s_k') * (y_k - y_k') for a K x K weight P, shape (N_t,).

    ``S`` and ``Y`` are N_t x K with columns s_k and y_k.  Expanding the
    pairs gives
    (conj(S) * Y) (r + c) - rowsum(conj(S) * (Y P^T)) - rowsum(Y * (conj(S) P^T))
    with r, c the row and column sums of P.
    """
    Sc = S.conj()
    return (
        (Sc * Y) @ (P.sum(axis=1) + P.sum(axis=0))
        - np.sum(Sc * (Y @ P.T), axis=1)
        - np.sum(Y * (Sc @ P.T), axis=1)
    )


def _weighted_pair_apply(cache: QuadFormCache, side: str, v: np.ndarray) -> np.ndarray:
    """sum_{kk'} P_kk' A_kk' v with P the row softmax of -p1 v^H A v / 2.

    With X = diag(v) S and Y = R X, (A_kk' v)_i = conj(d_i) (Y_ik - Y_ik')
    for d = s_k - s_k', so the sum is :func:`_pair_apply` of (S, Y, P).
    """
    S = cache.signals
    X = v[:, None] * S
    Y = cache.gram(side) @ X
    q = _pairwise(X.conj().T @ Y)
    _, P = _row_log2sumexp2(-0.5 * cache.p1 * q / _LN2)
    return _pair_apply(S, Y, _off_diagonal(P))


def _ascend(value_and_grad, v0: np.ndarray, n_tx: int, params: GDParams) -> OptTrace:
    """Shared ascent loop: step, renormalize, accept if not worse, else halve.

    ``value_and_grad(v)`` returns the objective and its conjugate gradient
    at v; it is called once per candidate, so an accepted step already
    holds the gradient of the next iterate.  Steps that decrease the
    objective are rejected and halve the step; accepted steps that improve
    by less than ``min_improve`` also halve it (plateau rule), so the run
    terminates once progress stalls.  The step size only ever shrinks; the
    run stops when it falls below ``step_min`` (converged, stop reason
    ``"step_floor"``) or after ``max_iters`` accepted updates (``"max_iters"``).
    ``iterations`` counts accepted updates.
    """
    start = perf_counter()
    v = _check_start(v0, n_tx)
    mu = params.step_init
    value, grad = value_and_grad(v)
    history = [value]
    iterations = 0
    while True:
        if mu < params.step_min:
            stop_reason = "step_floor"
            break
        if iterations >= params.max_iters:
            stop_reason = "max_iters"
            break
        candidate = _renormalize(v + mu * grad, n_tx)
        value, candidate_grad = value_and_grad(candidate)
        if value >= history[-1]:
            v, grad = candidate, candidate_grad
            history.append(value)
            iterations += 1
            if value - history[-2] < params.min_improve:
                mu /= 2
        else:
            mu /= 2
    return OptTrace(
        objective_history=history,
        iterations=iterations,
        converged=stop_reason == "step_floor",
        final_vector=v,
        stop_reason=stop_reason,
        wall_s=perf_counter() - start,
    )


def max_asr_gd(cache: QuadFormCache, v0: np.ndarray, params: GDParams) -> OptTrace:
    """Gradient ascent on the approximate secrecy rate (unclamped).

    Accepted-iterate objectives are non-decreasing by construction; the
    final vector satisfies tr(v v^H) <= N_t.
    """
    return _ascend(
        lambda v: (asr(cache, v, clamp=False), asr_gradient(cache, v)),
        v0,
        cache.n_tx,
        params,
    )


@dataclass(frozen=True)
class _FrozenLink:
    """One link of :class:`_SampledSecrecyObjective`: whitened channel and frozen noise.

    ``F`` is the whitened channel (N x N_t), ``noise`` the samples w_s as
    rows (S x N), ``stacked`` the same samples as the real (2N x S) array
    the factored kernel takes, and ``z`` the rows z_s = F^H w_s as the real
    S x 2N_t array [Re z, Im z], so the gradient contracts it with one real
    matrix product.
    """

    F: np.ndarray
    noise: np.ndarray
    stacked: np.ndarray
    z: np.ndarray

    @classmethod
    def draw(cls, F: np.ndarray, rng: np.random.Generator, n_samp: int) -> "_FrozenLink":
        noise = _complex_noise(rng, n_samp, F.shape[0])
        z = noise @ F.conj()
        return cls(F=F, noise=noise, stacked=_stacked_noise(noise), z=np.hstack([z.real, z.imag]))


def _direct_pair_weights(
    T: np.ndarray, noise: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log2 row sums (K x S), summed pair weights (K x K) and row-minus-column sums (K x S).

    From the direct kernel :func:`~smsec.metrics._mc_exponentials`: the
    pair weights are the row softmax of E_sab with the diagonal zeroed.
    """
    weights = _mc_exponentials(T, noise)  # exp(E), indexed [a, b, s]
    sums = weights.sum(axis=1)  # (K, S)
    weights /= sums[:, None, :]
    diag = np.arange(T.shape[1])
    weights[diag, diag] = 0.0
    return np.log2(sums), weights.sum(axis=2), weights.sum(axis=1) - weights.sum(axis=0)


def _factored_pair_weights(
    e: np.ndarray, X: np.ndarray, Xe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pair-weight sums of :func:`_direct_pair_weights` from ``_mc_factors``' factors.

    With g = 1 / (e + X e) the off-diagonal weights are X_ab e_bs g_as, so
    their sum over samples is X * (g e^T), their row sums are g * (X e) and,
    X being symmetric, their column sums are e * (X g).  Using the zero-
    diagonal X for the row sums avoids forming 1 - (a weight near 1).
    """
    g = np.add(e, Xe)
    np.reciprocal(g, out=g)
    r_minus_c = e * (X @ g)
    np.subtract(Xe * g, r_minus_c, out=r_minus_c)
    return X * (g @ e.T), r_minus_c


class _SampledSecrecyObjective:
    """Monte-Carlo secrecy rate with frozen noise: deterministic in v.

    Freezes ``n_samp`` whitened-noise realizations per link (identically
    seeded on both links) so that repeated evaluations are a pure function
    of the precoder, making the ascent loop's accept/reject decisions and
    finite-difference checks well defined.  ``bob`` and ``eve`` are the
    links' :class:`_FrozenLink` records; :meth:`value_and_gradient`
    evaluates both with the Monte-Carlo pair kernel of ``smsec.metrics``
    (factored, or direct beyond its spread limit) and takes the gradient's
    pair weights from the same factors.
    """

    def __init__(
        self,
        channels: ChannelPair,
        proj: ANProjector,
        powers: PowerConfig,
        codebook: SMCodebook,
        n_samp: int,
        rng: np.random.Generator,
    ):
        if n_samp < 1:
            raise ValueError("n_samp must be >= 1")
        self.signals = codebook.signal_matrix()
        self.p1 = powers.p1
        wh_b, wh_e, rng_b, rng_e = _link_pair_setup(channels, proj, powers, rng)
        self.bob = _FrozenLink.draw(wh_b @ channels.H, rng_b, n_samp)
        self.eve = _FrozenLink.draw(wh_e @ channels.G, rng_e, n_samp)

    def value_and_gradient(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """Sampled secrecy rate I(bob) - I(eve) at v and its conjugate gradient."""
        v = np.asarray(v, dtype=complex)
        mi_b, g_b = self._link(self.bob, v)
        mi_e, g_e = self._link(self.eve, v)
        return float(mi_b - mi_e), g_b - g_e

    def _link(self, link: _FrozenLink, v: np.ndarray) -> tuple[float, np.ndarray]:
        # Sampled MI of one link and its d/d(conj v).  With d = s_a - s_b the
        # exponent E_sab = -||alpha||^2 - 2 Re(alpha^H w_s) of
        # alpha = sqrt(p1) F diag(d) v has
        # dE/d(conj v) = -sqrt(p1) conj(d) * (F^H alpha + z_s) elementwise.
        # Weighting by the softmax w of E and summing over the pairs, the
        # F^H alpha part is _pair_apply with Y = F^H T and P = sum_s w, and
        # the z_s part is sum_s z_s * (conj(S) (r_s - c_s)) with r, c the row
        # and column sums of w, taken as rowsum(conj(S) * M^T) with
        # M = (r - c) z (K x N_t).  The diagonal (d = 0) is dropped before
        # summing: it adds nothing, but at high SNR its weight is ~1 and would
        # swamp the off-diagonal terms.  P and r - c come from the factored
        # kernel (O(K S) exponentials) unless a sample's spread exceeds its
        # limit, and then from the direct one.
        S = self.signals
        K = S.shape[1]
        n_samp = link.noise.shape[0]
        T = _noiseless_points(link.F, v, S, self.p1)
        factors = _mc_factors(T, link.stacked)
        if factors is None:
            inner, P, r_minus_c = _direct_pair_weights(T, link.noise)
        else:
            inner, e, X, Xe = factors
            P, r_minus_c = _factored_pair_weights(e, X, Xe)
        mi = np.log2(K) - np.mean(inner)
        term_u = _pair_apply(S, link.F.conj().T @ T, P)
        M = r_minus_c @ link.z
        n_tx = S.shape[0]
        term_z = np.sum(S.conj() * (M[:, :n_tx] + 1j * M[:, n_tx:]).T, axis=1)
        scale = np.sqrt(self.p1) / (K * n_samp * _LN2)
        return mi, scale * (term_u + term_z)


def max_sr_gd(
    channels: ChannelPair,
    proj: ANProjector,
    powers: PowerConfig,
    codebook: SMCodebook,
    v0: np.ndarray,
    params: GDParams,
    n_samp: int,
    rng: np.random.Generator,
) -> OptTrace:
    """Gradient ascent on the Monte-Carlo secrecy rate with frozen samples.

    The same ascent loop as :func:`max_asr_gd`, but the objective is the
    sampled (unclamped) secrecy rate under ``n_samp`` noise realizations
    drawn once from ``rng``, and the gradient is the matching
    sample-average analytic gradient.
    """
    objective = _SampledSecrecyObjective(channels, proj, powers, codebook, n_samp, rng)
    return _ascend(objective.value_and_gradient, v0, codebook.n_tx, params)


# ---------------------------------------------------------------------------
# Lifted (SDR) objective machinery
# ---------------------------------------------------------------------------


def _pair_traces(cache: QuadFormCache, side: str, W: np.ndarray) -> np.ndarray:
    """Real traces tr(W A_{kk'}) for every pair, shape (K, K).

    tr(W A_{kk'}) = d^H (R * W^T) d with d = s_k - s_k', so all K^2 traces
    are pairwise distances under one K x K Gram matrix S^H (R * W^T) S.
    """
    S = cache.signals
    return _pairwise(S.conj().T @ (cache.gram(side) * W.T) @ S)


def _lifted_eval(
    cache: QuadFormCache, side: str, W: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol lifted log terms on the ``side`` link at W and their weights.

    The log terms are log2 sum_k' exp(-p1 tr(W A_{kk'}) / 2), shape (K,); the
    weights are their row softmax, from which :func:`_lifted_grad` builds the
    gradient.  Both come from one pass of :func:`_row_log2sumexp2`, so the
    value and the gradient of a point cost one ``_pair_traces`` and one
    exponential.
    """
    return _row_log2sumexp2(-0.5 * cache.p1 * _pair_traces(cache, side, W) / _LN2)


def _weighted_pair_sum(cache: QuadFormCache, side: str, P: np.ndarray) -> np.ndarray:
    """sum_{kk'} P_kk' A_kk' (N_t x N_t) for a K x K weight matrix P.

    sum P_kk' d d^H over the differences d = s_k - s_k' is S L S^H with
    L = diag(r + c) - P - P^T (r, c the row and column sums of P), so the
    sum is R * conj(S L S^H).
    """
    P = _off_diagonal(P)
    S = cache.signals
    L = np.diag(P.sum(axis=1) + P.sum(axis=0)) - P - P.T
    return cache.gram(side) * (S @ L @ S.conj().T).conj()


def _lifted_grad(cache: QuadFormCache, side: str, P: np.ndarray) -> np.ndarray:
    """(1/K) sum_k of the lifted log-sum-exp gradient for softmax weights P (Hermitian)."""
    g = _weighted_pair_sum(cache, side, P)
    g = -cache.p1 / (2 * _LN2 * cache.n_signals) * g
    return (g + g.conj().T) / 2


def f1(cache: QuadFormCache, W: np.ndarray, n: int, m: int) -> float:
    """Eavesdropper-side lifted log-sum-exp term for transmitted pair (n, m).

    log2 sum_{n',m'} exp(-p1 tr(W E) / 2); convex in W.  The signal power
    p1 is kept inside the exponent so that W = v v^H reproduces the
    vector-form objective exactly.
    """
    return float(_lifted_eval(cache, "eve", W)[0][cache.pair_index(n, m)])


def f2(cache: QuadFormCache, W: np.ndarray, n: int, m: int) -> float:
    """Legitimate-side lifted log-sum-exp term for transmitted pair (n, m)."""
    return float(_lifted_eval(cache, "bob", W)[0][cache.pair_index(n, m)])


def grad_f1(cache: QuadFormCache, W0: np.ndarray, n: int, m: int) -> np.ndarray:
    """Gradient of :func:`f1` at W0, in the trace pairing.

    Satisfies f1(W0 + D) ~= f1(W0) + Re tr(grad * D) to first order, and
    the convexity of f1 makes the first-order expansion a global
    underestimator.
    """
    k = cache.pair_index(n, m)
    P = np.zeros((cache.n_signals, cache.n_signals))
    P[k] = _lifted_eval(cache, "eve", W0)[1][k]
    return -cache.p1 / (2 * _LN2) * _weighted_pair_sum(cache, "eve", P)


def project_spectrahedron(W: np.ndarray, budget: float) -> np.ndarray:
    """Frobenius-nearest point of {X Hermitian, X >= 0, tr(X) <= budget}.

    Eigendecomposes the symmetrized input and projects the spectrum onto
    {lam >= 0, sum(lam) <= budget}: clip negatives, and if the sum still
    exceeds the budget apply the sorted-threshold uniform shift (simplex
    projection) before re-clipping.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    drift = np.linalg.norm(W - W.conj().T)
    if drift > 1e-10 * max(1.0, np.linalg.norm(W)):
        raise ValueError("input is not Hermitian (drift exceeds 1e-10)")
    S = (W + W.conj().T) / 2
    lam, U = np.linalg.eigh(S)
    clipped = np.clip(lam, 0.0, None)
    if clipped.sum() > budget:
        clipped = _project_capped_simplex(lam, budget)
    out = (U * clipped) @ U.conj().T
    return (out + out.conj().T) / 2


def _project_capped_simplex(lam: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of lam onto {x >= 0, sum(x) = budget}."""
    srt = np.sort(lam)[::-1]
    css = np.cumsum(srt)
    j = np.arange(1, len(lam) + 1)
    valid = srt - (css - budget) / j > 0
    rho = int(np.max(np.nonzero(valid)[0]))
    tau = (css[rho] - budget) / (rho + 1)
    return np.clip(lam - tau, 0.0, None)


def relaxed_asr(cache: QuadFormCache, W: np.ndarray) -> float:
    """Lifted approximate secrecy rate at a Hermitian W (unclamped).

    Averages the per-pair difference of the eavesdropper and legitimate
    lifted log-sum-exp terms; at W = v v^H this equals ``asr(cache, v)``.
    """
    inner_e, _ = _lifted_eval(cache, "eve", W)
    inner_b, _ = _lifted_eval(cache, "bob", W)
    return float(np.mean(inner_e - inner_b))


def _check_feasible(W: np.ndarray, budget: float, slack: float = 1e-6) -> None:
    drift = np.linalg.norm(W - W.conj().T)
    if drift > 1e-8 * max(1.0, np.linalg.norm(W)):
        raise ValueError("W must be Hermitian")
    eigvals = np.linalg.eigvalsh((W + W.conj().T) / 2)
    if eigvals[0] < -slack or np.real(np.trace(W)) > budget * (1 + 1e-9) + slack:
        raise ValueError("W is outside the spectrahedron feasible set")


def solve_sca_subproblem(
    cache: QuadFormCache,
    W_prev: np.ndarray,
    params: SCAParams,
    *,
    projections: list[int] | None = None,
) -> np.ndarray:
    """One concave surrogate maximization of the lifted objective.

    The convex eavesdropper term is Taylor-linearized at ``W_prev``; the
    resulting concave surrogate (linear minus convex) is maximized over the
    spectrahedron by accelerated projected gradient ascent (FISTA, Beck &
    Teboulle 2009) starting at ``W_prev``:

    * each step extrapolates from the last two feasible iterates with the
      FISTA momentum and projects a gradient step taken at the extrapolated
      point Y;
    * the step size backtracks (halves) until the quadratic model at Y
      underestimates the surrogate at the projected point, and grows by
      ``_STEP_GROWTH`` after each improving step;
    * a projected point that improves on the best feasible iterate becomes
      the new best; one that does not restarts the momentum from the best
      iterate (function-value restart);
    * the solver stops when a plain projected gradient step from the best
      iterate (one without momentum: the first steps, and those after a
      restart) gains less than ``inner_tol``, when backtracking reaches
      ``_STEP_FLOOR``, or after ``inner_max`` steps.

    Each point is evaluated once: :func:`_lifted_eval` gives the log terms,
    whose mean enters the surrogate value, and the softmax weights its
    gradient is built from.  The returned point is the best feasible
    iterate, so it is feasible with surrogate value no worse than at the
    start.  If ``projections`` is a list, the number of spectrahedron
    projections this call made is appended to it.
    """
    budget = float(cache.n_tx)
    _check_feasible(W_prev, budget)

    # Constant linear part: the eavesdropper term's value and gradient at W_prev.
    eve_terms, eve_weights = _lifted_eval(cache, "eve", W_prev)
    lin_grad = _lifted_grad(cache, "eve", eve_weights)
    lin_const = float(np.mean(eve_terms)) - _trace_pairing(lin_grad, W_prev)

    def evaluate(W: np.ndarray) -> tuple[float, np.ndarray]:
        bob_terms, bob_weights = _lifted_eval(cache, "bob", W)
        value = lin_const + _trace_pairing(lin_grad, W) - float(np.mean(bob_terms))
        return value, bob_weights

    X = project_spectrahedron(W_prev, budget)
    n_proj = 1
    best, x_weights = evaluate(X)
    Y, y_value, y_weights = X, best, x_weights
    t, step, plain = 1.0, 1.0, True
    for _ in range(params.inner_max):
        grad = lin_grad - _lifted_grad(cache, "bob", y_weights)
        while True:
            Z = project_spectrahedron(Y + step * grad, budget)
            n_proj += 1
            z_value, z_weights = evaluate(Z)
            D = Z - Y
            model = y_value + _trace_pairing(grad, D) - _trace_pairing(D, D) / (2 * step)
            if z_value >= model:
                break
            step /= 2
            if step < _STEP_FLOOR:
                break
        if step < _STEP_FLOOR:
            break
        gain = z_value - best
        if plain and gain < params.inner_tol:
            if gain > 0:
                X = Z
            break
        if gain <= 0:
            t, plain = 1.0, True
            Y, y_value, y_weights = X, best, x_weights
            continue
        X_prev, X, best, x_weights = X, Z, z_value, z_weights
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2
        beta = (t - 1.0) / t_next
        t = t_next
        plain = beta == 0.0
        if plain:
            Y, y_value, y_weights = X, best, x_weights
        else:
            Y = X + beta * (X - X_prev)
            y_value, y_weights = evaluate(Y)
        step *= _STEP_GROWTH
    if projections is not None:
        projections.append(n_proj)
    return X


def _trace_pairing(A: np.ndarray, B: np.ndarray) -> float:
    """Re tr(A B) for a Hermitian A."""
    return float(np.vdot(A, B).real)


def max_asr_sca(
    cache: QuadFormCache, v0: np.ndarray, params: SCAParams
) -> tuple[np.ndarray, OptTrace]:
    """Successive convex approximation on the lifted, rank-relaxed objective.

    Starts from W_0 = v0 v0^H and repeats surrogate maximizations until two
    consecutive relaxed objectives differ by at most ``tol`` (or
    ``max_outer`` is hit).  The history is monotone non-decreasing since
    each surrogate underestimates the objective and is solved at least as
    well as its start point.

    Returns the final lifted matrix and a trace whose ``final_vector`` is
    the power-scaled leading eigenvector (use :func:`power_sweep_rounding`
    for randomized rounding), whose ``stop_reason`` is ``"tol"`` or
    ``"max_iters"`` and whose ``inner_steps`` counts the spectrahedron
    projections of all subproblems.
    """
    start = perf_counter()
    v0 = _check_start(v0, cache.n_tx)
    W = np.outer(v0, v0.conj())
    history = [relaxed_asr(cache, W)]
    stop_reason = "max_iters"
    iterations = 0
    projections: list[int] = []
    for _ in range(params.max_outer):
        W = solve_sca_subproblem(cache, W, params, projections=projections)
        history.append(relaxed_asr(cache, W))
        iterations += 1
        if abs(history[-1] - history[-2]) <= params.tol:
            stop_reason = "tol"
            break
    lam, U = np.linalg.eigh((W + W.conj().T) / 2)
    lead = np.sqrt(cache.n_tx) * U[:, -1]
    trace = OptTrace(
        objective_history=history,
        iterations=iterations,
        converged=stop_reason == "tol",
        final_vector=lead,
        stop_reason=stop_reason,
        inner_steps=sum(projections),
        wall_s=perf_counter() - start,
    )
    return W, trace


def _rounding_directions(
    W_star: np.ndarray, n_randomizations: int, rng: np.random.Generator
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Leading eigenvector plus unit-norm Gaussian directions shaped by W_star.

    Neither depends on the eigenbasis LAPACK happens to return, so the
    rounded precoder moves continuously with W_star: the Gaussian candidates
    are W_star^{1/2} z with the Hermitian square root, and the leading
    eigenvector is rotated so that its largest-modulus entry is real and
    positive (the Monte-Carlo secrecy rate under frozen noise depends on the
    global phase of v).  When W_star has no positive eigenvalue (the relaxed
    solution collapsed to 0) the lead is the normalised all-ones direction
    and the candidates are isotropic.  Also returns the ascending spectrum.
    """
    lam, U = np.linalg.eigh((W_star + W_star.conj().T) / 2)
    n = W_star.shape[0]
    if lam[-1] > 0:
        root = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.conj().T
        lead = U[:, -1]
        pivot = lead[np.argmax(np.abs(lead))]
        lead = lead * (np.abs(pivot) / pivot)
    else:
        root = np.eye(n)
        lead = np.ones(n, dtype=complex) / np.sqrt(n)
    directions = []
    for _ in range(n_randomizations):
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        xi = root @ z
        norm = np.linalg.norm(xi)
        if norm > 0:
            directions.append(xi / norm)
    return lead, directions, lam


def _is_rank_one(lam: np.ndarray, rank_tol: float) -> bool:
    """Whether an ascending spectrum is numerically rank one (and nonzero)."""
    return lam[-1] > 0 and (len(lam) == 1 or lam[-2] / lam[-1] <= rank_tol)


def power_sweep_rounding(
    cache: QuadFormCache,
    W_star: np.ndarray,
    params: SCAParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rank-one precoder from a lifted solution: Gaussian rounding with a power search.

    The rank-relaxed optimum often uses strictly less than the full power
    budget (pushing the eavesdropper term down faster than the legitimate
    one); forcing rounded candidates onto the full-power sphere then
    discards exactly what the lifted solution gained.  Here every direction
    (the leading eigenvector plus ``n_randomizations`` Gaussian draws from
    W_star) is swept over ``_POWER_GRID`` equispaced powers tr(v v^H) in
    (0, N_t] plus tr(W_star) (quadratic forms scale linearly with the power,
    so a whole ray costs one extra log-sum-exp per grid point), and the best
    (direction, power) pair by approximate secrecy rate is returned.  As the
    grid includes the full budget, the result is never worse than
    full-power rounding over the same directions.  A numerically rank-one
    W_star (second eigenvalue at most ``rank_tol`` times the first) sweeps
    only the leading eigenvector; the Gaussian draws are still taken, so
    the generator advances the same way.  A W_star with no positive
    eigenvalue, which SCA reaches when the relaxed optimum collapses to 0,
    sweeps the normalised all-ones direction and isotropic draws instead.
    """
    n_tx = cache.n_tx
    lead_dir, directions, lam = _rounding_directions(W_star, params.n_randomizations, rng)
    if _is_rank_one(lam, params.rank_tol):
        directions = []
    trace_w = float(np.clip(np.real(np.trace(W_star)), n_tx / _POWER_GRID, n_tx))
    t_grid = np.unique(
        np.concatenate([np.linspace(n_tx / _POWER_GRID, n_tx, _POWER_GRID), [trace_w]])
    )
    best_vec, best_val = None, -np.inf
    for direction in [lead_dir] + directions:
        qb = _pair_quadforms(cache, "bob", direction)
        qe = _pair_quadforms(cache, "eve", direction)
        xb = -0.5 * cache.p1 * np.multiply.outer(t_grid, qb) / _LN2
        xe = -0.5 * cache.p1 * np.multiply.outer(t_grid, qe) / _LN2
        values = np.mean(log2sumexp2(xe, axis=2) - log2sumexp2(xb, axis=2), axis=1)
        i = int(np.argmax(values))
        if values[i] > best_val:
            best_val = float(values[i])
            best_vec = np.sqrt(t_grid[i]) * direction
    return best_vec
