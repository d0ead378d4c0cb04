"""Precoder optimizers for the approximate and Monte-Carlo secrecy rates.

Three methods under the power constraint tr(v v^H) <= N_t:

* :func:`max_asr_gd`: gradient ascent on the closed-form approximate
  secrecy rate, with step-size halving on non-improving steps.  Every step
  is renormalized onto the power sphere tr(v v^H) = N_t, so the search
  never tries a lower power.  Each candidate's value and gradient come from
  one stacked pass over both links' received constellations
  (:func:`_asr_value_and_gradient`).
* :func:`max_sr_gd`: the same ascent loop (on the same sphere) driven by
  the Monte-Carlo secrecy rate under frozen noise samples (common random
  numbers), so the objective and its sample-average gradient are
  deterministic within a run.  Like the other two it takes the
  :class:`QuadFormCache`: each link's samples are one real array, paired
  with the cache's whitened channel, and ``_mc_link``, the chunked
  evaluator of the reported rate, gives each link's value and gradient
  weights in one pass.
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

No kernel forms a pair matrix A_{kk'}.  Every rank-one quantity is taken
from each link's received points T = sqrt(p1) F diag(v) S, whose pairwise
distances one real K x K Gram of T gives (``_sq_distances`` in
``smsec.metrics``): ASR-GD's value, the Monte-Carlo rate of SR-GD, both
gradients (:func:`_pair_pull`, to which SR-GD adds its samples' term before
the one contraction) and the rounding sweep, which scores each direction d
at every power on the points of F diag(d) S.  No vector kernel multiplies
by S: each SM symbol is e_n s_m, so T is the cache's point basis
sqrt(p1) F_in s_m times v_n, one broadcast, and each pull contracts over
(antenna, symbol) with the matching pull basis, in O(K^2 N + K N) per link
instead of O(K^2 N + K N N_t).  Only
the true lifted W of SCA use ``_pair_traces`` (the pair values
tr(W A_{kk'}) over one K x K Gram of the SM signal matrix S and S^H) and
:func:`_weighted_pair_sum`, the softmax-weighted sums of the A_{kk'} that
every lifted pair gradient is built from.

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

from .errors import NumericalError
from .metrics import (
    _EXP2_SCALE,
    _asr_of_terms,
    _constellation_terms,
    _lifted_eval,
    _mc_chunk_width,
    _mc_link,
    _sample_radius,
    _sampled_links,
    _sq_distances,
    QuadFormCache,
    asr,  # not called here; tracing patches smsec.optim.asr, so the name stays
    relaxed_asr,  # max_asr_sca calls it through this namespace, which tracing patches
)
from .model import _basis_points

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

# A tr(W_star) within this relative distance (a few ulps) of a grid power is
# swept as that power alone: the two rays score alike, and which of them won
# the argmax would follow last-bit noise.
_POWER_SNAP = 16 * np.finfo(float).eps

# Rounding directions scored together.  The sweep's largest temporary is
# (block, powers, K, K), so this also sets its memory.  One sweep of 101
# directions at K = 8 peaks at 0.18 MiB scored one at a time, 0.26 MiB in
# blocks of 4 and 0.44 MiB in blocks of 8 (tracemalloc); at block 4 the
# configs/benchmark.cfg study's own peak does not rise, as other stages set it.
_SWEEP_BLOCK = 4


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
    trace not produced by an optimizer.  ``evaluations`` counts the
    candidates a gradient method evaluated, accepted or not, without the
    start point, so ``iterations / evaluations`` is its accept ratio; it is
    0 for SCA, whose inner work ``inner_steps`` counts.
    """

    objective_history: list[float]
    iterations: int
    converged: bool
    final_vector: np.ndarray
    stop_reason: str | None = None
    inner_steps: int = 0
    wall_s: float = 0.0
    evaluations: int = 0


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
    if not np.all(np.isfinite(v0)):
        raise ValueError("start vector must be finite (it has a nan or infinite entry)")
    power = float(np.sum(np.abs(v0) ** 2))
    if power == 0.0:
        raise ValueError("start vector must be nonzero (the origin is stationary)")
    if power > n_tx * (1 + 1e-9):
        raise ValueError("start vector violates the power constraint tr(v v^H) <= N_t")
    return v0


def asr_gradient(cache: QuadFormCache, v: np.ndarray) -> np.ndarray:
    """Conjugate (Wirtinger) gradient of the unclamped approximate secrecy rate.

    A perturbation d changes the objective by 2*Re(grad^H d) to first
    order.  The gradient part of :func:`_asr_value_and_gradient`.
    """
    return _asr_value_and_gradient(cache, v)[1]


def _asr_value_and_gradient(
    cache: QuadFormCache, v: np.ndarray
) -> tuple[float, np.ndarray]:
    """Unclamped approximate secrecy rate at v and its conjugate gradient.

    Takes one :func:`_constellation_terms` pass over both links, stacked as
    ``cache.basis``, on the same received points as ``asr``, so the value
    equals ``asr(cache, v, clamp=False)`` bit for bit.  With t_k the received points
    of a link, its log terms are l_a = log2 sum_b exp(-||t_a - t_b||^2 / 2)
    and t_a - t_b = sqrt(p1) F diag(s_a - s_b) v, so
    d l_a / d(conj v) = -sqrt(p1) / (2 ln 2) sum_b P_ab
    conj(s_a - s_b) * F^H (t_a - t_b) with P the row softmax.  Summed over a,
    that is -sqrt(p1) / (2 ln 2) rowsum(conj(S) * F^H (T L)), with
    L = diag(r + c) - P - P^T and r, c the row and column sums of P
    (:func:`_pair_pull`, which returns sqrt(p1) times that sum: its pull
    basis carries the factor).  The gradient is the eavesdropper's term
    minus the legitimate one's, over K.  The pair costs O(K^2 N + K N)
    with K = M*N_t and N the link's receive antennas; the lifted form at
    W = v v^H costs O(K N_t^2 + K^2 N_t) and agrees to rounding.
    """
    v = np.asarray(v, dtype=complex)
    T = _basis_points(cache.basis, v)
    inner, P = _constellation_terms(T)
    # The row softmax without its diagonal, for the reason _weighted_pair_sum gives.
    P.reshape(2, -1)[:, :: P.shape[-1] + 1] = 0.0
    pull = _pair_pull(T, P, cache.pull_basis)
    grad = np.subtract(pull[1], pull[0], out=pull[1])
    grad *= -1.0 / (2 * _LN2 * cache.n_signals)
    return _asr_of_terms(inner), grad


def _pair_pull(
    T: np.ndarray, P: np.ndarray, D: np.ndarray, Y: np.ndarray | None = None
) -> np.ndarray:
    """sqrt(p1) sum_ab P_ab conj(s_a - s_b) * F^H (t_a - t_b) for K x K weights P, shape (N_t,).

    ``T`` holds a link's received points t_k (N x K) and ``D`` is its pull
    basis (``QuadFormCache.bases``), the 2 x N x N_t x M array
    [conj(B); 1j conj(B)] of its point basis B_inm = sqrt(p1) F_in s_m; a
    leading stack axis on ``T``, ``P`` and ``D`` (both links of
    ``QuadFormCache.pull_basis``) is carried through to a (2, N_t) result.
    The sum is sqrt(p1) rowsum(conj(S) * F^H (T L)) with
    L = diag(r + c) - P - P^T and r, c the row and column sums of P.  Since
    t_a - t_b = sqrt(p1) F diag(s_a - s_b) v, it equals
    p1 (sum_ab P_ab A_ab) v, the lifted weighted sum
    (:func:`_weighted_pair_sum`) applied to v, in O(K^2 N + K N) instead of
    O(K^2 N_t + K N_t^2).  T L is formed on the real stacked points
    Z = [Re T; Im T] as Z (r + c) - Z P - Z P^T, so P is never cast to
    complex.  ``Y``, a real 2N x K array of the same layout, is added to it
    first, so one contraction serves both: SR-GD passes its samples' term
    there, ASR-GD passes none.  Column k = (n-1)M + (m-1) of S is e_n s_m,
    so with Q = T L + Y the sum's entry n is
    sum_im conj(B_inm) Q_i,(n,m) = sum_him D_hinm [Re Q; Im Q]_hi,(n,m): the
    real rows of Q, viewed as 2 x N x N_t x M, times D, summed over
    everything but the antenna, in O(K N) with no product against S.
    """
    ones = np.ones(P.shape[-1])
    Z = np.concatenate([T.real, T.imag], axis=-2)
    ZL = Z * (P @ ones + ones @ P)[..., None, :]
    ZL -= Z @ P
    ZL -= Z @ P.swapaxes(-1, -2)
    if Y is not None:
        ZL += Y
    pull = D * ZL.reshape(D.shape)
    return pull.sum(axis=(-4, -3, -1))


def _weighted_pair_sum(
    gram: np.ndarray, S: np.ndarray, S_h: np.ndarray, P: np.ndarray
) -> np.ndarray:
    """sum_{kk'} P_kk' A_kk' (N_t x N_t) for a K x K weight matrix P.

    A_kk' = R * conj(d d^H) for R = ``gram`` and the differences
    d = s_k - s_k' of the columns of ``S`` (``S_h`` is S^H).  sum P_kk' d d^H
    is S L S^H with L = diag(r + c) - P - P^T (r, c the row and column sums
    of P), so the sum is R * conj(S L S^H).  The diagonal of P is dropped
    first: pairs (k, k) have A_kk = 0, so their weight changes no sum, and
    dropping it spares the identities a cancellation of two O(1) terms when
    the softmax weight sits on the diagonal (high SNR).  The lifted pair
    gradients come from this sum (:func:`_lifted_grad` for the SCA
    iterates, :func:`grad_f1`).  It costs O(K^2 N_t + K N_t^2).  The
    gradients of a vector v (ASR-GD, SR-GD) do not use it: they take the
    same sum applied to v on the received points (:func:`_pair_pull`).
    """
    K = P.shape[0]
    P = P.copy()
    P.reshape(-1)[:: K + 1] = 0.0
    L = np.diag(P.sum(axis=1) + P.sum(axis=0))
    L -= P
    L -= P.T
    out = S @ L @ S_h
    np.conjugate(out, out=out)
    return np.multiply(gram, out, out=out)


def _lifted_grad(cache: QuadFormCache, side: str, P: np.ndarray) -> np.ndarray:
    """(1/K) sum_k of the lifted log-sum-exp gradient for softmax weights P (Hermitian)."""
    g = _weighted_pair_sum(cache.gram(side), cache.signals, cache.signals_h, P)
    np.multiply(-cache.p1 / (2 * _LN2 * cache.n_signals), g, out=g)
    np.add(g, g.conj().T, out=g)
    g /= 2
    return g


def _ascend(value_and_grad, v0: np.ndarray, n_tx: int, params: GDParams) -> OptTrace:
    """Shared ascent loop: step, renormalize, accept if not worse, else halve.

    ``value_and_grad(v)`` returns the objective and its conjugate gradient
    at v from one evaluation; it is called once per candidate, accepted or
    rejected, so an accepted step already holds the gradient of the next
    iterate.  Steps that decrease the objective are rejected and halve the
    step; accepted steps that improve by less than ``min_improve`` also
    halve it (plateau rule), so the run
    terminates once progress stalls.  The step size only ever shrinks; the
    run stops when it falls below ``step_min`` (converged, stop reason
    ``"step_floor"``) or after ``max_iters`` accepted updates (``"max_iters"``).
    ``iterations`` counts accepted updates and ``evaluations`` the candidates.
    """
    start = perf_counter()
    v = _check_start(v0, n_tx)
    mu = params.step_init
    value, grad = value_and_grad(v)
    history = [value]
    iterations = evaluations = 0
    while True:
        if mu < params.step_min:
            stop_reason = "step_floor"
            break
        if iterations >= params.max_iters:
            stop_reason = "max_iters"
            break
        candidate = _renormalize(v + mu * grad, n_tx)
        value, candidate_grad = value_and_grad(candidate)
        evaluations += 1
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
        evaluations=evaluations,
    )


def max_asr_gd(cache: QuadFormCache, v0: np.ndarray, params: GDParams) -> OptTrace:
    """Gradient ascent on the approximate secrecy rate (unclamped).

    Each candidate costs one stacked pass over both links' received
    constellations (:func:`_asr_value_and_gradient`), which gives its value
    and gradient in O(K^2 N + K N) per link with K = M*N_t and N the
    larger link's receive antennas.
    Accepted-iterate objectives are non-decreasing by construction; the
    final vector satisfies tr(v v^H) <= N_t.
    """
    return _ascend(lambda v: _asr_value_and_gradient(cache, v), v0, cache.n_tx, params)


class _SampledSecrecyObjective:
    """Monte-Carlo secrecy rate with frozen noise: deterministic in v.

    Freezes ``n_samp`` whitened-noise realizations per link, drawn by
    ``smsec.metrics._sampled_links`` for the cache's whitened channels as
    for the reported secrecy rate (identically seeded on both links, one
    shared draw when they have as many receive antennas), so that repeated
    evaluations are a pure function of the precoder, making the ascent
    loop's accept/reject decisions and finite-difference checks well
    defined.  ``bob`` and ``eve`` are the two links' samples, each the real
    2N x S array [Re W; Im W], and their radii max_s ||w_s|| are kept for
    the evaluator's spread bound; each link's point and pull bases are read
    from ``cache``.
    :meth:`value_and_gradient` evaluates both links with
    ``smsec.metrics._mc_link``, in the sample chunks the reported rate
    takes, and the evaluator also sums the gradient's pair weights over the
    chunks.  Each chunk's four K x chunk arrays live in one
    (4, K, chunk) workspace that both links share, so an evaluation
    allocates no array of that size and the workspace does not grow with
    ``n_samp`` beyond one chunk (512 KiB at K = 64).
    """

    def __init__(self, cache: QuadFormCache, n_samp: int, rng: np.random.Generator):
        self.cache = cache
        self.bob, self.eve = _sampled_links(cache.factor_b, cache.factor_e, n_samp, rng)
        self._radii = {"bob": _sample_radius(self.bob), "eve": _sample_radius(self.eve)}
        K = cache.n_signals
        self._work = np.empty((4, K, _mc_chunk_width(K, n_samp)))

    def value_and_gradient(self, v: np.ndarray) -> tuple[float, np.ndarray]:
        """Sampled secrecy rate I(bob) - I(eve) at v and its conjugate gradient."""
        v = np.asarray(v, dtype=complex)
        mi_b, g_b = self._link("bob", v)
        mi_e, g_e = self._link("eve", v)
        return float(mi_b - mi_e), g_b - g_e

    def _link(self, side: str, v: np.ndarray) -> tuple[float, np.ndarray]:
        # Sampled MI of one link and its d/d(conj v).  With d = s_a - s_b the
        # exponent E_sab = -||alpha||^2 - 2 Re(alpha^H w_s) of
        # alpha = sqrt(p1) F diag(d) v has
        # dE/d(conj v) = -sqrt(p1) conj(d) * F^H (alpha + w_s) elementwise.
        # Weighting by the softmax w of E and summing over the pairs, the
        # alpha part is sum_ab P_ab conj(d) * F^H (t_a - t_b) with
        # P = sum_s w, as alpha = t_a - t_b: the _pair_pull of the received
        # points T.  The w_s part is sum_s sum_ab w_sab conj(d) * F^H w_s
        # = sum_k conj(s_k) * F^H Y_k with Y = W (r - c)^T (N x K), r and c
        # the row and column sums of each sample's w, so it joins the pair
        # term's T L before the one contraction with the pull basis, which
        # carries the sqrt(p1).  The diagonal (d = 0) is dropped before
        # summing: it adds nothing, but at high SNR its weight is ~1 and
        # would swamp the off-diagonal terms.
        basis, pull_basis = self.cache.bases(side)
        samples = self.bob if side == "bob" else self.eve
        T = _basis_points(basis, v)
        mi, P, Y = _mc_link(T, samples, True, self._work, self._radii[side])
        scale = 1.0 / (self.cache.n_signals * samples.shape[1] * _LN2)
        return mi, scale * _pair_pull(T, P, pull_basis, Y)


def max_sr_gd(
    cache: QuadFormCache,
    v0: np.ndarray,
    params: GDParams,
    n_samp: int,
    rng: np.random.Generator,
) -> OptTrace:
    """Gradient ascent on the Monte-Carlo secrecy rate with frozen samples.

    The same ascent loop as :func:`max_asr_gd`, but the objective is the
    sampled (unclamped) secrecy rate under ``n_samp`` noise realizations
    drawn once from ``rng`` on the cache's whitened channels, and the
    gradient is the matching sample-average analytic gradient.  Each
    evaluation takes the samples in the chunks of the reported rate
    (``smsec.metrics._mc_link``), so its memory is bounded in ``n_samp``:
    at K = 256 and 30 dB, where every chunk takes the direct kernel, a run
    peaks at about 34 MiB (258 MiB with all samples at once), one chunk's
    (K, K, 64) exponentials.
    """
    objective = _SampledSecrecyObjective(cache, n_samp, rng)
    return _ascend(objective.value_and_gradient, v0, cache.n_tx, params)


# ---------------------------------------------------------------------------
# Lifted (SDR) objective machinery
# ---------------------------------------------------------------------------


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
    sums = _weighted_pair_sum(cache.gram("eve"), cache.signals, cache.signals_h, P)
    return -cache.p1 / (2 * _LN2) * sums


def project_spectrahedron(W: np.ndarray, budget: float) -> np.ndarray:
    """Frobenius-nearest point of {X Hermitian, X >= 0, tr(X) <= budget}.

    Eigendecomposes the symmetrized input and projects the spectrum onto
    {lam >= 0, sum(lam) <= budget}: clip negatives, and if the sum still
    exceeds the budget apply the sorted-threshold uniform shift (simplex
    projection) before re-clipping.  Raises ``ValueError`` unless the budget
    is positive and finite and W is finite and Hermitian to 1e-10 relative.
    """
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget!r}")
    S = _hermitian_part(W, 1e-10, "input is not Hermitian (drift exceeds 1e-10)")
    lam, U = np.linalg.eigh(S)
    clipped = np.maximum(lam, 0.0)
    if clipped.sum() > budget:
        clipped = _project_capped_simplex(lam, budget)
    U_h = np.conjugate(U).T  # a copy even for real U, which is scaled in place next
    out = np.multiply(U, clipped, out=U) @ U_h
    np.add(out, out.conj().T, out=out)
    out /= 2
    return out


def _hermitian_part(W: np.ndarray, rel_tol: float, message: str) -> np.ndarray:
    """(W + W^H) / 2, after checking that W is finite and nearly Hermitian.

    Raises ``ValueError`` with ``message`` when ||W - W^H||_F exceeds
    ``rel_tol`` * max(1, ||W||_F), and a finiteness error for a nan or
    infinite entry.  Both checks use squared norms and are written so that
    nan fails them; the entries are scanned for non-finite values only when
    ||W||_F^2 is itself not finite, so finite input costs no extra pass.  A
    finite W whose ||W||_F^2 overflows is rejected too: the drift test
    would compare inf with inf and pass any such W.
    """
    W = np.asarray(W, dtype=np.result_type(W, 0.5))  # the halving below is in place
    size = np.vdot(W, W).real
    if not size < math.inf:
        if not np.all(np.isfinite(W)):
            raise ValueError("matrix must be finite (it has a nan or infinite entry)")
        raise _ScaleError("matrix is too large: its squared Frobenius norm overflows")
    W_h = W.conj().T
    drift = W - W_h
    if not np.vdot(drift, drift).real <= rel_tol * rel_tol * max(1.0, size):
        raise ValueError(message)
    out = np.add(W, W_h, out=drift)
    out /= 2
    return out


class _ScaleError(ValueError):
    """A matrix too large for the spectrahedron projection in double precision."""


def _project_capped_simplex(lam: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection of lam onto {x >= 0, sum(x) = budget}.

    In exact arithmetic the largest entry always passes the threshold test.
    In floating point none does once the entries dwarf the budget (about
    1e16 times it), since each test then cancels to 0; near that scale a
    test can also pass on a cancelled sum, and the shift then leaves a sum
    far above the budget.  Both raise ``ValueError``: the result's sum may
    exceed the budget by at most 1e-9 relative, the trace slack of
    :func:`_check_feasible`.  On the normal path it stays within 1e-15.
    """
    srt = np.sort(lam)[::-1]
    css = np.cumsum(srt)
    j = np.arange(1, len(lam) + 1)
    valid = np.flatnonzero(srt - (css - budget) / j > 0)
    if valid.size:
        rho = int(valid[-1])
        out = np.clip(lam - (css[rho] - budget) / (rho + 1), 0.0, None)
        if out.sum() <= budget * (1 + 1e-9):
            return out
    raise _ScaleError(f"spectrum too large to project onto trace budget {budget!r}")


def _check_feasible(W: np.ndarray, budget: float, slack: float = 1e-6) -> None:
    """Raise ``ValueError`` unless W is finite, Hermitian and in the spectrahedron.

    Written so that nan fails every check.
    """
    eigvals = np.linalg.eigvalsh(_hermitian_part(W, 1e-8, "W must be Hermitian"))
    trace = np.real(np.trace(W))
    if not (eigvals[0] >= -slack and trace <= budget * (1 + 1e-9) + slack):
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
    n_signals = cache.n_signals
    _check_feasible(W_prev, budget)

    # Constant linear part: the eavesdropper term's value and gradient at W_prev.
    eve_terms, eve_weights = _lifted_eval(cache, "eve", W_prev)
    lin_grad = _lifted_grad(cache, "eve", eve_weights)
    lin_const = float(np.mean(eve_terms)) - _trace_pairing(lin_grad, W_prev)

    def evaluate(W: np.ndarray) -> tuple[float, np.ndarray]:
        bob_terms, bob_weights = _lifted_eval(cache, "bob", W)
        value = lin_const + _trace_pairing(lin_grad, W) - float(bob_terms.sum() / n_signals)
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
    :func:`_leading_direction` scaled to full power (use
    :func:`power_sweep_rounding` for randomized rounding), whose
    ``stop_reason`` is ``"tol"`` or ``"max_iters"`` and whose
    ``inner_steps`` counts the spectrahedron projections of all
    subproblems.  Raises :class:`~smsec.errors.NumericalError` when a
    subproblem meets a matrix too large to project onto the budget in double
    precision, which extreme SNR (about 160 dB and up at the
    ``configs/benchmark.cfg`` shape) brings about.
    """
    start = perf_counter()
    v0 = _check_start(v0, cache.n_tx)
    W = np.outer(v0, v0.conj())
    history = [relaxed_asr(cache, W)]
    stop_reason = "max_iters"
    iterations = 0
    projections: list[int] = []
    for _ in range(params.max_outer):
        try:
            W = solve_sca_subproblem(cache, W, params, projections=projections)
        except _ScaleError as exc:  # the gradient outgrew the budget's precision
            raise NumericalError(f"SCA cannot project its iterate: {exc}") from exc
        history.append(relaxed_asr(cache, W))
        iterations += 1
        if abs(history[-1] - history[-2]) <= params.tol:
            stop_reason = "tol"
            break
    lam, U = np.linalg.eigh((W + W.conj().T) / 2)
    lead = np.sqrt(cache.n_tx) * _leading_direction(lam, U)
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


def _leading_direction(lam: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Unit leading eigenvector of an ascending ``eigh`` result, phase fixed.

    The eigenvector is rotated so that its largest-modulus entry is real and
    positive, so it does not depend on the phase LAPACK happens to return
    (the Monte-Carlo secrecy rate under frozen noise depends on the global
    phase of v).  With no positive eigenvalue (a collapsed W = 0) it is the
    normalised all-ones direction.
    """
    if lam[-1] > 0:
        lead = U[:, -1]
        pivot = lead[np.argmax(np.abs(lead))]
        return lead * (np.abs(pivot) / pivot)
    n = U.shape[0]
    return np.ones(n, dtype=complex) / np.sqrt(n)


def _rounding_directions(
    W_star: np.ndarray, n_randomizations: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading eigenvector plus unit-norm Gaussian directions shaped by W_star.

    Neither depends on the eigenbasis LAPACK happens to return, so the
    rounded precoder moves continuously with W_star: the Gaussian candidates
    are W_star^{1/2} z with the Hermitian square root, and the lead is
    :func:`_leading_direction`.  When W_star has no positive eigenvalue (the
    relaxed solution collapsed to 0) the candidates are isotropic.  The
    draws z are taken in one call, real and imaginary part of each in turn,
    which is the stream of one ``standard_normal(n)`` pair per draw; a draw
    whose direction is zero is dropped.  Returns the lead, the directions as
    rows (at most ``n_randomizations`` x n) and the ascending spectrum.
    """
    lam, U = np.linalg.eigh((W_star + W_star.conj().T) / 2)
    n = W_star.shape[0]
    lead = _leading_direction(lam, U)
    if lam[-1] > 0:
        root = (U * np.sqrt(np.clip(lam, 0.0, None))) @ U.conj().T
    else:
        root = np.eye(n)
    draws = rng.standard_normal((n_randomizations, 2, n))
    z = (draws[:, 0] + 1j * draws[:, 1]) / np.sqrt(2)
    xi = (root @ z[:, :, None])[:, :, 0]
    # sqrt(Re x . Re x + Im x . Im x) per row, the sum np.linalg.norm takes
    # for one complex vector, as stacked dot products.
    re, im = xi.real, xi.imag
    norms = np.sqrt(
        np.matmul(re[:, None, :], re[:, :, None])[:, 0, 0]
        + np.matmul(im[:, None, :], im[:, :, None])[:, 0, 0]
    )
    keep = norms > 0
    return lead, xi[keep] / norms[keep, None], lam


def _is_rank_one(lam: np.ndarray, rank_tol: float) -> bool:
    """Whether an ascending spectrum is numerically rank one (and nonzero)."""
    return lam[-1] > 0 and (len(lam) == 1 or lam[-2] / lam[-1] <= rank_tol)


def _swept_log_terms(T: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """log2 sum_b 2^(t x_ab) at every power t for the received points ``T`` of B directions.

    ``T`` holds the points of each unit direction d, sqrt(p1) F diag(d) S
    (B x N x K), and x = :func:`_sq_distances` (T, c) with c = -1/(2 ln 2)
    their base-2 exponents at unit power; at power t every squared distance
    scales by t.  ``t_grid`` holds the powers t > 0 and the result has shape
    (B, len(t_grid), K).  The diagonal of t x is exactly 0, so every row sum
    is at least 1 and needs no max shift.  The row sums are one product with
    a ones vector, about 3x faster than numpy's sum over the last axis at
    this shape.
    """
    x = np.einsum("t,bij->btij", t_grid, _sq_distances(T, _EXP2_SCALE))  # no broadcast buffer
    np.exp2(x, out=x)
    return np.log2(x @ np.ones(x.shape[-1]))


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
    so a whole ray costs one extra log-sum-exp per grid point); a tr(W_star)
    within a few ulps of a grid power (``_POWER_SNAP``) is swept as that
    power alone, so the choice does not follow its last bits.  The best
    (direction, power) pair by approximate secrecy rate is returned: the
    first direction whose best value is strictly the greatest, at its first
    best power.  A direction with a nan value at any power is passed over.
    As the grid includes the full budget, the result is never worse than
    full-power rounding over the same directions.  A numerically rank-one
    W_star (second eigenvalue at most ``rank_tol`` times the first) sweeps
    only the leading eigenvector; the Gaussian draws are still taken, so
    the generator advances the same way.  A W_star with no positive
    eigenvalue, which SCA reaches when the relaxed optimum collapses to 0,
    sweeps the normalised all-ones direction and isotropic draws instead.

    Directions are scored ``_SWEEP_BLOCK`` at a time on their stacked
    received points F diag(d) S, one broadcast of the block over each
    link's point basis, and the closed-form kernel of ``asr``: one real
    K x K Gram per direction and link serves every power
    (:func:`_swept_log_terms`).
    """
    n_tx = cache.n_tx
    lead, directions, lam = _rounding_directions(W_star, params.n_randomizations, rng)
    candidates = lead[None]
    if not _is_rank_one(lam, params.rank_tol):
        candidates = np.concatenate([candidates, directions])
    trace_w = float(np.clip(np.real(np.trace(W_star)), n_tx / _POWER_GRID, n_tx))
    # The sorted grid plus a tr(W_star) that is not within a few ulps of a
    # grid power: what np.unique gives, without the numpy.ma import it makes
    # on first use.
    t_grid = np.linspace(n_tx / _POWER_GRID, n_tx, _POWER_GRID)
    if not np.any(np.abs(t_grid - trace_w) <= _POWER_SNAP * t_grid):
        t_grid = np.sort(np.append(t_grid, trace_w))
    basis_b, basis_e = cache.bases("bob")[0], cache.bases("eve")[0]
    best_vec, best_val = None, -np.inf
    for start in range(0, len(candidates), _SWEEP_BLOCK):
        block = candidates[start : start + _SWEEP_BLOCK]
        eve = _swept_log_terms(_basis_points(basis_e, block), t_grid)
        bob = _swept_log_terms(_basis_points(basis_b, block), t_grid)
        values = np.mean(eve - bob, axis=-1)
        for direction, row, i in zip(block, values, values.argmax(axis=1)):
            if row[i] > best_val:
                best_val = float(row[i])
                best_vec = np.sqrt(t_grid[i]) * direction
    return best_vec
