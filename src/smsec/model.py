"""Domain model for the secure spatial-modulation link.

Covers the constellation / SM signal set, Rayleigh channel sampling, the
artificial-noise (AN) null-space projector, interference-plus-noise
covariances, the transmit equation and maximum-likelihood detection.

Conventions
-----------
* Antenna index ``n`` runs 1..N_t and symbol index ``m`` runs 1..M
  (1-based, as usual in the signal-model literature).
* The linear precoder is a diagonal matrix ``diag(v)``; only the vector
  ``v`` is ever stored.
* All randomness comes from an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError

__all__ = [
    "Scheme",
    "SMCodebook",
    "ChannelPair",
    "PowerConfig",
    "ANProjector",
    "make_codebook",
    "sm_signal",
    "sample_channel",
    "an_projector",
    "noise_covariance",
    "transmit",
    "ml_detect",
]

# Condition-number guard for H*H^H before forming the null-space projector.
_COND_LIMIT = 1e12

_QAM_ORDERS = (4, 16, 64)


class Scheme(str, Enum):
    """Supported constellation families."""

    PSK = "psk"
    QAM = "qam"


@dataclass(frozen=True)
class SMCodebook:
    """M-ary constellation plus the antenna dimension of the SM signal set.

    The full signal set has ``M * n_tx`` symbols ``s_{n,m} = e_n * s_m``
    (antenna index carries ``log2(n_tx)`` extra bits).
    """

    M: int
    scheme: Scheme
    symbols: np.ndarray  # (M,) complex, unit average energy
    n_tx: int

    def __post_init__(self):
        if self.M < 1 or self.n_tx < 1:
            raise ValueError("M and n_tx must be positive")
        if len(self.symbols) != self.M:
            raise ValueError("symbol list length must equal M")
        energy = np.mean(np.abs(self.symbols) ** 2)
        if abs(energy - 1.0) > 1e-12:
            raise ValueError(f"constellation average energy {energy} != 1")
        if len(set(np.round(self.symbols, 12))) != self.M:
            raise ValueError("constellation symbols must be distinct")

    @property
    def n_signals(self) -> int:
        """Size of the SM signal set, M * N_t."""
        return self.M * self.n_tx

    @property
    def spectral_efficiency(self) -> float:
        """Bits per channel use, log2(M * N_t)."""
        return float(np.log2(self.n_signals))

    def signal_matrix(self) -> np.ndarray:
        """All SM symbols stacked as columns, shape (N_t, M*N_t).

        Column k holds s_{n,m} with k = (n-1)*M + (m-1) (antenna-major,
        the same order used for ML tie-breaking).
        """
        mat = np.zeros((self.n_tx, self.n_signals), dtype=complex)
        for n in range(self.n_tx):
            mat[n, n * self.M:(n + 1) * self.M] = self.symbols
        return mat


@dataclass(frozen=True)
class ChannelPair:
    """Legitimate channel H (N_b x N_t) and eavesdropper channel G (N_e x N_t)."""

    H: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        if self.H.ndim != 2 or self.G.ndim != 2:
            raise ValueError("H and G must be matrices")
        if self.H.shape[1] != self.G.shape[1]:
            raise ValueError("H and G must share the transmit dimension N_t")

    @property
    def n_tx(self) -> int:
        return self.H.shape[1]


@dataclass(frozen=True)
class PowerConfig:
    """Power budget and noise levels.

    ``p1`` is confidential-signal power, ``p2`` AN power, with
    ``p1 + p2 <= p_total``.
    """

    p_total: float
    p1: float
    p2: float
    sigma2_b: float
    sigma2_e: float

    def __post_init__(self):
        if min(self.p_total, self.p1, self.p2) < 0:
            raise ValueError("powers must be nonnegative")
        if self.sigma2_b <= 0 or self.sigma2_e <= 0:
            raise ValueError("noise variances must be positive")
        if self.p1 + self.p2 > self.p_total * (1 + 1e-12) + 1e-15:
            raise ValueError("p1 + p2 exceeds the total power budget")


@dataclass(frozen=True)
class ANProjector:
    """Normalized projector onto the null space of the legitimate channel.

    ``t_an`` satisfies tr(t_an t_an^H) = 1 and H @ t_an = 0; ``mu_norm`` is
    the Frobenius normalizer of the raw projector (equals
    sqrt(N_t - rank(H)) for a full-rank channel).
    """

    t_an: np.ndarray
    mu_norm: float


def make_codebook(M: int, scheme: Scheme | str, n_tx: int) -> SMCodebook:
    """Build a unit-average-energy M-ary constellation for an N_t-antenna SM set.

    PSK places the M points on the unit circle, exp(j*2*pi*k/M).  QAM
    (M in {4, 16, 64}) is the square grid with per-axis levels
    {+-1, +-3, ...} scaled to unit average energy (e.g. 1/sqrt(10) for
    16-QAM).

    Raises
    ------
    ValueError
        If M is not a power of two, or the M/scheme combination is
        unsupported.
    """
    scheme = Scheme(scheme)
    if M < 2 or (M & (M - 1)) != 0:
        raise ValueError(f"M={M} must be a power of two >= 2")
    if scheme is Scheme.PSK:
        k = np.arange(M)
        symbols = np.exp(2j * np.pi * k / M)
    elif scheme is Scheme.QAM:
        if M not in _QAM_ORDERS:
            raise ValueError(f"QAM order must be one of {_QAM_ORDERS}, got {M}")
        side = int(np.sqrt(M))
        levels = np.arange(-(side - 1), side, 2, dtype=float)
        re, im = np.meshgrid(levels, levels)
        grid = (re + 1j * im).ravel()
        symbols = grid / np.sqrt(np.mean(np.abs(grid) ** 2))
    else:  # pragma: no cover - Scheme() already rejects unknown names
        raise ValueError(f"unsupported scheme {scheme}")
    return SMCodebook(M=M, scheme=scheme, symbols=symbols, n_tx=n_tx)


def sm_signal(codebook: SMCodebook, n: int, m: int) -> np.ndarray:
    """SM symbol vector s_{n,m} = e_n * s_m (1-based antenna/symbol indices)."""
    if not (1 <= n <= codebook.n_tx):
        raise ValueError(f"antenna index {n} out of range [1, {codebook.n_tx}]")
    if not (1 <= m <= codebook.M):
        raise ValueError(f"symbol index {m} out of range [1, {codebook.M}]")
    s = np.zeros(codebook.n_tx, dtype=complex)
    s[n - 1] = codebook.symbols[m - 1]
    return s


def sample_channel(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Draw an i.i.d. flat-Rayleigh channel matrix, entries CN(0, 1).

    Real and imaginary parts are independent N(0, 1/2), giving per-entry
    variance 1.
    """
    if rows < 1 or cols < 1:
        raise ValueError("channel dimensions must be positive")
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def an_projector(H: np.ndarray) -> ANProjector:
    """Null-space projector of H, Frobenius-normalized for unit AN power gain.

    Computes (1/mu) * [I - H^H (H H^H)^{-1} H] with mu the Frobenius norm of
    the bracketed orthogonal projector.  Requires N_t > N_b (otherwise the
    null space is empty and mu = 0) and a well-conditioned H H^H.
    """
    n_rx, n_tx = H.shape
    if n_tx <= n_rx:
        raise ValueError(
            f"AN projection needs N_t > N_b (got N_t={n_tx}, N_b={n_rx}); "
            "the null space of H is empty at equality"
        )
    gram = H @ H.conj().T
    gram = (gram + gram.conj().T) / 2
    eigvals = np.linalg.eigvalsh(gram)
    if eigvals[0] <= 0 or eigvals[-1] / eigvals[0] > _COND_LIMIT:
        raise NumericalError("rank-deficient channel: H*H^H is singular or ill-conditioned")
    # A solve (LU) instead of an explicit inverse; the condition check above
    # bounds its error.
    proj = np.eye(n_tx, dtype=complex) - H.conj().T @ np.linalg.solve(gram, H)
    proj = (proj + proj.conj().T) / 2
    mu = float(np.linalg.norm(proj, "fro"))
    return ANProjector(t_an=proj / mu, mu_norm=mu)


def noise_covariance(
    C: np.ndarray, proj: ANProjector, p2: float, sigma2: float
) -> np.ndarray:
    """Covariance of AN-plus-thermal interference seen through channel C.

    Q = p2 * C t_an t_an^H C^H + sigma2 * I.  Hermitian positive definite for
    sigma2 > 0.
    """
    if C.shape[1] != proj.t_an.shape[0]:
        raise ValueError("channel and projector transmit dimensions differ")
    A = C @ proj.t_an
    Q = p2 * (A @ A.conj().T)
    Q = (Q + Q.conj().T) / 2
    Q += sigma2 * np.eye(C.shape[0])
    return Q


def transmit(
    codebook: SMCodebook,
    v: np.ndarray,
    proj: ANProjector,
    powers: PowerConfig,
    n: int,
    m: int,
    an_sample: np.ndarray,
) -> np.ndarray:
    """Transmitted baseband vector sqrt(p1)*diag(v)*s_{n,m} + sqrt(p2)*t_an*a."""
    if len(v) != codebook.n_tx or len(an_sample) != codebook.n_tx:
        raise ValueError("precoder and AN sample must have length N_t")
    s = sm_signal(codebook, n, m)
    return np.sqrt(powers.p1) * (v * s) + np.sqrt(powers.p2) * (proj.t_an @ an_sample)


def _point_basis(C: np.ndarray, symbols: np.ndarray, p1: float) -> np.ndarray:
    """sqrt(p1) * C[:, n] * s_m for every antenna n and constellation point m, shape (N, N_t, M).

    Every SM symbol is s_{n,m} = e_n * s_m, so the noise-free received point
    of symbol k = (n-1)*M + (m-1) under precoder v is this basis entry
    (n, m) times v_n: the basis is the v-independent part of every received
    constellation.  A stack of channels C (B x N x N_t) gives a stack of
    bases (B x N x N_t x M).
    """
    return (np.sqrt(p1) * C)[..., None] * symbols


def _basis_points(basis: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Received points of precoder v on a :func:`_point_basis`, as columns (N x K).

    One broadcast of v over the antenna axis, reshaped antenna-major to
    N x K with no product against the N_t x K signal matrix.  A stack of
    bases (B x N x N_t x M) or of precoders (B x N_t) gives a stack of point
    sets (B x N x K).
    """
    points = basis * v[..., None, :, None]
    return points.reshape(*points.shape[:-2], -1)


def _noiseless_points(C: np.ndarray, v: np.ndarray, symbols: np.ndarray, p1: float) -> np.ndarray:
    """Noise-free received points sqrt(p1) * C * diag(v) * s_k as columns, shape (N, K).

    ``symbols`` are the M constellation points; the points are those of
    :func:`_basis_points` on the channel's :func:`_point_basis`.  The
    columns are the ML candidate set and the points whose pairwise
    distances drive every rate kernel.  A stack of precoders v (B x N_t)
    or of channels C (B x N x N_t) gives a stack of point sets (B x N x K).
    """
    return _basis_points(_point_basis(C, symbols, p1), v)


def ml_detect(
    y: np.ndarray,
    C: np.ndarray,
    v: np.ndarray,
    codebook: SMCodebook,
    p1: float,
) -> tuple[int, int]:
    """Maximum-likelihood detection of the SM symbol from a received vector.

    Minimizes ||y - sqrt(p1) * C * diag(v) * s_{n,m}||^2 over the full
    M*N_t signal grid; ties break toward the smallest linear index
    (n-1)*M + m.  Returns 1-based (n_hat, m_hat).
    """
    if len(y) != C.shape[0]:
        raise ValueError("received vector length must match channel rows")
    candidates = _noiseless_points(C, v, codebook.symbols, p1)
    metrics = np.sum(np.abs(y[:, None] - candidates) ** 2, axis=0)
    k = int(np.argmin(metrics))  # argmin returns the first minimum on ties
    return k // codebook.M + 1, k % codebook.M + 1
