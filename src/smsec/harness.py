"""Seeded experiment driver: rate sweeps, CDFs, iteration counts, FLOP curves.

Every run is a pure function of (config, seed).  Per-trial randomness comes
from named substreams derived from the master seed, so trials are
independent and results do not depend on execution order.

Protocol conventions (the underlying studies leave these open):

* SNR means P_t / sigma^2 with P_t = 1 and sigma_b^2 = sigma_e^2 = sigma^2
  swept over the grid.
* The power split between confidential signal and artificial noise is
  ``power_split`` (fraction of P_t on the signal), default one half.
* The no-precoding baseline is the all-ones vector, which already sits on
  the power sphere tr(v v^H) = N_t.
* Channels are redrawn per trial and shared across SNR points and methods;
  secrecy rates are evaluated with identical noise samples across methods
  (common random numbers).  All methods of a (trial, SNR) point are
  optimized first, and their precoders then go to ``secrecy_rate_mc`` as
  one stack on the ``substream(seed, "eval", si, trial)`` generator: both
  links are whitened and their samples drawn once for the point, every
  method's rate is taken on those very samples, and each equals the rate
  of a single-precoder call on the same generator state.  So differences
  between methods at a point are free of sampling noise between them; the
  standard error of one method's mean over channels is unchanged.
"""

from __future__ import annotations

import csv
import math
import numbers
import zlib
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # numpy loads it on first use; every study draws from it

from .complexity import ComplexityInputs, FlopMethod, flops
from .errors import ConfigError
from .metrics import _std_error, asr, build_cache, secrecy_rate_mc
from .model import ChannelPair, PowerConfig, Scheme, an_projector, make_codebook, sample_channel
from .optim import (
    GDParams,
    OptTrace,
    SCAParams,
    _is_integer,
    default_precoder,
    max_asr_gd,
    max_asr_sca,
    max_sr_gd,
    power_sweep_rounding,
    random_precoder,
)

__all__ = [
    "Method",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "substream",
    "run_sr_vs_snr",
    "run_cdf",
    "run_iteration_pmf",
    "run_complexity_curve",
    "write_rows",
    "SR_VS_SNR_COLUMNS",
    "CDF_COLUMNS",
    "ITERATION_COLUMNS",
    "COMPLEXITY_COLUMNS",
]

SR_VS_SNR_COLUMNS = ("snr_db", "method", "mean_sr_mc", "mean_asr", "std_err")
CDF_COLUMNS = ("snr_db", "method", "trial", "sr")
ITERATION_COLUMNS = ("method", "trial", "iterations")
COMPLEXITY_COLUMNS = ("n_tx", "method", "flops")


class Method(str, Enum):
    """Precoder selection strategies benchmarked by the harness."""

    NONE = "none"
    MAX_ASR_GD = "max-asr-gd"
    MAX_SR_GD = "max-sr-gd"
    MAX_ASR_SCA = "max-asr-sca"


_OPTIMIZING_METHODS = (Method.MAX_ASR_GD, Method.MAX_SR_GD, Method.MAX_ASR_SCA)
# Methods that draw from their own generator: SR-GD its frozen samples, SCA
# its rounding directions.  The others get none: making a generator costs
# about half an ASR-GD step at n_tx = 16, M = 4.
_DRAWING_METHODS = (Method.MAX_SR_GD, Method.MAX_ASR_SCA)

# Largest constellation order a config may ask for.  make_codebook allocates
# M symbols, so an order such as 2**40 would exhaust memory (MemoryError)
# instead of failing as a config error.
_MAX_ORDER = 2**16


@dataclass(frozen=True)
class ExperimentConfig:
    """Full experiment description; see module docstring for conventions.

    ``eve_equals_bob`` replaces the eavesdropper channel with the
    legitimate one (a degenerate-symmetry check; requires n_e == n_b).
    ``init`` selects the optimizer start ('ones' or 'random').  The field
    trio ``d1``/``d2``/``d3`` plus ``n_tx_grid``/``solver_accuracy`` only
    feed the analytic FLOP curves.
    """

    n_tx: int = 4
    n_b: int = 2
    n_e: int = 2
    M: int = 2
    scheme: Scheme = Scheme.PSK
    snr_db_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0)
    n_channels: int = 50
    n_samp: int = 500
    power_split: float = 0.5
    methods: tuple[Method, ...] = (
        Method.NONE,
        Method.MAX_ASR_GD,
        Method.MAX_SR_GD,
        Method.MAX_ASR_SCA,
    )
    seed: int = 0
    gd: GDParams = field(default_factory=GDParams)
    sca: SCAParams = field(default_factory=SCAParams)
    eve_equals_bob: bool = False
    init: str = "ones"
    n_tx_grid: tuple[int, ...] = (4, 8, 16, 32, 64)
    d1: int = 25
    d2: int = 30
    d3: int = 8
    solver_accuracy: float = 1e-8

    def __post_init__(self):
        for name in ("n_tx", "n_b", "n_e", "M", "n_channels", "n_samp", "seed", "d1", "d2", "d3"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not all(_is_integer(n) for n in self.n_tx_grid):
            raise ConfigError(f"n_tx_grid entries must be integers, got {self.n_tx_grid!r}")
        for snr_db in self.snr_db_grid:
            if not (isinstance(snr_db, numbers.Real) and math.isfinite(snr_db)):
                raise ConfigError(f"snr_db_grid entries must be finite numbers, got {snr_db!r}")
        if self.n_tx <= self.n_b:
            raise ConfigError("n_tx must exceed n_b for AN null-space projection")
        if min(self.n_b, self.n_e, self.M, self.n_channels, self.n_samp) < 1:
            raise ConfigError("dimensions and trial counts must be positive")
        if self.M > _MAX_ORDER:
            raise ConfigError(f"M must be at most {_MAX_ORDER}, got {self.M}")
        if not self.snr_db_grid:
            raise ConfigError("snr_db_grid must be nonempty")
        if not 0 < self.power_split <= 1:
            raise ConfigError("power_split must lie in (0, 1]")
        if not self.methods:
            raise ConfigError("methods must be nonempty")
        if self.eve_equals_bob and self.n_e != self.n_b:
            raise ConfigError("eve_equals_bob requires n_e == n_b")
        if self.init not in ("ones", "random"):
            raise ConfigError(f"init must be 'ones' or 'random', got {self.init!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")
        try:
            make_codebook(self.M, self.scheme, self.n_tx)
            for n_tx in self.n_tx_grid:
                self.complexity_inputs(n_tx)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for snr_db in self.snr_db_grid:
            try:
                self.powers_at(snr_db)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"snr_db_grid entry {snr_db!r} is out of range: its noise variance "
                    "10^(-snr/10) underflows to 0 or overflows"
                ) from exc

    def powers_at(self, snr_db: float) -> PowerConfig:
        """Power configuration at one SNR point (P_t = 1, noise swept)."""
        sigma2 = 10.0 ** (-snr_db / 10.0)
        p1 = self.power_split
        return PowerConfig(
            p_total=1.0, p1=p1, p2=1.0 - p1, sigma2_b=sigma2, sigma2_e=sigma2
        )

    def complexity_inputs(self, n_tx: int | None = None) -> ComplexityInputs:
        return ComplexityInputs(
            n_tx=self.n_tx if n_tx is None else n_tx,
            n_b=self.n_b,
            n_e=self.n_e,
            M=self.M,
            d1=self.d1,
            d2=self.d2,
            d3=self.d3,
            n_samp=self.n_samp,
            solver_accuracy=self.solver_accuracy,
        )


def substream(seed: int, *tokens: int | str) -> np.random.Generator:
    """Independent generator derived from the master seed and name tokens.

    String tokens are CRC-hashed so the stream identity is stable across
    runs and platforms; numeric tokens enter as-is.  Streams for distinct
    token tuples are statistically independent, which keeps trials
    order-independent and safe to parallelize.
    """
    entropy = [seed]
    for token in tokens:
        if isinstance(token, str):
            entropy.append(zlib.crc32(token.encode("utf-8")))
        else:
            entropy.append(int(token))
    return np.random.default_rng(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------------------
# Config file parsing (plain "key = value" text)
# ---------------------------------------------------------------------------

_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_list(text: str) -> list:
    return [_parse_scalar(part) for part in text.split(",") if part.strip()]


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a key-value config; keys mirror :class:`ExperimentConfig` fields.

    Lines are ``key = value`` with ``#`` comments; list values are
    comma-separated; nested optimizer parameters use ``gd.`` / ``sca.``
    prefixes.  Unknown keys or malformed values raise :class:`ConfigError`.
    """
    top: dict = {}
    gd_kw: dict = {}
    sca_kw: dict = {}
    list_fields = {"snr_db_grid", "methods", "n_tx_grid"}
    field_names = {f.name for f in fields(ExperimentConfig)}
    gd_fields = {f.name for f in fields(GDParams)}
    sca_fields = {f.name for f in fields(SCAParams)}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("gd."):
            name = key[3:]
            if name not in gd_fields:
                raise ConfigError(f"line {lineno}: unknown gd parameter {name!r}")
            gd_kw[name] = _parse_scalar(value)
        elif key.startswith("sca."):
            name = key[4:]
            if name not in sca_fields:
                raise ConfigError(f"line {lineno}: unknown sca parameter {name!r}")
            sca_kw[name] = _parse_scalar(value)
        elif key in list_fields:
            top[key] = tuple(_parse_list(value))
        elif key in field_names:
            top[key] = _parse_scalar(value)
        else:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")

    try:
        if "scheme" in top:
            top["scheme"] = Scheme(str(top["scheme"]).lower())
        if "methods" in top:
            top["methods"] = tuple(Method(str(m).lower()) for m in top["methods"])
        if "eve_equals_bob" in top:
            raw_flag = str(top["eve_equals_bob"]).lower()
            if raw_flag not in _BOOL_VALUES:
                raise ConfigError(f"eve_equals_bob must be boolean, got {raw_flag!r}")
            top["eve_equals_bob"] = _BOOL_VALUES[raw_flag]
        if gd_kw:
            top["gd"] = GDParams(**gd_kw)
        if sca_kw:
            top["sca"] = SCAParams(**sca_kw)
        return ExperimentConfig(**top)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path, seed: int | None = None) -> ExperimentConfig:
    """Read a config file; ``seed`` (if given) overrides the file's seed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    config = parse_config_text(text)
    if seed is not None:
        config = replace(config, seed=seed)
    return config


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def _trial_channels(config: ExperimentConfig, trial: int) -> ChannelPair:
    rng = substream(config.seed, "channel", trial)
    H = sample_channel(rng, config.n_b, config.n_tx)
    G = H.copy() if config.eve_equals_bob else sample_channel(rng, config.n_e, config.n_tx)
    return ChannelPair(H=H, G=G)


def _start_vector(config: ExperimentConfig, trial: int) -> np.ndarray:
    if config.init == "random":
        return random_precoder(config.n_tx, substream(config.seed, "init", trial))
    return default_precoder(config.n_tx)


def _optimize(
    method: Method,
    cache,
    config: ExperimentConfig,
    v0: np.ndarray,
    opt_rng: np.random.Generator | None,
) -> tuple[np.ndarray, OptTrace | None]:
    """Run one precoder method; returns (final vector, trace or None)."""
    if method is Method.NONE:
        return default_precoder(config.n_tx), None
    if method is Method.MAX_ASR_GD:
        trace = max_asr_gd(cache, v0, config.gd)
        return trace.final_vector, trace
    if method is Method.MAX_SR_GD:
        trace = max_sr_gd(cache, v0, config.gd, config.n_samp, opt_rng)
        return trace.final_vector, trace
    if method is Method.MAX_ASR_SCA:
        w_star, trace = max_asr_sca(cache, v0, config.sca)
        v = power_sweep_rounding(cache, w_star, config.sca, opt_rng)
        return v, trace
    raise ConfigError(f"unknown method {method!r}")  # pragma: no cover


def _per_trial_rates(
    config: ExperimentConfig, snr_points: Sequence[float], evaluate: bool = True
) -> dict[tuple[int, Method], list[tuple[float, float, int]]]:
    """Optimize and evaluate every (trial, snr, method) combination.

    Returns (sr_mc, asr, iterations) samples keyed by (snr index, method);
    iteration counts are -1 for the no-precoding baseline.  The methods of
    a point share one ``secrecy_rate_mc`` call on a stack of their
    precoders (the module docstring says why).  With
    ``evaluate=False`` the rate fields are nan (iteration studies only need
    the optimizer traces).
    """
    codebook = make_codebook(config.M, config.scheme, config.n_tx)
    results: dict[tuple[int, Method], list[tuple[float, float, int]]] = {
        (si, method): [] for si in range(len(snr_points)) for method in config.methods
    }
    for trial in range(config.n_channels):
        channels = _trial_channels(config, trial)
        proj = an_projector(channels.H)
        v0 = _start_vector(config, trial)
        for si, snr_db in enumerate(snr_points):
            powers = config.powers_at(snr_db)
            cache = build_cache(channels, proj, powers, codebook)
            runs = []
            for method in config.methods:
                opt_rng = None
                if method in _DRAWING_METHODS:
                    opt_rng = substream(config.seed, "opt", method.value, si, trial)
                runs.append(_optimize(method, cache, config, v0, opt_rng))
            if evaluate:
                # One whitening and one draw for all methods of the point.
                eval_rng = substream(config.seed, "eval", si, trial)
                precoders = np.stack([v for v, _ in runs])
                srs = secrecy_rate_mc(
                    channels, proj, powers, codebook, precoders, config.n_samp, eval_rng
                )
                bounds = [asr(cache, v, clamp=True) for v, _ in runs]
            else:
                srs = bounds = [float("nan")] * len(runs)
            for method, (_, trace), sr, rate_bound in zip(config.methods, runs, srs, bounds):
                iterations = -1 if trace is None else trace.iterations
                results[(si, method)].append((float(sr), rate_bound, iterations))
    return results


def run_sr_vs_snr(config: ExperimentConfig) -> list[dict]:
    """Average secrecy rate (Monte-Carlo and closed-form) per SNR and method.

    One row per (snr_db, method) with the channel-averaged rates and the
    standard error of the Monte-Carlo mean.
    """
    samples = _per_trial_rates(config, config.snr_db_grid)
    rows = []
    for si, snr_db in enumerate(config.snr_db_grid):
        for method in config.methods:
            values = samples[(si, method)]
            sr = np.array([s for s, _, _ in values])
            bound = np.array([a for _, a, _ in values])
            rows.append(
                {
                    "snr_db": snr_db,
                    "method": method.value,
                    "mean_sr_mc": float(np.mean(sr)),
                    "mean_asr": float(np.mean(bound)),
                    "std_err": _std_error(sr),
                }
            )
    return rows


def run_cdf(config: ExperimentConfig, snr_db_points: Sequence[float]) -> list[dict]:
    """Per-realization secrecy-rate samples for empirical CDFs."""
    if not snr_db_points:
        raise ConfigError("snr_db_points must be nonempty")
    samples = _per_trial_rates(config, list(snr_db_points))
    rows = []
    for si, snr_db in enumerate(snr_db_points):
        for method in config.methods:
            for trial, (sr, _, _) in enumerate(samples[(si, method)]):
                rows.append(
                    {
                        "snr_db": snr_db,
                        "method": method.value,
                        "trial": trial,
                        "sr": sr,
                    }
                )
    return rows


def run_iteration_pmf(config: ExperimentConfig) -> list[dict]:
    """Optimizer iteration counts per trial at the first grid SNR.

    The no-precoding baseline has no iterations and is skipped.
    """
    methods = [m for m in config.methods if m in _OPTIMIZING_METHODS]
    if not methods:
        raise ConfigError("iteration study needs at least one optimizing method")
    pruned = replace(config, methods=tuple(methods))
    snr_db = config.snr_db_grid[0]
    samples = _per_trial_rates(pruned, [snr_db], evaluate=False)
    rows = []
    for method in methods:
        for trial, (_, _, iterations) in enumerate(samples[(0, method)]):
            rows.append({"method": method.value, "trial": trial, "iterations": iterations})
    return rows


def run_complexity_curve(
    n_tx_grid: Sequence[int], inputs: ComplexityInputs
) -> list[dict]:
    """Analytic FLOP counts of the three methods over an antenna grid."""
    if not n_tx_grid:
        raise ConfigError("n_tx_grid must be nonempty")
    methods = (FlopMethod.MAX_ASR_GD, FlopMethod.MAX_ASR_SCA, FlopMethod.MAX_SR_GD)
    rows = []
    for n_tx in n_tx_grid:
        at_n = replace(inputs, n_tx=int(n_tx))
        for method in methods:
            rows.append(
                {"n_tx": int(n_tx), "method": method.value, "flops": flops(method, at_n)}
            )
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def write_rows(path: str | Path, columns: Iterable[str], rows: Iterable[dict]) -> None:
    """Write rows as UTF-8 CSV with floats at 9 significant digits."""
    columns = list(columns)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])
