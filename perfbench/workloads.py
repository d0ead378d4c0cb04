"""Workloads of the smsec benchmark and the output check applied to every instance.

A workload is ``configs/benchmark.cfg`` plus a few override lines, parsed by
``smsec.parse_config_text``.  An *instance* is one call to
``smsec.run_sr_vs_snr`` on the workload config narrowed to one channel and
one SNR point; its config seed is derived from a root seed and the instance
index, so the same root seed always gives the same inputs.  A run draws a
fixed pool of instances whose size depends only on the workload and the
time budget, never on how fast the machine is, so the same arguments
always attempt the same inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

CONFIG_PATH = Path("configs") / "benchmark.cfg"


@dataclass(frozen=True)
class Workload:
    why: str
    overrides: str  # config lines appended to configs/benchmark.cfg
    instance_s: float  # nominal seconds per instance, which sizes the pool


WORKLOADS = {
    "desk": Workload(
        why=(
            "configs/benchmark.cfg as shipped (n_tx=4, BPSK, all four methods): the study "
            "users run; SCA subproblem, projection and rounding dominate, SR-GD is next"
        ),
        overrides="",
        instance_s=0.4,
    ),
    "wide": Workload(
        why=(
            "n_tx=16 QPSK (K=64) with none and max-asr-gd: the pairwise quadratic-form "
            "kernel (asr, asr_gradient, build_cache) dominates and its cache sets peak memory"
        ),
        overrides="n_tx = 16\nM = 4\nmethods = none, max-asr-gd\n",
        instance_s=0.9,
    ),
    "mc": Workload(
        why=(
            "desk shape with n_samp=2000, none and max-sr-gd: Monte-Carlo SR-GD dominates "
            "and QuadFormCache kernels and SCA are bypassed, so changes to those must not move it"
        ),
        overrides="n_samp = 2000\nmethods = none, max-sr-gd\n",
        instance_s=0.45,
    ),
}


# Share of the time budget one pass over the pool takes at the nominal speed.
POOL_SHARE = 0.8


def pool_size(name: str, seconds: float, n_snr: int) -> int:
    """Distinct instances a run attempts: a whole number of SNR grid cycles
    that fill ``POOL_SHARE`` of ``seconds`` at the nominal speed, at least one."""
    fit = int(seconds * POOL_SHARE / WORKLOADS[name].instance_s)
    return max(1, fit - fit % n_snr)


def import_smsec(root: Path):
    """Import smsec from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import smsec

    if src not in Path(smsec.__file__).resolve().parents:
        raise ImportError(f"smsec was imported from {smsec.__file__}, not from {src}")
    return smsec


def load(smsec, root: Path, name: str):
    """Parse the workload config and build its codebook: the benchmark's set-up."""
    text = (root / CONFIG_PATH).read_text(encoding="utf-8")
    config = smsec.parse_config_text(text + "\n" + WORKLOADS[name].overrides)
    codebook = smsec.make_codebook(config.M, config.scheme, config.n_tx)
    return config, codebook


def instance_config(smsec, config, root_seed: int, token: str, index: int):
    """Config of instance ``index``: one channel, one SNR point, a derived seed.

    SNR points cycle through the grid, so within a run their counts differ
    by at most one.
    """
    seed = int(smsec.substream(root_seed, token, index).integers(0, 2**63))
    snr_db = config.snr_db_grid[index % len(config.snr_db_grid)]
    return replace(config, n_channels=1, snr_db_grid=(snr_db,), seed=seed)


def check_rows(rows: list[dict], config, n_signals: int) -> list[str]:
    """Violations of the output invariants of one instance's rows.

    Every value must be finite, 0 <= mean_sr_mc, mean_asr <= log2(K) and
    std_err >= 0, with one row per method.  ASR-GD ascends monotonically
    from the same all-ones start as the no-precoding baseline, so its
    clamped ASR may not fall below the baseline's.
    """
    problems = []
    ceiling = math.log2(n_signals)
    methods = [row.get("method") for row in rows]
    expected = [m.value for m in config.methods]
    if methods != expected:
        problems.append(f"methods {methods} != {expected}")
    by_method = {}
    for row in rows:
        values = [row.get(key) for key in ("snr_db", "mean_sr_mc", "mean_asr", "std_err")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{row.get('method')}: non-finite or missing value in {row}")
            continue
        for key in ("mean_sr_mc", "mean_asr"):
            if not 0.0 <= row[key] <= ceiling:
                problems.append(f"{row['method']}: {key}={row[key]!r} outside [0, {ceiling:g}]")
        if row["std_err"] < 0:
            problems.append(f"{row['method']}: std_err={row['std_err']!r} < 0")
        by_method[row["method"]] = row
    gd, base = by_method.get("max-asr-gd"), by_method.get("none")
    if gd is not None and base is not None and gd["mean_asr"] < base["mean_asr"]:
        problems.append(
            f"max-asr-gd ASR {gd['mean_asr']!r} below the all-ones start {base['mean_asr']!r}"
        )
    return problems
