"""Command-line entry point.

Subcommands mirror the four studies; each reads a key-value config file,
writes one CSV into the output directory, and drops a matching matplotlib
plot script next to it.

Exit codes: 0 on success, 2 on configuration errors (including an
unreadable config file or an output directory that cannot be written), 3 on
numerical failures (rank-deficient channel, non-positive-definite
covariance).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .errors import ConfigError, NumericalError
from .harness import (
    CDF_COLUMNS,
    COMPLEXITY_COLUMNS,
    ITERATION_COLUMNS,
    SR_VS_SNR_COLUMNS,
    ExperimentConfig,
    load_config,
    run_cdf,
    run_complexity_curve,
    run_iteration_pmf,
    run_sr_vs_snr,
    write_rows,
)

_PLOT_TEMPLATE = '''"""Generated plot script; run next to {csv_name}."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(Path(__file__).parent.joinpath("{csv_name}").open()))
series = defaultdict(list)
for row in rows:
    series[row["method"]].append((float(row["{x}"]), float(row["{y}"])))

fig, ax = plt.subplots()
for method, points in series.items():
    points.sort()
    ax.plot([p[0] for p in points], [p[1] for p in points], marker="o", label=method)
ax.set_xlabel("{xlabel}")
ax.set_ylabel("{ylabel}")
{extra}ax.grid(True)
ax.legend()
fig.savefig(Path(__file__).parent / "{png_name}", dpi=150)
print("wrote {png_name}")
'''

_CDF_PLOT_TEMPLATE = '''"""Generated plot script; run next to {csv_name}."""
import csv
from collections import defaultdict
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

rows = list(csv.DictReader(Path(__file__).parent.joinpath("{csv_name}").open()))
series = defaultdict(list)
for row in rows:
    series[(row["method"], float(row["snr_db"]))].append(float(row["sr"]))

fig, ax = plt.subplots()
for (method, snr_db), values in sorted(series.items()):
    values = np.sort(values)
    cdf = np.arange(1, len(values) + 1) / len(values)
    ax.plot(values, cdf, label=f"{{method}} @ {{snr_db:g}} dB")
ax.set_xlabel("secrecy rate (bits/channel use)")
ax.set_ylabel("empirical CDF")
ax.grid(True)
ax.legend()
fig.savefig(Path(__file__).parent / "{png_name}", dpi=150)
print("wrote {png_name}")
'''


def _line_plot(stem: str, x: str, y: str, xlabel: str, ylabel: str, extra: str = "") -> str:
    """Plot script drawing column ``y`` against ``x`` of ``<stem>.csv``, one line per method."""
    return _PLOT_TEMPLATE.format(
        csv_name=f"{stem}.csv",
        x=x,
        y=y,
        xlabel=xlabel,
        ylabel=ylabel,
        extra=extra,
        png_name=f"{stem}.png",
    )


@dataclass(frozen=True)
class _Study:
    """One subcommand: it writes ``<stem>.csv`` and ``plot_<stem>.py`` into the output directory."""

    name: str
    run: Callable[[ExperimentConfig], list[dict]]
    columns: tuple[str, ...]
    stem: str
    plot: str
    help: str

    def __call__(self, config: ExperimentConfig, out_dir: Path) -> None:
        write_rows(out_dir / f"{self.stem}.csv", self.columns, self.run(config))
        (out_dir / f"plot_{self.stem}.py").write_text(self.plot, encoding="utf-8")


_STUDIES = (
    _Study(
        "sr-vs-snr",
        run_sr_vs_snr,
        SR_VS_SNR_COLUMNS,
        "sr_vs_snr",
        _line_plot(
            "sr_vs_snr",
            "snr_db",
            "mean_sr_mc",
            "SNR (dB)",
            "average secrecy rate (bits/channel use)",
        ),
        "average secrecy rate versus SNR for each method",
    ),
    _Study(
        "cdf",
        lambda config: run_cdf(config, config.snr_db_grid),
        CDF_COLUMNS,
        "cdf",
        _CDF_PLOT_TEMPLATE.format(csv_name="cdf.csv", png_name="cdf.png"),
        "per-realization secrecy-rate samples for empirical CDFs",
    ),
    _Study(
        "iters",
        run_iteration_pmf,
        ITERATION_COLUMNS,
        "iterations",
        _line_plot("iterations", "trial", "iterations", "trial", "iterations to terminate"),
        "optimizer iteration counts at the first grid SNR",
    ),
    _Study(
        "flops",
        lambda config: run_complexity_curve(config.n_tx_grid, config.complexity_inputs()),
        COMPLEXITY_COLUMNS,
        "flops",
        _line_plot(
            "flops", "n_tx", "flops", "transmit antennas", "FLOPs", 'ax.set_yscale("log")\n'
        ),
        "analytic FLOP counts over the antenna grid",
    ),
)

# Dispatch by subcommand name; main calls the entry with (config, out_dir).
_COMMANDS = {study.name: study for study in _STUDIES}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smsec",
        description="Secure spatial-modulation precoding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for study in _STUDIES:
        cmd = sub.add_parser(study.name, help=study.help)
        cmd.add_argument("--config", required=True, help="key-value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override config seed")
        cmd.add_argument("--out", default="results", help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
