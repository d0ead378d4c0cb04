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
from pathlib import Path

from .errors import ConfigError, NumericalError
from .harness import (
    CDF_COLUMNS,
    COMPLEXITY_COLUMNS,
    ITERATION_COLUMNS,
    SR_VS_SNR_COLUMNS,
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


def _emit_plot_script(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text, encoding="utf-8")


def _cmd_sr_vs_snr(config, out_dir: Path) -> None:
    rows = run_sr_vs_snr(config)
    write_rows(out_dir / "sr_vs_snr.csv", SR_VS_SNR_COLUMNS, rows)
    _emit_plot_script(
        out_dir,
        "plot_sr_vs_snr.py",
        _PLOT_TEMPLATE.format(
            csv_name="sr_vs_snr.csv",
            x="snr_db",
            y="mean_sr_mc",
            xlabel="SNR (dB)",
            ylabel="average secrecy rate (bits/channel use)",
            extra="",
            png_name="sr_vs_snr.png",
        ),
    )


def _cmd_cdf(config, out_dir: Path) -> None:
    rows = run_cdf(config, config.snr_db_grid)
    write_rows(out_dir / "cdf.csv", CDF_COLUMNS, rows)
    _emit_plot_script(
        out_dir,
        "plot_cdf.py",
        _CDF_PLOT_TEMPLATE.format(csv_name="cdf.csv", png_name="cdf.png"),
    )


def _cmd_iters(config, out_dir: Path) -> None:
    rows = run_iteration_pmf(config)
    write_rows(out_dir / "iterations.csv", ITERATION_COLUMNS, rows)
    _emit_plot_script(
        out_dir,
        "plot_iterations.py",
        _PLOT_TEMPLATE.format(
            csv_name="iterations.csv",
            x="trial",
            y="iterations",
            xlabel="trial",
            ylabel="iterations to terminate",
            extra="",
            png_name="iterations.png",
        ),
    )


def _cmd_flops(config, out_dir: Path) -> None:
    rows = run_complexity_curve(config.n_tx_grid, config.complexity_inputs())
    write_rows(out_dir / "flops.csv", COMPLEXITY_COLUMNS, rows)
    _emit_plot_script(
        out_dir,
        "plot_flops.py",
        _PLOT_TEMPLATE.format(
            csv_name="flops.csv",
            x="n_tx",
            y="flops",
            xlabel="transmit antennas",
            ylabel="FLOPs",
            extra='ax.set_yscale("log")\n',
            png_name="flops.png",
        ),
    )


_COMMANDS = {
    "sr-vs-snr": _cmd_sr_vs_snr,
    "cdf": _cmd_cdf,
    "iters": _cmd_iters,
    "flops": _cmd_flops,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smsec",
        description="Secure spatial-modulation precoding experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sr-vs-snr", "average secrecy rate versus SNR for each method"),
        ("cdf", "per-realization secrecy-rate samples for empirical CDFs"),
        ("iters", "optimizer iteration counts at the first grid SNR"),
        ("flops", "analytic FLOP counts over the antenna grid"),
    ):
        cmd = sub.add_parser(name, help=help_text)
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
