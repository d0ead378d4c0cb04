"""Study outputs against a frozen golden file.

``calibration/study_golden.json`` holds, for ``configs/benchmark.cfg``
narrowed to 2 channels:

* the ``run_sr_vs_snr`` rows (all four methods, 0..15 dB);
* the ``run_sr_vs_snr`` rows of a ``none, max-sr-gd`` run at 35 dB, where
  about half the Monte-Carlo kernel calls (the legitimate link's) exceed
  the factored kernel's spread limit and take the direct path;
* the ``run_iteration_pmf`` counts.

It was written by running this file as a script at commit c4b90ce, before
the Monte-Carlo kernel was factored, with Python 3.11.7, numpy 2.4.6 and
scipy 1.17.1.  Rates must match to 1e-9 relative (floating-point sums may
reorder across kernels and library versions); iteration counts must match
exactly.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from smsec import load_config, run_iteration_pmf, run_sr_vs_snr
from smsec.harness import Method

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "calibration" / "study_golden.json"
RATE_KEYS = ("mean_sr_mc", "mean_asr", "std_err")
RTOL = 1e-9


def study_outputs() -> dict:
    config = replace(load_config(ROOT / "configs" / "benchmark.cfg"), n_channels=2)
    high_snr = replace(
        config, snr_db_grid=(35,), methods=(Method.NONE, Method.MAX_SR_GD)
    )
    return {
        "sr_vs_snr": run_sr_vs_snr(config),
        "sr_vs_snr_35db": run_sr_vs_snr(high_snr),
        "iteration_pmf": run_iteration_pmf(config),
    }


@pytest.fixture(scope="module")
def outputs():
    return study_outputs()


@pytest.mark.parametrize("study", ["sr_vs_snr", "sr_vs_snr_35db"])
def test_sr_vs_snr_rows_match_golden(outputs, study):
    want = json.loads(GOLDEN.read_text())[study]
    got = outputs[study]
    assert [(r["snr_db"], r["method"]) for r in got] == [
        (r["snr_db"], r["method"]) for r in want
    ]
    for g, w in zip(got, want):
        for key in RATE_KEYS:
            assert math.isclose(g[key], w[key], rel_tol=RTOL, abs_tol=0.0), (g, w, key)


def test_iteration_counts_match_golden(outputs):
    assert outputs["iteration_pmf"] == json.loads(GOLDEN.read_text())["iteration_pmf"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(study_outputs(), indent=1) + "\n")
