"""Smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs one panel instance and one measured instance, timed and traced;
the result must name every metric of BENCHMARK.json with its unit.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small_run(monkeypatch, capsys):
    """Call run.main with one set-up probe and one panel instance; return (code, result)."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "PANEL_INSTANCES", 1)
    for key, value in run.THREAD_PIN.items():
        monkeypatch.setenv(key, value)

    def call(workload, trace):
        # A tiny time budget still runs one instance: the loop always completes one.
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.001", "--trace", str(trace)]
        )
        last = capsys.readouterr().out.strip().splitlines()[-1]
        return code, json.loads(last)

    return call


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in spans.LAYERS
    ]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_appears_with_its_unit(small_run, workload, trace):
    code, result = small_run(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == (2 if trace == 0 else 3)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace == 0:
        # Rates are means over the panel, which here is a single 0 dB instance
        # whose secrecy rate may be clamped to 0; the timings never are 0.
        not_rates = [m["name"] for m in expected if m["unit"] != "bits"]
        assert all(result["metrics"][name]["value"] > 0 for name in not_rates)


def test_the_inputs_of_a_run_do_not_depend_on_speed():
    assert workloads.pool_size("desk", 30, 4) == 60
    assert workloads.pool_size("wide", 30, 4) == 24
    assert workloads.pool_size("desk", 0.001, 4) == 1
    assert run.closed_loop(lambda i: i, 0.0, 3)[0] == [0, 1, 2]
    done, _ = run.closed_loop(lambda i: time.sleep(0.01) or i, 0.1, 2)
    assert len(done) > 2 and set(done) == {0, 1}


def test_a_repeated_input_counts_once_and_failed_if_any_run_failed():
    def instance(index, error=None):
        return run.Instance(index, 0.0, 0.1, [], error, [])

    runs = [instance(0), instance(1), instance(0, "boom"), instance(1)]
    assert run.distinct(runs) == (2, 1)


def _rows():
    return [
        {"snr_db": 10, "method": "none", "mean_sr_mc": 0.9, "mean_asr": 0.8, "std_err": 0.0},
        {"snr_db": 10, "method": "max-asr-gd", "mean_sr_mc": 1.3, "mean_asr": 1.3, "std_err": 0.0},
    ]


@pytest.mark.parametrize(
    "method, column, value",
    [
        ("none", "mean_sr_mc", float("nan")),
        ("none", "mean_asr", -0.1),
        ("max-asr-gd", "mean_sr_mc", 6.5),  # above log2(K) = 6 bits
        ("max-asr-gd", "std_err", -1e-3),
        ("max-asr-gd", "mean_asr", 0.7),  # below the all-ones start it ascended from
    ],
)
def test_output_check_trips_on_a_corrupted_row(method, column, value):
    smsec = workloads.import_smsec(run.ROOT)
    config, codebook = workloads.load(smsec, run.ROOT, "wide")
    rows = _rows()
    assert workloads.check_rows(rows, config, codebook.n_signals) == []
    next(row for row in rows if row["method"] == method)[column] = value
    assert workloads.check_rows(rows, config, codebook.n_signals)


def test_broken_invariant_makes_the_command_fail(small_run, monkeypatch):
    smsec = workloads.import_smsec(run.ROOT)
    real = smsec.run_sr_vs_snr

    def corrupted(config):
        rows = real(config)
        rows[0]["mean_sr_mc"] = -1.0
        return rows

    monkeypatch.setattr(smsec, "run_sr_vs_snr", corrupted)
    code, result = small_run("desk", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
