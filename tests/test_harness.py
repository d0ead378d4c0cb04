from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smsec as S
from smsec import (
    ConfigError,
    ExperimentConfig,
    Method,
    parse_config_text,
    run_cdf,
    run_complexity_curve,
    run_iteration_pmf,
    run_sr_vs_snr,
    substream,
    write_rows,
)
from smsec.harness import CDF_COLUMNS, SR_VS_SNR_COLUMNS


def small_config(**overrides):
    base = dict(
        n_tx=4,
        M=2,
        snr_db_grid=(0.0, 10.0),
        n_channels=4,
        n_samp=64,
        methods=(Method.NONE, Method.MAX_ASR_GD),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_substream_deterministic_and_independent():
    a = substream(1, "channel", 0).standard_normal(4)
    b = substream(1, "channel", 0).standard_normal(4)
    c = substream(1, "channel", 1).standard_normal(4)
    d = substream(1, "eval", 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_tx=2)  # needs n_tx > n_b
    with pytest.raises(ConfigError):
        small_config(power_split=0.0)
    with pytest.raises(ConfigError):
        small_config(snr_db_grid=())
    with pytest.raises(ConfigError):
        small_config(methods=())
    with pytest.raises(ConfigError):
        small_config(eve_equals_bob=True, n_e=3)
    with pytest.raises(ConfigError):
        small_config(init="zeros")


def test_parse_config_round_trip():
    text = """
    # experiment shape
    n_tx = 4
    M = 2
    scheme = psk
    snr_db_grid = 0, 5, 10
    n_channels = 3
    n_samp = 32
    power_split = 0.5
    methods = none, max-asr-sca
    seed = 11
    eve_equals_bob = false
    gd.step_init = 0.25
    sca.tol = 0.002
    """
    config = parse_config_text(text)
    assert config.n_tx == 4
    assert config.snr_db_grid == (0, 5, 10)
    assert config.methods == (Method.NONE, Method.MAX_ASR_SCA)
    assert config.gd.step_init == 0.25
    assert config.sca.tol == 0.002
    assert config.seed == 11


@pytest.mark.parametrize(
    "line",
    ["unknown_key = 3", "gd.bogus = 1", "scheme = ook", "methods = teleport", "just a line"],
)
def test_parse_config_rejects_bad_input(line):
    with pytest.raises(ConfigError):
        parse_config_text(f"n_tx = 4\n{line}\n")


BENCHMARK_CFG = (Path(__file__).parents[1] / "configs" / "benchmark.cfg").read_text()
CONFIG_KEYS = sorted(
    {f.name for f in fields(ExperimentConfig)}
    | {f"gd.{f.name}" for f in fields(S.GDParams)}
    | {f"sca.{f.name}" for f in fields(S.SCAParams)}
)
_values = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=4).map(
        lambda xs: ", ".join(map(str, xs))
    ),
    st.sampled_from(["", "nan", "-inf", "1e309", "true", "qam", "none, max-asr-sca", "0x10"]),
    st.text(max_size=20),
)
_lines = st.tuples(st.one_of(st.sampled_from(CONFIG_KEYS), st.text(max_size=12)), _values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines.map(lambda kv: f"{kv[0]} = {kv[1]}"), max_size=3))
def test_parse_config_fuzz_raises_only_config_error(extra_lines):
    # the shipped config plus up to three random "key = value" lines either
    # parses or raises ConfigError; any other exception escapes and fails
    text = BENCHMARK_CFG + "\n".join(extra_lines) + "\n"
    try:
        parse_config_text(text)
    except ConfigError:
        pass


def test_sr_vs_snr_symmetric_channels_zero_rate():
    config = small_config(
        methods=(Method.NONE,), eve_equals_bob=True, power_split=1.0, n_channels=5
    )
    rows = run_sr_vs_snr(config)
    assert len(rows) == len(config.snr_db_grid)
    for row in rows:
        assert row["mean_sr_mc"] <= max(3 * row["std_err"], 1e-12)


def test_sr_vs_snr_deterministic(tmp_path):
    config = small_config()
    files = []
    for run in range(2):
        rows = run_sr_vs_snr(config)
        path = tmp_path / f"run{run}.csv"
        write_rows(path, SR_VS_SNR_COLUMNS, rows)
        files.append(path.read_bytes())
    assert files[0] == files[1]


def test_sr_vs_snr_row_shape():
    config = small_config()
    rows = run_sr_vs_snr(config)
    assert len(rows) == len(config.snr_db_grid) * len(config.methods)
    for row in rows:
        assert set(row) == set(SR_VS_SNR_COLUMNS)
        assert np.isfinite(row["mean_sr_mc"]) and row["mean_sr_mc"] >= 0
        assert np.isfinite(row["mean_asr"]) and row["mean_asr"] >= 0


def test_cdf_samples_and_dominance():
    config = small_config(methods=(Method.NONE,), n_channels=40)
    rows = run_cdf(config, [-5.0, 5.0])
    assert len(rows) == 2 * 40
    assert all(r["sr"] >= 0 for r in rows)
    by_snr = {snr: sorted(r["sr"] for r in rows if r["snr_db"] == snr) for snr in (-5.0, 5.0)}
    # the empirical CDF shifts right as SNR grows
    low = np.array(by_snr[-5.0])
    high = np.array(by_snr[5.0])
    assert np.all(high >= low - 0.05)
    assert high.mean() > low.mean()
    trials = {r["trial"] for r in rows if r["snr_db"] == 5.0}
    assert trials == set(range(40))


def test_iteration_pmf_counts():
    config = small_config(
        methods=(Method.NONE, Method.MAX_ASR_GD, Method.MAX_ASR_SCA),
        snr_db_grid=(5.0,),
        n_channels=6,
    )
    rows = run_iteration_pmf(config)
    methods = {r["method"] for r in rows}
    assert methods == {"max-asr-gd", "max-asr-sca"}  # baseline excluded
    assert len(rows) == 2 * 6
    for r in rows:
        assert 0 <= r["iterations"]
        if r["method"] == "max-asr-sca":
            assert r["iterations"] <= config.sca.max_outer
        else:
            assert r["iterations"] <= config.gd.max_iters
    again = run_iteration_pmf(config)
    assert rows == again


def test_iteration_pmf_requires_an_optimizer():
    with pytest.raises(ConfigError):
        run_iteration_pmf(small_config(methods=(Method.NONE,)))


def test_complexity_curve_rows():
    config = small_config(n_samp=500)  # FLOP ratios assume the full noise budget
    rows = run_complexity_curve(config.n_tx_grid, config.complexity_inputs())
    assert len(rows) == len(config.n_tx_grid) * 3
    for n_tx in config.n_tx_grid:
        at_n = {r["method"]: r["flops"] for r in rows if r["n_tx"] == n_tx}
        assert at_n["max-asr-gd"] < at_n["max-asr-sca"] < at_n["max-sr-gd"]
    at32 = {r["method"]: r["flops"] for r in rows if r["n_tx"] == 32}
    assert at32["max-sr-gd"] / at32["max-asr-gd"] >= 100


def test_qam_pipeline():
    config = small_config(M=4, scheme="qam", snr_db_grid=(10.0,), n_channels=2)
    rows = run_sr_vs_snr(config)
    assert len(rows) == 2
    assert all(np.isfinite(r["mean_sr_mc"]) for r in rows)


def test_write_rows_formats_nine_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    write_rows(path, ("a", "b"), [{"a": 1.23456789123456, "b": 3}])
    text = path.read_text().splitlines()
    assert text[0] == "a,b"
    assert text[1] == "1.23456789,3"
