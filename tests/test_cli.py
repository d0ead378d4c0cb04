import numpy as np
import pytest

from smsec import NumericalError
from smsec.cli import main

TINY_CONFIG = """
n_tx = 4
M = 2
snr_db_grid = 0, 10
n_channels = 2
n_samp = 32
methods = none, max-asr-gd
seed = 3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return path


def test_sr_vs_snr_command(config_file, tmp_path):
    out = tmp_path / "out"
    code = main(["sr-vs-snr", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    csv_path = out / "sr_vs_snr.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "snr_db,method,mean_sr_mc,mean_asr,std_err"
    script = out / "plot_sr_vs_snr.py"
    compile(script.read_text(), str(script), "exec")  # valid python


def test_cdf_command(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["cdf", "--config", str(config_file), "--out", str(out)]) == 0
    header = (out / "cdf.csv").read_text().splitlines()[0]
    assert header == "snr_db,method,trial,sr"
    script = out / "plot_cdf.py"
    compile(script.read_text(), str(script), "exec")


def test_iters_command(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["iters", "--config", str(config_file), "--out", str(out)]) == 0
    header = (out / "iterations.csv").read_text().splitlines()[0]
    assert header == "method,trial,iterations"


def test_flops_command(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["flops", "--config", str(config_file), "--out", str(out)]) == 0
    lines = (out / "flops.csv").read_text().splitlines()
    assert lines[0] == "n_tx,method,flops"
    assert len(lines) == 1 + 5 * 3
    # the emitted plot script runs and renders the figure
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, str(out / "plot_flops.py")], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert (out / "flops.png").exists()


def test_seed_override_changes_output(config_file, tmp_path):
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["sr-vs-snr", "--config", str(config_file), "--out", str(out1)])
    main(["sr-vs-snr", "--config", str(config_file), "--out", str(out2), "--seed", "99"])
    main(["sr-vs-snr", "--config", str(config_file), "--out", str(out3), "--seed", "99"])
    base = (out1 / "sr_vs_snr.csv").read_bytes()
    seeded = (out2 / "sr_vs_snr.csv").read_bytes()
    repeat = (out3 / "sr_vs_snr.csv").read_bytes()
    assert base != seeded
    assert seeded == repeat


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_tx = 2\nn_b = 2\n")  # null space empty
    assert main(["sr-vs-snr", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "line",
    [
        "M = 3",
        "M = 1099511627776",
        "n_channels = 2.5",
        "n_tx = 4.0",
        "n_samp = 1e2",
        "snr_db_grid = abc",
        "snr_db_grid = nan",
        "gd.max_iters = 2.5",
        "sca.inner_max = 2.5",
        "n_tx_grid = 4, 8.5",
        "n_tx_grid = 0",
        "solver_accuracy = abc",
        "gd.step_init = nan",
        "sca.tol = nan",
    ],
)
def test_malformed_value_exit_code(line, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CONFIG + line + "\n")  # the last value of a key wins
    assert main(["sr-vs-snr", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_missing_config_exit_code(tmp_path):
    assert main(["cdf", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


def test_non_utf8_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(TINY_CONFIG.encode() + b"\xff\n")
    assert main(["sr-vs-snr", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_output_path_is_a_file_exit_code(config_file, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["flops", "--config", str(config_file), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


def test_unparseable_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("what even is this\n")
    assert main(["flops", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_numerical_failure_exit_code(config_file, tmp_path, monkeypatch):
    import smsec.cli as cli

    def boom(config, out_dir):
        raise NumericalError("rank-deficient channel")

    monkeypatch.setitem(cli._COMMANDS, "sr-vs-snr", boom)
    code = main(["sr-vs-snr", "--config", str(config_file), "--out", str(tmp_path / "o")])
    assert code == 3
