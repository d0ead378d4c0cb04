"""The public surface: the top-level names, where the internals live, the README example."""

import importlib
import re
from pathlib import Path

import pytest

import smsec

PUBLIC = {
    "ChannelPair",
    "ComplexityInputs",
    "ConfigError",
    "ExperimentConfig",
    "FlopMethod",
    "GDParams",
    "Method",
    "NumericalError",
    "OptTrace",
    "PowerConfig",
    "SCAParams",
    "an_projector",
    "asr",
    "asr_gradient",
    "build_cache",
    "default_precoder",
    "f1",
    "flops",
    "grad_f1",
    "link_rate_approx",
    "load_config",
    "make_codebook",
    "max_asr_gd",
    "max_asr_sca",
    "max_sr_gd",
    "mi_lower_bound",
    "mi_monte_carlo",
    "noise_covariance",
    "parse_config_text",
    "power_sweep_rounding",
    "project_spectrahedron",
    "run_cdf",
    "run_complexity_curve",
    "run_iteration_pmf",
    "run_sr_vs_snr",
    "sample_channel",
    "secrecy_rate_mc",
    "substream",
    "whiten",
    "write_rows",
}

# Names that are not at the top level, by the module that defines them.
MODULE_ONLY = {
    "smsec.complexity": ["SDP_IPM_CONSTANT"],
    "smsec.metrics": ["MIEstimate", "QuadFormCache", "log2sumexp2", "secrecy_rate_mc_estimate"],
    "smsec.model": ["ANProjector", "SMCodebook", "Scheme", "ml_detect", "sm_signal", "transmit"],
    "smsec.optim": ["f2", "random_precoder", "relaxed_asr", "solve_sca_subproblem"],
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_is_the_agreed_set():
    assert len(smsec.__all__) == len(PUBLIC) == 40
    assert set(smsec.__all__) == PUBLIC
    for name in smsec.__all__:
        assert getattr(smsec, name) is not None, name


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_module_only_names_import_from_their_module(module):
    mod = importlib.import_module(module)
    for name in MODULE_ONLY[module]:
        assert getattr(mod, name) is not None, name
        assert name in mod.__all__, name
        assert not hasattr(smsec, name), name


def test_full_power_rounding_is_gone():
    assert not hasattr(smsec, "extract_precoder")
    assert not hasattr(importlib.import_module("smsec.optim"), "extract_precoder")


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:library-example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("closed-form secrecy rate:")
    assert lines[1].startswith("sampled secrecy rate:")
    assert all(float(line.rsplit(":", 1)[1]) >= 0 for line in lines)
