"""The runtime needs numpy only, and every per-link quantity comes from one whitened channel.

* ``import smsec`` loads no scipy, and a study instance at each benchmark
  shape (``desk``, ``wide``, ``mc`` in ``perfbench/workloads.py``) runs with
  scipy blocked and imports no further module once smsec is loaded.
* :class:`~smsec.metrics.QuadFormCache` derives each link's Gram (the
  Hermitian part of F^H F) and its rank bound min(N, N_t) from the whitened
  channel F, and SR-GD's frozen links take the same Gram.
* SR-GD's factored kernel writes its K x S arrays into one workspace owned
  by the objective: an evaluation allocates no array of that size, and its
  results equal those of the allocating kernel kept below, bit for bit.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smsec import metrics, optim
from smsec.metrics import QuadFormCache
from smsec.model import _noiseless_points
from smsec.optim import _SampledSecrecyObjective

from conftest import make_instance

ROOT = Path(__file__).resolve().parents[1]


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_loads_no_scipy():
    out = run_python(
        """
        import sys
        import smsec
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    assert out.strip() == "[]"


def test_one_instance_per_benchmark_shape_imports_nothing():
    # A module numpy loads on first use would otherwise be imported inside
    # the first instance, and counted in its time and traced memory.
    out = run_python(
        f"""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now fails
        from dataclasses import replace
        import smsec
        from smsec.harness import Method

        base = replace(
            smsec.load_config({str(ROOT / "configs" / "benchmark.cfg")!r}),
            n_channels=1,
            snr_db_grid=(5.0,),
        )
        shapes = {{
            "desk": base,
            "wide": replace(base, n_tx=16, M=4, methods=(Method.NONE, Method.MAX_ASR_GD)),
            "mc": replace(base, n_samp=2000, methods=(Method.NONE, Method.MAX_SR_GD)),
        }}
        before = set(sys.modules)
        for name, config in shapes.items():
            smsec.run_sr_vs_snr(config)
            print(name, sorted(set(sys.modules) - before))
        """
    )
    assert out.splitlines() == ["desk []", "wide []", "mc []"]


@pytest.mark.parametrize("n_tx,n_b,n_e", [(4, 2, 2), (4, 1, 3), (5, 2, 6), (16, 2, 2)])
def test_cache_grams_are_the_hermitian_part_of_the_factor_grams(n_tx, n_b, n_e):
    channels, proj, powers, codebook, cache = make_instance(
        seed=n_tx + n_e, n_tx=n_tx, n_b=n_b, n_e=n_e
    )
    objective = _SampledSecrecyObjective(
        channels, proj, powers, codebook, 8, np.random.default_rng(0)
    )
    for side, link in (("bob", objective.bob), ("eve", objective.eve)):
        F = cache.factor(side)
        gram = F.conj().T @ F
        assert np.array_equal(cache.gram(side), (gram + gram.conj().T) / 2)
        assert np.array_equal(link.F, F)
        assert cache.noise_dim(side) == min(F.shape)


def test_replacing_the_factors_swaps_grams_and_noise_dims():
    *_, cache = make_instance(seed=2, n_tx=4, n_b=1, n_e=3)
    assert (cache.noise_dim("bob"), cache.noise_dim("eve")) == (1, 3)
    swapped = dataclasses.replace(cache, factor_b=cache.factor_e, factor_e=cache.factor_b)
    assert np.array_equal(swapped.gram("bob"), cache.gram("eve"))
    assert np.array_equal(swapped.gram("eve"), cache.gram("bob"))
    assert (swapped.noise_dim("bob"), swapped.noise_dim("eve")) == (3, 1)


def test_grams_are_not_constructor_arguments():
    *_, cache = make_instance(seed=2)
    with pytest.raises(TypeError):
        QuadFormCache(
            signals=cache.signals,
            p1=cache.p1,
            n_tx=cache.n_tx,
            M=cache.M,
            factor_b=cache.factor_b,
            factor_e=cache.factor_e,
            gram_b=cache.gram_b,
            gram_e=cache.gram_e,
        )


def test_sr_gd_evaluation_allocates_no_sample_sized_array():
    n_samp = 2000
    channels, proj, powers, codebook, _ = make_instance(seed=3)
    objective = _SampledSecrecyObjective(
        channels, proj, powers, codebook, n_samp, np.random.default_rng(1)
    )
    v = np.ones(4, dtype=complex)
    objective.value_and_gradient(v)
    tracemalloc.start()
    try:
        objective.value_and_gradient(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < codebook.n_signals * n_samp * 8  # one (K, S) float array: 125 KiB


def test_a_sampled_link_stores_its_samples_once():
    # The complex rows are rebuilt from the real stacked array, bit for bit
    # and in the layout they were drawn in.
    F = np.ones((3, 4), dtype=complex)
    link = metrics._SampledLink.draw(F, np.random.default_rng(8), 50)
    rng = np.random.default_rng(8)
    want = (rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))) / np.sqrt(2.0)
    assert np.array_equal(link.noise, want) and link.noise.flags.c_contiguous
    assert np.array_equal(link.stacked, np.concatenate([want.real.T, want.imag.T]))
    assert [f.name for f in dataclasses.fields(link)] == ["F", "stacked"]


def allocating_mc_link(T, link, axis=0, work=None, weights=False):
    """``_mc_link``'s factored kernel with a new array for each K x S result (``work`` is ignored).

    Beyond the spread limit it returns ``_mc_link``'s direct result, which
    writes only u to the workspace.
    """
    u = (2 * np.concatenate([T.real, T.imag])).T @ link.stacked
    top = u.max(axis=0)
    if np.max(top - u.min(axis=0)) > metrics._MC_SPREAD_LIMIT:
        return metrics._mc_link(T, link, axis, None, weights)
    u -= top
    e = np.exp(u, out=u)
    X = np.exp(metrics._sq_distances(T, -1.0))
    np.fill_diagonal(X, 0.0)
    Xe = X @ e
    inner = Xe / e
    inner += 1.0
    mi = np.log2(T.shape[1]) - np.mean(np.log2(inner), axis=axis)
    if not weights:
        return mi, None
    g = np.add(e, Xe)
    np.reciprocal(g, out=g)
    r_minus_c = e * (X @ g)
    np.subtract(Xe * g, r_minus_c, out=r_minus_c)
    return mi, (X * (g @ e.T), r_minus_c)


@pytest.mark.parametrize("n_samp", [500, 2000])
@pytest.mark.parametrize("snr_db", [0, 15, 35])
@pytest.mark.parametrize("n_tx,M", [(4, 2), (8, 4), (16, 4)])
def test_workspace_equals_the_allocating_kernel(monkeypatch, n_tx, M, snr_db, n_samp):
    channels, proj, powers, codebook, _ = make_instance(
        seed=n_tx + M, n_tx=n_tx, M=M, sigma2=10 ** (-snr_db / 10)
    )
    objective = _SampledSecrecyObjective(
        channels, proj, powers, codebook, n_samp, np.random.default_rng(snr_db)
    )
    rng = np.random.default_rng(n_tx * 100 + snr_db)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)

    for link in (objective.bob, objective.eve):
        T = _noiseless_points(link.F, v, objective.signals, objective.p1)
        for axis in (0, None):
            for weights in (False, True):
                want_mi, want_w = allocating_mc_link(T, link, axis, weights=weights)
                work = np.empty((4, *T.shape[1:], n_samp))
                got_mi, got_w = metrics._mc_link(T, link, axis, work, weights)
                assert np.array_equal(got_mi, want_mi)
                assert (got_w is None) == (want_w is None) == (not weights)
                for a, b in zip(got_w or (), want_w or ()):
                    assert np.array_equal(a, b)

    value, grad = objective.value_and_gradient(v)
    monkeypatch.setattr(optim, "_mc_link", allocating_mc_link)
    want_value, want_grad = objective.value_and_gradient(v)
    assert value == want_value
    assert np.array_equal(grad, want_grad)
