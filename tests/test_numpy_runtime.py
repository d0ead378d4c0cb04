"""The runtime needs numpy only, and every per-link quantity comes from one whitened channel.

* ``import smsec`` loads no scipy, and a study instance at each benchmark
  shape (``desk``, ``wide``, ``mc`` in ``perfbench/workloads.py``) runs with
  scipy blocked and imports no further module once smsec is loaded.
* :class:`~smsec.metrics.QuadFormCache` derives each link's Gram (the
  Hermitian part of F^H F) and its rank bound min(N, N_t) from the whitened
  channel F, and SR-GD's frozen samples match each link's receive dimension.  It also derives
  the stack of both links' F that ``asr`` and ASR-GD take in one pass, the
  shorter link padded by zero rows.
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
from smsec.model import _noiseless_points, _point_basis
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
    *_, cache = make_instance(seed=n_tx + n_e, n_tx=n_tx, n_b=n_b, n_e=n_e)
    objective = _SampledSecrecyObjective(cache, 8, np.random.default_rng(0))
    for side, samples in (("bob", objective.bob), ("eve", objective.eve)):
        F = cache.factor(side)
        gram = F.conj().T @ F
        assert np.array_equal(cache.gram(side), (gram + gram.conj().T) / 2)
        assert samples.shape == (2 * F.shape[0], 8)
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


@pytest.mark.parametrize("n_b,n_e", [(1, 3), (2, 2), (3, 1)])
def test_the_link_stack_is_derived_from_the_factors(n_b, n_e):
    *_, cache = make_instance(seed=2, n_tx=4, n_b=n_b, n_e=n_e)
    swapped = dataclasses.replace(cache, factor_b=cache.factor_e, factor_e=cache.factor_b)
    # The links' point bases are stacked, the shorter link padded by zero rows.
    for c in (cache, swapped):
        n_rx = max(n_b, n_e)
        assert c.basis.shape == (2, n_rx, 4, c.M)
        for stacked, F in zip(c.basis, (c.factor_b, c.factor_e)):
            assert np.array_equal(stacked[: F.shape[0]], _point_basis(F, c.symbols, c.p1))
            assert not np.any(stacked[F.shape[0] :])
    for name in ("basis", "pull_basis", "symbols"):
        with pytest.raises(TypeError):
            QuadFormCache(
                signals=cache.signals,
                p1=cache.p1,
                n_tx=cache.n_tx,
                M=cache.M,
                factor_b=cache.factor_b,
                factor_e=cache.factor_e,
                **{name: getattr(cache, name)},
            )


def test_sr_gd_evaluation_allocates_no_sample_sized_array():
    n_samp = 2000
    *_, codebook, cache = make_instance(seed=3)
    objective = _SampledSecrecyObjective(cache, n_samp, np.random.default_rng(1))
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
    # A link's samples are one real array [Re W; Im W]: the complex samples
    # as drawn (real parts of all, then imaginary parts) are split into it
    # bit for bit, and no complex copy is kept.
    for n_rx, n_samp, seed in [(3, 50, 8), (1, 777, 3), (2, 2000, 1), (6, 5000, 4)]:
        samples = metrics._draw_samples(n_rx, n_samp, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        shape = (n_samp, n_rx)
        want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        assert samples.dtype == np.float64 and samples.shape == (2 * n_rx, n_samp)
        assert np.array_equal(samples, np.concatenate([want.real.T, want.imag.T]))


def allocating_mc_link(T, samples, weights=False, work=None, radius=None):
    """``_mc_link``'s factored chunks with a new array for each K x chunk result.

    ``work`` is ignored, and so is ``radius``: every chunk takes the exact
    spread check.  A chunk beyond the spread limit takes ``_mc_chunk``'s
    direct result without a workspace.
    """
    K, n_samp = T.shape[1], samples.shape[1]
    width = metrics._mc_chunk_width(K, n_samp)
    points = (2 * np.concatenate([T.real, T.imag])).T
    X = np.exp(metrics._sq_distances(T, -1.0))
    np.fill_diagonal(X, 0.0)
    per_sample, total = [], 0.0
    P, G, Y = np.zeros((K, K)), np.zeros((K, K)), np.zeros((samples.shape[0], K))
    for start in range(0, n_samp, width):
        chunk = samples[:, start : start + width]
        u = points @ chunk
        top = u.max(axis=0)
        if np.max(top - u.min(axis=0)) > metrics._MC_SPREAD_LIMIT:
            accumulators = (P, G, Y) if weights else None
            got = metrics._mc_chunk(T, points, X, chunk, True, None, accumulators)
        else:
            e = np.exp(u - top)
            Xe = X @ e
            inner = np.log2(Xe / e + 1.0)
            if not weights:
                got = np.log2(K) - (np.ones(K) @ inner) / K
            else:
                got = np.sum(inner)
                g = 1.0 / (e + Xe)
                G += g @ e.T
                Y += chunk @ (Xe * g - e * (X @ g)).T
        if weights:
            total += got
        else:
            per_sample.append(got)
    if not weights:
        return np.concatenate(per_sample)
    return np.log2(K) - total / (K * n_samp), P + X * G, Y


@pytest.mark.parametrize("n_samp", [500, 2000])
@pytest.mark.parametrize("snr_db", [0, 15, 35])
@pytest.mark.parametrize("n_tx,M", [(4, 2), (8, 4), (16, 4)])
def test_workspace_equals_the_allocating_kernel(monkeypatch, n_tx, M, snr_db, n_samp):
    # (8, 4) at 2000 samples and (16, 4) take several chunks, the last one
    # narrower than the workspace; 35 dB reaches the direct kernel.
    *_, cache = make_instance(seed=n_tx + M, n_tx=n_tx, M=M, sigma2=10 ** (-snr_db / 10))
    objective = _SampledSecrecyObjective(cache, n_samp, np.random.default_rng(snr_db))
    rng = np.random.default_rng(n_tx * 100 + snr_db)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)

    for F, samples in ((cache.factor_b, objective.bob), (cache.factor_e, objective.eve)):
        T = _noiseless_points(F, v, cache.symbols, cache.p1)
        for weights in (False, True):
            want = allocating_mc_link(T, samples, weights)
            got = metrics._mc_link(T, samples, weights, objective._work)
            if not weights:
                assert np.array_equal(got, want)
            else:
                assert got[0] == want[0]
                assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))

    value, grad = objective.value_and_gradient(v)
    monkeypatch.setattr(optim, "_mc_link", allocating_mc_link)
    want_value, want_grad = objective.value_and_gradient(v)
    assert value == want_value
    assert np.array_equal(grad, want_grad)
