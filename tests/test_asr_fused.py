"""ASR-GD's fused value-and-gradient pass against the separate evaluations.

``_asr_value_and_gradient`` takes each link's quadratic forms and softmax
once and returns both the approximate secrecy rate and its gradient.  Its
value must equal ``asr(cache, v, clamp=False)`` bit for bit, and ASR-GD
driven by it must retrace, step for step, the ascent that evaluated
``asr`` and ``asr_gradient`` separately for each candidate.
"""

import numpy as np
import pytest

from smsec import GDParams, asr, asr_gradient, default_precoder, max_asr_gd
from smsec.optim import _ascend, _asr_value_and_gradient, relaxed_asr

from conftest import make_instance

SHAPES = [(4, 2), (8, 4), (16, 4)]
SNRS_DB = [-40, 0, 15, 90]
LINKS = [(2, 2), (2, 3), (1, 6)]


def cases():
    for n_tx, M in SHAPES:
        for snr_db in SNRS_DB:
            for n_b, n_e in LINKS:
                yield pytest.param(
                    n_tx, M, snr_db, n_b, n_e, id=f"{n_tx}x{M}-{snr_db}dB-{n_b}x{n_e}"
                )


def case_instance(n_tx, M, snr_db, n_b, n_e):
    """The quadratic-form cache of one grid case and a full-power random precoder."""
    *_, cache = make_instance(
        seed=n_tx + M + n_e, n_tx=n_tx, n_b=n_b, n_e=n_e, M=M, sigma2=10 ** (-snr_db / 10)
    )
    rng = np.random.default_rng(n_tx * 100 + M)
    v = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
    v *= np.sqrt(n_tx) / np.linalg.norm(v)
    return cache, v


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_fused_pass_equals_separate_evaluations(n_tx, M, snr_db, n_b, n_e):
    cache, v = case_instance(n_tx, M, snr_db, n_b, n_e)
    value, grad = _asr_value_and_gradient(cache, v)
    assert np.isfinite(value)
    assert np.all(np.isfinite(grad))
    assert value == asr(cache, v, clamp=False)
    assert asr(cache, v, clamp=False) == relaxed_asr(cache, np.outer(v, v.conj()))
    np.testing.assert_array_equal(grad, asr_gradient(cache, v))


@pytest.mark.parametrize("n_tx,M,snr_db,n_b,n_e", cases())
def test_asr_gd_retraces_the_separate_ascent(n_tx, M, snr_db, n_b, n_e):
    cache, _ = case_instance(n_tx, M, snr_db, n_b, n_e)
    v0, params = default_precoder(n_tx), GDParams()
    got = max_asr_gd(cache, v0, params)
    want = _ascend(lambda v: (asr(cache, v), asr_gradient(cache, v)), v0, n_tx, params)
    assert all(np.isfinite(got.objective_history))
    assert np.all(np.isfinite(got.final_vector))
    assert got.objective_history == want.objective_history
    assert got.iterations == want.iterations
    assert got.stop_reason == want.stop_reason
    np.testing.assert_array_equal(got.final_vector, want.final_vector)
