import numpy as np
import pytest

from smsec import make_codebook
from smsec.model import Scheme, sm_signal


def assert_same_constellation(symbols, expected, tol=1e-12):
    """Set equality of two constellations up to tol (order-free)."""
    symbols = np.sort_complex(np.asarray(symbols))
    expected = np.sort_complex(np.asarray(expected))
    assert np.allclose(symbols, expected, atol=tol)


def test_bpsk():
    cb = make_codebook(2, "psk", 4)
    assert_same_constellation(cb.symbols, [1, -1])


def test_qpsk_unit_circle():
    cb = make_codebook(4, "psk", 4)
    assert_same_constellation(cb.symbols, [1, 1j, -1, -1j])


def test_16qam_grid_scaling():
    cb = make_codebook(16, "qam", 4)
    levels = np.array([-3, -1, 1, 3])
    grid = (levels[:, None] + 1j * levels[None, :]).ravel() / np.sqrt(10)
    assert_same_constellation(cb.symbols, grid)


@pytest.mark.parametrize(
    "M,scheme",
    [(2, "psk"), (4, "psk"), (8, "psk"), (16, "psk"), (32, "psk"),
     (4, "qam"), (16, "qam"), (64, "qam")],
)
def test_unit_average_energy(M, scheme):
    cb = make_codebook(M, scheme, 4)
    assert abs(np.mean(np.abs(cb.symbols) ** 2) - 1.0) <= 1e-12
    assert len(set(np.round(cb.symbols, 9))) == M


def test_spectral_efficiency():
    assert make_codebook(2, "psk", 4).spectral_efficiency == 3.0
    assert make_codebook(4, "psk", 8).spectral_efficiency == 5.0


@pytest.mark.parametrize("M,scheme", [(3, "psk"), (6, "psk"), (8, "qam"), (2, "qam"), (1, "psk")])
def test_unsupported_combinations(M, scheme):
    with pytest.raises(ValueError):
        make_codebook(M, scheme, 4)


def test_scheme_enum_accepts_strings():
    assert make_codebook(2, Scheme.PSK, 4).scheme is Scheme.PSK
    assert make_codebook(2, "PSK".lower(), 4).scheme is Scheme.PSK


def test_sm_signal_bpsk_first_antenna():
    cb = make_codebook(2, "psk", 4)
    np.testing.assert_allclose(sm_signal(cb, 1, 1), [1, 0, 0, 0], atol=1e-12)


def test_sm_signal_bpsk_third_antenna_second_symbol():
    cb = make_codebook(2, "psk", 4)
    np.testing.assert_allclose(sm_signal(cb, 3, 2), [0, 0, -1, 0], atol=1e-12)


def test_sm_signal_qpsk():
    cb = make_codebook(4, "psk", 4)
    np.testing.assert_allclose(sm_signal(cb, 2, 2), [0, 1j, 0, 0], atol=1e-12)


def test_sm_signal_index_errors():
    cb = make_codebook(2, "psk", 4)
    for n, m in [(0, 1), (5, 1), (1, 0), (1, 3)]:
        with pytest.raises(ValueError):
            sm_signal(cb, n, m)


def test_signal_matrix_is_antenna_major():
    cb = make_codebook(2, "psk", 3)
    mat = cb.signal_matrix()
    assert mat.shape == (3, 6)
    for n in range(1, 4):
        for m in range(1, 3):
            k = (n - 1) * cb.M + (m - 1)
            np.testing.assert_array_equal(mat[:, k], sm_signal(cb, n, m))
