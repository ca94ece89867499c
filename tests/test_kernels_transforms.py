"""Tests for FFT ops, LFM chirps and correlation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.kernels import correlation, fftops, lfm


def xcorr(rx: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Circular cross-correlation through the kept blocks: FFT both,
    ``correlate_spectra``, inverse FFT."""
    return fftops.ifft(
        correlation.correlate_spectra(fftops.fft(rx), fftops.fft(ref))
    )


def complex_arrays(min_size=4, max_size=32):
    sizes = st.integers(min_value=min_size, max_value=max_size)
    return sizes.flatmap(
        lambda n: arrays(
            np.complex128,
            (n,),
            elements=st.complex_numbers(
                max_magnitude=1e3, allow_nan=False, allow_infinity=False
            ),
        )
    )


class TestFftOps:
    @given(complex_arrays())
    @settings(max_examples=25, deadline=None)
    def test_fft_ifft_inverse_property(self, x):
        assert np.allclose(fftops.ifft(fftops.fft(x)), x, atol=1e-6)

    @given(complex_arrays(min_size=4, max_size=16))
    @settings(max_examples=15, deadline=None)
    def test_parseval_property(self, x):
        # energy preserved up to the 1/N convention
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(fftops.fft(x)) ** 2) / x.size
        assert freq_energy == pytest.approx(time_energy, rel=1e-6, abs=1e-6)


class TestLfm:
    def test_chirp_has_unit_magnitude(self):
        wf = lfm.lfm_chirp(128)
        assert np.allclose(np.abs(wf), 1.0)

    def test_chirp_length(self):
        assert lfm.lfm_chirp(64).shape == (64,)

    def test_chirp_rejects_bad_size(self):
        with pytest.raises(ValueError):
            lfm.lfm_chirp(0)

    def test_delayed_echo_position_and_attenuation(self):
        wf = np.ones(16, dtype=complex)
        echo = lfm.delayed_echo(wf, 5, attenuation=0.5)
        assert np.all(echo[:5] == 0)
        assert echo[5] == 0.5

    def test_delayed_echo_bounds_checked(self):
        with pytest.raises(ValueError):
            lfm.delayed_echo(np.ones(8), 8)

    def test_echo_autocorrelation_peaks_at_delay(self):
        wf = lfm.lfm_chirp(256)
        echo = lfm.delayed_echo(wf, 40)
        idx, _mag, _lag = correlation.find_peak(xcorr(echo, wf))
        assert idx == 40


class TestCorrelation:
    def test_conjugate(self):
        x = np.array([1 + 2j, -3j])
        assert np.array_equal(correlation.conjugate(x), np.array([1 - 2j, 3j]))

    def test_vector_multiply_shape_mismatch(self):
        with pytest.raises(ValueError):
            correlation.vector_multiply(np.ones(4), np.ones(5))

    def test_correlate_spectra_formula(self):
        a = np.array([1 + 1j, 2.0])
        b = np.array([2j, 1 - 1j])
        assert np.allclose(correlation.correlate_spectra(a, b), a * np.conj(b))

    def test_find_peak_returns_lag(self):
        corr = np.array([0.0, 1.0, 5.0, 2.0])
        idx, mag, lag_s = correlation.find_peak(corr, sampling_rate=2.0)
        assert (idx, mag) == (2, 5.0)
        assert lag_s == pytest.approx(1.0)

    @given(st.integers(min_value=0, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_xcorr_recovers_any_delay_property(self, delay):
        # delays up to n/2: beyond that the truncated echo retains too few
        # chirp samples for the correlation peak to be discriminating
        wf = lfm.lfm_chirp(32)
        echo = lfm.delayed_echo(wf, delay)
        idx, _mag, _lag = correlation.find_peak(xcorr(echo, wf))
        assert idx == delay
