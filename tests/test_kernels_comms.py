"""Tests for the WiFi communication kernels: scrambler, coding,
interleaver, modulation, pilots, CRC, channel, matched filter."""

from __future__ import annotations

import binascii

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.kernels import (
    channel,
    coding,
    crc,
    interleaver,
    matched_filter,
    modulation,
    pilots,
    scrambler,
)

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=128).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)


class TestScrambler:
    def test_roundtrip(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        assert np.array_equal(
            scrambler.descramble(scrambler.scramble(bits)), bits
        )

    def test_sequence_period_is_127(self):
        seq = scrambler.scrambler_sequence(254)
        assert np.array_equal(seq[:127], seq[127:])
        assert not np.array_equal(seq[:63], seq[63:126])

    def test_whitening_balances_ones(self):
        zeros = np.zeros(127, dtype=np.uint8)
        out = scrambler.scramble(zeros)
        assert 40 <= int(out.sum()) <= 90  # LFSR output is balanced

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            scrambler.scrambler_sequence(8, seed=0)

    def test_non_binary_input_rejected(self):
        with pytest.raises(ValueError):
            scrambler.scramble(np.array([0, 2], dtype=np.uint8))

    @given(bit_arrays, st.integers(min_value=1, max_value=127))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property_any_seed(self, bits, seed):
        assert np.array_equal(
            scrambler.descramble(scrambler.scramble(bits, seed), seed), bits
        )


class TestCoding:
    def test_rate_is_half_with_termination(self):
        bits = np.zeros(10, dtype=np.uint8)
        coded = coding.conv_encode(bits)
        assert coded.size == 2 * (10 + coding.K - 1)

    def test_all_zero_input_encodes_to_zeros(self):
        coded = coding.conv_encode(np.zeros(8, dtype=np.uint8))
        assert not coded.any()

    def test_decode_recovers_clean_stream(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 48).astype(np.uint8)
        decoded = coding.viterbi_decode(coding.conv_encode(bits), bits.size)
        assert np.array_equal(decoded, bits)

    def test_decode_corrects_scattered_errors(self):
        rng = np.random.default_rng(6)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        coded = coding.conv_encode(bits)
        corrupted = coded.copy()
        # flip 4 well-separated coded bits: within the code's correction power
        for pos in (5, 40, 80, 120):
            corrupted[pos] ^= 1
        decoded = coding.viterbi_decode(corrupted, bits.size)
        assert np.array_equal(decoded, bits)

    def test_odd_length_stream_rejected(self):
        with pytest.raises(ValueError):
            coding.viterbi_decode(np.zeros(7, dtype=np.uint8))

    def test_non_binary_input_rejected(self):
        with pytest.raises(ValueError):
            coding.conv_encode(np.array([0, 3], dtype=np.uint8))

    @given(bit_arrays)
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, bits):
        decoded = coding.viterbi_decode(coding.conv_encode(bits), bits.size)
        assert np.array_equal(decoded, bits)


class TestInterleaver:
    def test_roundtrip(self):
        bits = np.arange(32) % 2
        out = interleaver.deinterleave(interleaver.interleave(bits, 8), 8)
        assert np.array_equal(out, bits)

    def test_disperses_bursts(self):
        bits = np.arange(64)
        inter = interleaver.interleave(bits, 16)
        # a burst of 4 adjacent positions in the interleaved stream maps to
        # symbols at least 4 apart in the original
        positions = inter[10:14]
        assert np.min(np.abs(np.diff(positions))) >= 4

    def test_indivisible_length_rejected(self):
        with pytest.raises(ValueError):
            interleaver.interleave(np.zeros(10), 4)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, rows, cols):
        bits = np.arange(rows * cols)
        out = interleaver.deinterleave(interleaver.interleave(bits, cols), cols)
        assert np.array_equal(out, bits)


class TestModulation:
    def test_roundtrip(self):
        bits = np.array([0, 0, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(
            modulation.qpsk_demodulate(modulation.qpsk_modulate(bits)), bits
        )

    def test_unit_symbol_energy(self):
        symbols = modulation.qpsk_modulate(np.array([0, 1, 1, 0], dtype=np.uint8))
        assert np.allclose(np.abs(symbols), 1.0)

    def test_odd_bit_count_rejected(self):
        with pytest.raises(ValueError):
            modulation.qpsk_modulate(np.array([1], dtype=np.uint8))

    def test_noise_tolerance(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        symbols = modulation.qpsk_modulate(bits)
        noisy = symbols + 0.2 * (
            rng.standard_normal(32) + 1j * rng.standard_normal(32)
        )
        assert np.array_equal(modulation.qpsk_demodulate(noisy), bits)

    @given(bit_arrays.filter(lambda b: b.size % 2 == 0))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, bits):
        assert np.array_equal(
            modulation.qpsk_demodulate(modulation.qpsk_modulate(bits)), bits
        )


class TestPilots:
    def test_layout_counts(self):
        assert pilots.N_DATA == 48
        assert len(pilots.PILOT_INDICES) == 4
        assert (
            len(pilots.DATA_INDICES)
            + len(pilots.PILOT_INDICES)
            + len(pilots.NULL_INDICES)
            == pilots.SYMBOL_SIZE
        )

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        frame = pilots.insert_pilots(data)
        assert np.allclose(pilots.remove_pilots(frame), data)

    def test_pilot_values_placed(self):
        frame = pilots.insert_pilots(np.zeros(48, dtype=complex))
        assert np.array_equal(frame[pilots.PILOT_INDICES], pilots.PILOT_VALUES)
        assert frame[0] == 0  # null carriers stay empty

    def test_wrong_data_count_rejected(self):
        with pytest.raises(ValueError):
            pilots.insert_pilots(np.zeros(47, dtype=complex))
        with pytest.raises(ValueError):
            pilots.remove_pilots(np.zeros(63, dtype=complex))


def byte_bits(payload: bytes) -> np.ndarray:
    """``payload`` as a bit stream, LSB first within each byte (802.3)."""
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")


class TestCrc:
    def test_matches_binascii_for_bytes(self):
        payload = b"hello dssoc"
        assert crc.crc32_bits(byte_bits(payload)) == binascii.crc32(payload)

    def test_sensitive_to_single_bit_flip(self):
        bits = np.zeros(32, dtype=np.uint8)
        base = crc.crc32_bits(bits)
        bits[17] = 1
        assert crc.crc32_bits(bits) != base

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            crc.crc32_bits(np.array([2], dtype=np.uint8))

    @given(st.binary(min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_matches_binascii_property(self, payload):
        assert crc.crc32_bits(byte_bits(payload)) == binascii.crc32(payload)


class TestChannel:
    def test_awgn_hits_requested_snr(self):
        rng = np.random.default_rng(9)
        signal = np.exp(2j * np.pi * np.arange(4096) / 32)
        noisy = channel.awgn(signal, 20.0, rng)
        noise_power = np.mean(np.abs(noisy - signal) ** 2)
        measured = 10.0 * np.log10(np.mean(np.abs(signal) ** 2) / noise_power)
        assert measured == pytest.approx(20.0, abs=0.6)

    def test_zero_signal_passthrough(self):
        out = channel.awgn(np.zeros(16), 10.0, np.random.default_rng(0))
        assert not out.any()


class TestMatchedFilter:
    def test_detects_frame_start(self):
        template = matched_filter.preamble_sequence(32)
        stream = np.zeros(200, dtype=complex)
        stream[60:92] = template
        assert matched_filter.detect_frame_start(stream, template) == 60

    def test_detection_under_noise(self):
        rng = np.random.default_rng(10)
        template = matched_filter.preamble_sequence(32)
        stream = 0.1 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
        stream[25:57] += template
        assert matched_filter.detect_frame_start(stream, template) == 25

    def test_preamble_deterministic(self):
        assert np.array_equal(
            matched_filter.preamble_sequence(16),
            matched_filter.preamble_sequence(16),
        )

    def test_extract_payload(self):
        stream = np.arange(100, dtype=complex)
        payload = matched_filter.extract_payload(stream, 10, 5, 20)
        assert np.array_equal(payload, np.arange(15, 35))

    def test_extract_payload_bounds(self):
        with pytest.raises(ValueError):
            matched_filter.extract_payload(np.zeros(10), 5, 4, 10)

    def test_template_longer_than_stream_rejected(self):
        with pytest.raises(ValueError):
            matched_filter.matched_filter(np.zeros(4), np.zeros(8))
