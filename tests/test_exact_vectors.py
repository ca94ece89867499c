"""Exact-vector tests: results that can be derived by hand."""

from __future__ import annotations

import numpy as np

from repro.appmodel.jsonspec import graph_from_json, graph_to_json
from repro.apps.kernels import coding, crc, pilots


class TestConvEncoderImpulseResponse:
    def test_impulse_response_is_the_generator_polynomials(self):
        """Encoding a single 1 bit traces the taps of G0=171o, G1=133o:
        the k-th output symbol is (bit k of G0, bit k of G1), MSB first."""
        out = coding.conv_encode(np.array([1], dtype=np.uint8))
        assert out.size == 2 * coding.K  # 1 payload bit + 6 tail bits
        g0_bits = [(coding.G0 >> (coding.K - 1 - k)) & 1 for k in range(coding.K)]
        g1_bits = [(coding.G1 >> (coding.K - 1 - k)) & 1 for k in range(coding.K)]
        assert out[0::2].tolist() == g0_bits
        assert out[1::2].tolist() == g1_bits

    def test_linearity_over_gf2(self):
        """conv_encode(a) XOR conv_encode(b) == conv_encode(a XOR b)."""
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, 24).astype(np.uint8)
        b = rng.integers(0, 2, 24).astype(np.uint8)
        lhs = coding.conv_encode(a) ^ coding.conv_encode(b)
        rhs = coding.conv_encode(a ^ b)
        assert np.array_equal(lhs, rhs)


class TestCrcKnownValues:
    def test_crc32_of_123456789(self):
        # the canonical CRC-32 check value
        bits = np.unpackbits(
            np.frombuffer(b"123456789", dtype=np.uint8), bitorder="little"
        )
        assert crc.crc32_bits(bits) == 0xCBF43926

    def test_crc32_of_empty_is_zero(self):
        assert crc.crc32_bits(np.zeros(0, dtype=np.uint8)) == 0


class TestDftKnownValues:
    def test_dft_of_impulse_is_all_ones(self):
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        assert np.allclose(np.fft.fft(x), np.ones(8), atol=1e-12)

    def test_dft_of_constant_is_scaled_impulse(self):
        x = np.ones(8, dtype=complex)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 8.0
        assert np.allclose(np.fft.fft(x), expected, atol=1e-9)

    def test_dft_of_single_tone_is_one_bin(self):
        n, k = 16, 3
        x = np.exp(2j * np.pi * k * np.arange(n) / n)
        spectrum = np.fft.fft(x)
        assert abs(spectrum[k] - n) < 1e-9
        mask = np.ones(n, dtype=bool)
        mask[k] = False
        assert np.max(np.abs(spectrum[mask])) < 1e-9


class TestPilotLayoutExact:
    def test_80211a_pilot_positions(self):
        # logical subcarriers -21, -7, +7, +21 after the DC-centered shift
        assert pilots.PILOT_INDICES.tolist() == [7, 21, 43, 57]

    def test_48_data_carriers(self):
        assert len(pilots.DATA_INDICES) == 48
        # data carriers avoid DC (32) and the guard band edges
        assert 32 not in pilots.DATA_INDICES.tolist()
        assert 0 not in pilots.DATA_INDICES.tolist()


class TestGeneratedGraphJson:
    def test_toolchain_graph_roundtrips_listing1_schema(self, tmp_path):
        """The auto-generated DAG must serialize to valid Listing-1 JSON and
        parse back structurally identical (kernels stay in the library)."""
        from repro.toolchain import convert

        def tiny(n: int):
            x = np.exp(2j * np.pi * np.arange(n) / n)
            x = x + 0.001
            out = [0j] * n
            for k in range(n):
                acc = 0j
                for i in range(n):
                    acc += x[i] * np.exp(-2j * np.pi * k * i / n)
                out[k] = acc
            peak = int(np.argmax(np.abs(np.asarray(out))))
            return peak

        result = convert(tiny, (8,))
        gen = result.generate("both")
        data = graph_to_json(gen.graph)
        again = graph_from_json(data)
        assert again.task_count == gen.graph.task_count
        assert graph_to_json(again) == data
        # the baked-in argument initializer survives the round trip
        decoded = int.from_bytes(bytes(again.variables["n"].val), "little",
                                 signed=True)
        assert decoded == 8
