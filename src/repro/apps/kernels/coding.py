"""Convolutional coding: rate-1/2 K=7 encoder and Viterbi decoder.

The industry-standard (171, 133)₈ code used by 802.11a/g.  The Viterbi
decoder is a full hard-decision implementation with traceback; it is the
compute-dominant kernel of WiFi RX (as on real silicon — the paper's
Table I shows RX ≈ 17× TX).
"""

from __future__ import annotations

import numpy as np

K = 7  # constraint length
G0 = 0o171
G1 = 0o133
_N_STATES = 1 << (K - 1)


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """next_state[state, bit] and output symbol out[state, bit] (2 bits)."""
    next_state = np.zeros((_N_STATES, 2), dtype=np.int32)
    outputs = np.zeros((_N_STATES, 2), dtype=np.int8)
    for state in range(_N_STATES):
        for bit in range(2):
            register = (bit << (K - 1)) | state
            out0 = _parity(register & G0)
            out1 = _parity(register & G1)
            next_state[state, bit] = register >> 1
            outputs[state, bit] = (out0 << 1) | out1
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode 0/1 bits at rate 1/2, terminated: K-1 zero tail bits are
    appended so the decoder can assume a final all-zeros state."""
    data = np.asarray(bits, dtype=np.uint8)
    if data.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    if np.any(data > 1):
        raise ValueError("bits must be 0/1 valued")
    data = np.concatenate([data, np.zeros(K - 1, dtype=np.uint8)])
    out = np.empty(2 * data.size, dtype=np.uint8)
    state = 0
    for i, bit in enumerate(data):
        symbol = _OUTPUTS[state, bit]
        out[2 * i] = (symbol >> 1) & 1
        out[2 * i + 1] = symbol & 1
        state = _NEXT_STATE[state, bit]
    return out


def viterbi_decode(coded: np.ndarray, n_payload_bits: int | None = None) -> np.ndarray:
    """Hard-decision Viterbi decode of a rate-1/2 terminated stream.

    Returns the payload bits (tail bits stripped when ``n_payload_bits`` is
    given or inferred from termination).
    """
    symbols = np.asarray(coded, dtype=np.uint8)
    if symbols.ndim != 1 or symbols.size % 2 != 0:
        raise ValueError("coded stream must be 1-D with even length")
    n_steps = symbols.size // 2
    if n_steps < K - 1:
        raise ValueError("coded stream shorter than the termination tail")
    received = (symbols[0::2].astype(np.int8) << 1) | symbols[1::2].astype(np.int8)

    # Branch metric: Hamming distance between each state/bit output symbol
    # and the received symbol, per step — vectorized over states.
    inf = np.int32(1 << 20)
    metrics = np.full(_N_STATES, inf, dtype=np.int32)
    metrics[0] = 0
    decisions = np.empty((n_steps, _N_STATES), dtype=np.int8)
    prev_states = np.empty((n_steps, _N_STATES), dtype=np.int32)

    # Precompute, for each destination state, its two (source, bit) arrivals.
    src = np.empty((_N_STATES, 2), dtype=np.int32)
    src_bit = np.empty((_N_STATES, 2), dtype=np.int8)
    fill = np.zeros(_N_STATES, dtype=np.int32)
    for state in range(_N_STATES):
        for bit in range(2):
            dst = _NEXT_STATE[state, bit]
            slot = fill[dst]
            src[dst, slot] = state
            src_bit[dst, slot] = bit
            fill[dst] = slot + 1
    out_sym = _OUTPUTS[src, src_bit]  # (states, 2) expected symbols

    hamming = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]],
                       dtype=np.int32)
    for step in range(n_steps):
        r = received[step]
        branch = hamming[out_sym, r]  # (states, 2)
        cand = metrics[src] + branch  # (states, 2)
        choice = np.argmin(cand, axis=1).astype(np.int8)
        rows = np.arange(_N_STATES)
        metrics = cand[rows, choice]
        decisions[step] = src_bit[rows, choice]
        prev_states[step] = src[rows, choice]

    # Traceback from the all-zeros state (terminated stream).
    state = 0
    bits = np.empty(n_steps, dtype=np.uint8)
    for step in range(n_steps - 1, -1, -1):
        bits[step] = decisions[step, state]
        state = prev_states[step, state]

    if n_payload_bits is None:
        n_payload_bits = n_steps - (K - 1)
    if not 0 <= n_payload_bits <= n_steps:
        raise ValueError(f"n_payload_bits {n_payload_bits} out of range")
    return bits[:n_payload_bits]
