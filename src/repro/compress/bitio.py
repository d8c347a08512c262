"""Vectorized bit-stream packing for the entropy coders.

Huffman and JPEG entropy coding emit, per symbol, a variable-length code.
Packing millions of such codes one bit at a time in Python would dominate
compression cost, so this module packs *arrays* of ``(value, bit-length)``
pairs in a handful of NumPy passes (MSB-first, the conventional order for
Huffman streams), and exposes a sliding-window view used by the table-driven
decoder in :mod:`repro.compress.huffman`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pack_values",
    "unpack_bits",
    "sliding_code_windows",
    "bits_to_bytes",
]

MAX_CODE_BITS = 32


# Grow-only cached ramp 1, 2, 3, ... shared by every expansion call.
# Callers only read slices, and a grown ramp replaces the old one whole,
# so concurrent encodes can share it.  int32 suffices: bit-stream
# sections are far below 2**31 bits, and the narrower cumsum/gather
# intermediates are measurably cheaper.
_RAMP = np.arange(1, 1 << 12, dtype=np.int32)


def _ramp(total: int) -> np.ndarray:
    global _RAMP
    ramp = _RAMP  # one read: another thread may swap the global meanwhile
    if ramp.size < total:
        size = max(total, 2 * ramp.size)
        ramp = _RAMP = np.arange(1, size + 1, dtype=np.int32)
    return ramp[:total]


def _expand_bits(values: np.ndarray, lengths: np.ndarray, total: int) -> np.ndarray:
    """Expand ``(value, length)`` pairs into a flat 0/1 ``uint8`` array.

    ``total`` must equal ``lengths.sum()``.  Both per-bit quantities —
    the end of the bit's entry and the entry's value — come straight out
    of one ``np.repeat`` each (measurably cheaper than a per-bit
    ``searchsorted`` or a scatter-ones-then-cumsum chain, and zero-length
    entries drop out for free); everything after that is flat arithmetic
    over ``total`` elements.  Inputs are assumed validated (lengths in
    ``[0, MAX_CODE_BITS]``, values fitting their lengths).
    """
    ends = np.cumsum(lengths, dtype=np.int32)
    # shift counts down from length-1 to 0 inside each entry (MSB first):
    # shift = end_of_entry - (absolute_bit_position + 1).
    shift = np.repeat(ends, lengths)
    shift -= _ramp(total)
    # uint32 is wide enough: only the low `length <= 32` bits are read.
    vals = np.repeat(values.astype(np.uint32, copy=False), lengths)
    # shift is nonnegative, so the reinterpreting view is a free
    # alternative to an astype copy.
    vals >>= shift.view(np.uint32)
    vals &= np.uint32(1)
    return vals.astype(np.uint8)


def pack_values(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack ``values[i]`` into ``lengths[i]`` bits each, MSB-first.

    Returns ``(payload, nbits)`` where ``payload`` is the packed bytes
    (zero-padded to a byte boundary) and ``nbits`` the exact bit count.
    Values must fit in their declared lengths; zero-length entries are
    permitted and contribute nothing.
    """
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape:
        raise ValueError("values and lengths must have the same shape")
    if lengths.size == 0:
        return b"", 0
    if lengths.min() < 0 or lengths.max() > MAX_CODE_BITS:
        raise ValueError(f"bit lengths must be in [0, {MAX_CODE_BITS}]")
    total = int(lengths.sum())
    if total == 0:
        return b"", 0
    bits = _expand_bits(values, lengths, total)
    return bits_to_bytes(bits), total


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 ``uint8`` array into bytes, MSB-first, zero padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def unpack_bits(payload: bytes, nbits: int) -> np.ndarray:
    """Unpack ``payload`` into the first ``nbits`` bits as a 0/1 array."""
    if nbits == 0:
        return np.zeros(0, dtype=np.uint8)
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits.size < nbits:
        raise ValueError(f"payload holds {bits.size} bits, need {nbits}")
    return bits[:nbits]


def sliding_code_windows(bits: np.ndarray, width: int) -> np.ndarray:
    """Value of ``bits[i : i+width]`` (MSB-first) for every start ``i``.

    The table-driven Huffman decoder peeks ``width`` bits at a time; this
    precomputes all peeks in one vectorized pass.  Positions within
    ``width-1`` of the end read zero-padding, matching a decoder that pads
    its bit reservoir with zeros.
    """
    if width < 1 or width > MAX_CODE_BITS:
        raise ValueError(f"width must be in [1, {MAX_CODE_BITS}]")
    n = bits.size
    padded = np.zeros(n + width - 1, dtype=np.uint32)
    padded[:n] = bits
    windows = np.zeros(n, dtype=np.uint32)
    for k in range(width):
        windows |= padded[k : k + n] << np.uint32(width - 1 - k)
    return windows
