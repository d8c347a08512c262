"""Frame-differencing codec — the paper's §7.1 future-work extension.

"The other is to exploit frame (temporal) coherence as the frame
differencing technique demonstrated by Crockett [5]."  Consecutive frames of
a time-varying animation differ little, so transmitting the per-pixel delta
against the previously-sent frame (then compressing the mostly-zero delta
losslessly) beats compressing each frame independently — exactly the
scheme earlier renderer implementations combined with run-length coding.

This codec is *stateful per stream*: encoder and decoder each keep the last
reference frame and must observe the same frame sequence.  ``reset()``
resynchronizes (e.g. after a viewpoint change); the first frame after a
reset is sent as a key frame.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import Codec, CodecError, LosslessCodec, register_codec
from repro.compress.lzo import LZOCodec

__all__ = ["FrameDifferencingCodec"]

_KEY = 0
_DELTA = 1


class FrameDifferencingCodec(Codec):
    """Temporal delta coding against the previous frame.

    Parameters
    ----------
    inner:
        Lossless codec applied to the key frame / delta bytes
        (default :class:`~repro.compress.lzo.LZOCodec`).
    key_interval:
        Force a key frame every N frames (0 = only the first frame and
        after ``reset``), bounding error propagation on a lossy channel.
    """

    name = "framediff"
    lossless = True
    per_stream = True

    def __init__(self, inner: LosslessCodec | None = None, key_interval: int = 0):
        if key_interval < 0:
            raise ValueError("key_interval must be >= 0")
        self.inner = inner if inner is not None else LZOCodec()
        if not self.inner.lossless:
            raise ValueError("inner codec must be lossless")
        self.key_interval = key_interval
        self._ref: np.ndarray | None = None
        self._since_key = 0

    def reset(self) -> None:
        """Drop the reference frame; the next frame is sent as a key."""
        self._ref = None
        self._since_key = 0

    # -- image interface (primary) ------------------------------------------

    def encode_image(self, image: np.ndarray) -> bytes:
        arr = np.ascontiguousarray(image)
        if arr.dtype != np.uint8:
            raise CodecError("framediff: image must be uint8")
        force_key = (
            self._ref is None
            or self._ref.shape != arr.shape
            or (self.key_interval and self._since_key >= self.key_interval)
        )
        shape = arr.shape + (1,) * (3 - arr.ndim)
        header = struct.pack(
            "<BIIB",
            _KEY if force_key else _DELTA,
            shape[0],
            shape[1],
            shape[2],
        )
        if force_key:
            payload = self.inner.encode(arr.tobytes())
            self._since_key = 0
        else:
            # Modular delta: uint8 wraparound subtraction is self-inverse
            # under wraparound addition, so the delta stays one byte/pixel.
            delta = arr - self._ref
            payload = self.inner.encode(delta.tobytes())
            self._since_key += 1
        self._ref = arr.copy()
        return header + payload

    def decode_image(self, payload: bytes) -> np.ndarray:
        if len(payload) < 10:
            raise CodecError("framediff: truncated header")
        kind, h, w, c = struct.unpack_from("<BIIB", payload, 0)
        raw = self.inner.decode(payload[10:])
        arr = np.frombuffer(raw, dtype=np.uint8)
        shape = (h, w) if c == 1 else (h, w, c)
        if arr.size != h * w * c:
            raise CodecError("framediff: payload size mismatch")
        arr = arr.reshape(shape)
        if kind == _KEY:
            frame = arr.copy()
        elif kind == _DELTA:
            if self._ref is None or self._ref.shape != shape:
                raise CodecError("framediff: delta frame without reference")
            frame = self._ref + arr
        else:
            raise CodecError(f"framediff: unknown frame kind {kind}")
        self._ref = frame
        return frame

    # -- byte interface (treats the stream as a flat 1-D frame) -------------

    def encode(self, data: bytes) -> bytes:
        return self.encode_image(
            np.frombuffer(data, dtype=np.uint8).reshape(1, -1)
        )

    def decode(self, payload: bytes) -> bytes:
        return self.decode_image(payload).tobytes()


register_codec("framediff", lambda **kw: FrameDifferencingCodec(**kw))
