"""Codec interface and registry.

Every compressor in :mod:`repro.compress` implements the same two-method
byte-oriented interface so the display daemon (:mod:`repro.daemon`) can swap
compression methods at run time — the paper's display interface explicitly
allows the client to "instruct the system to change the compression method".

Codecs operating on images (JPEG and the two-phase combinations) additionally
accept/return ``(height, width, 3)`` ``uint8`` arrays through
:meth:`Codec.encode_image` / :meth:`Codec.decode_image`; the default
implementation round-trips through the flat byte interface with a small
shape header so that *every* codec can be used on images.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

__all__ = [
    "Codec",
    "CodecError",
    "LosslessCodec",
    "register_codec",
    "get_codec",
    "available_codecs",
]


class CodecError(ValueError):
    """Raised when a payload cannot be decoded (corrupt or mismatched)."""


#: Bound on each content-keyed codec cache: Huffman codes by serialized
#: table and by frequency vector (:mod:`repro.compress.huffman`), and
#: quantization tables by quality (:mod:`repro.compress.dct`).  Each
#: entry is a few KB.
CACHE_SIZE = 256


class Codec(ABC):
    """Abstract byte-stream compressor.

    Subclasses must define :attr:`name`, :attr:`lossless`, and the two
    byte-level methods.  ``encode``/``decode`` must be inverses for lossless
    codecs; for lossy codecs only the image interface has round-trip
    guarantees (up to the quality setting).
    """

    #: registry key; subclasses override.
    name: str = "abstract"
    #: whether decode(encode(x)) == x holds exactly.
    lossless: bool = True
    #: whether the instance keeps state across the frames of one stream
    #: (a reference frame), so it cannot encode sub-images that several
    #: threads produce at once.
    per_stream: bool = False

    @abstractmethod
    def encode(self, data: bytes) -> bytes:
        """Compress ``data`` and return the payload bytes."""

    @abstractmethod
    def decode(self, payload: bytes) -> bytes:
        """Invert :meth:`encode`.  Raises :class:`CodecError` on corruption."""

    # -- image interface ---------------------------------------------------

    _IMG_MAGIC = b"RIMG"

    def encode_image(self, image: np.ndarray) -> bytes:
        """Compress an ``(H, W, 3)`` or ``(H, W)`` ``uint8`` image.

        The default implementation prefixes a 13-byte shape header and
        defers to :meth:`encode` on the raw pixels; transform codecs
        override this to exploit 2-D structure.
        """
        arr = _check_image(image)
        channels = 1 if arr.ndim == 2 else arr.shape[2]
        header = self._IMG_MAGIC + struct.pack(
            "<IIB", arr.shape[0], arr.shape[1], channels
        )
        return header + self.encode(arr.tobytes())

    def decode_image(self, payload: bytes) -> np.ndarray:
        """Invert :meth:`encode_image`."""
        if len(payload) < 13 or payload[:4] != self._IMG_MAGIC:
            raise CodecError(f"{self.name}: bad or truncated image header")
        h, w, c = struct.unpack("<IIB", payload[4:13])
        raw = self.decode(payload[13:])
        expected = h * w * c
        if len(raw) != expected:
            raise CodecError(
                f"{self.name}: decoded {len(raw)} bytes, expected {expected}"
            )
        arr = np.frombuffer(raw, dtype=np.uint8)
        return arr.reshape((h, w) if c == 1 else (h, w, c))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "lossless" if self.lossless else "lossy"
        return f"<{type(self).__name__} name={self.name!r} ({kind})>"


class LosslessCodec(Codec):
    """Marker base class for exactly-invertible codecs."""

    lossless = True


def _check_image(image: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(image)
    if arr.dtype != np.uint8:
        raise CodecError(f"image must be uint8, got {arr.dtype}")
    if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[2] not in (1, 3)):
        raise CodecError(f"image must be (H,W) or (H,W,1|3), got {arr.shape}")
    return arr


class _RawCodec(LosslessCodec):
    """Identity codec — the paper's "Raw" row in Table 1."""

    name = "raw"

    def encode(self, data: bytes) -> bytes:
        return bytes(data)

    def decode(self, payload: bytes) -> bytes:
        return bytes(payload)


_REGISTRY: dict[str, Callable[[], Codec]] = {}


def register_codec(name: str, factory: Callable[[], Codec]) -> None:
    """Register a codec factory under ``name`` (case-insensitive)."""
    _REGISTRY[name.lower()] = factory


def get_codec(name: str, **kwargs) -> Codec:
    """Instantiate a registered codec.

    ``kwargs`` are forwarded to the factory (e.g. ``quality=75`` for JPEG,
    including through the two-phase names ``"jpeg+lzo"``/``"jpeg+bzip"``).
    """
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def available_codecs() -> list[str]:
    """Names accepted by :func:`get_codec`, sorted."""
    return sorted(_REGISTRY)


register_codec("raw", lambda: _RawCodec())
