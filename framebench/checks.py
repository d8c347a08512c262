"""Output checks: frame digests, the single-thread reference path, PSNR.

A displayed frame is correct when its decoded pixels and its payload
size equal what the plain path produces for the same time step:
``render_step`` on a fresh session, then a fresh codec to encode and
another fresh codec to decode.  That comparison runs after the timed
phase, so it costs the measurement nothing.

Image quality is judged separately, against raw reference renders
committed beside the benchmark (``refs/*.npz``, written by
``make_refs.py``).  A later change that trades quality for speed moves
``psnr_db``, which the end-to-end check then catches.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

REFS_DIR = Path(__file__).resolve().parent / "refs"

#: PSNR reported for a pixel-identical frame (a lossless codec), so the
#: result stays a finite JSON number
PSNR_CAP_DB = 100.0


def digest(image: np.ndarray) -> bytes:
    """Content address of a decoded frame."""
    return hashlib.blake2b(
        np.ascontiguousarray(image).tobytes(), digest_size=16
    ).digest()


def psnr_db(reference: np.ndarray, image: np.ndarray) -> float:
    """Peak signal-to-noise ratio of ``image`` against ``reference``."""
    if reference.shape != image.shape:
        raise ValueError(f"shape {image.shape} != reference {reference.shape}")
    diff = reference.astype(np.float64) - image.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(255.0 * 255.0 / mse))


def reference_key(step: int, azimuth: float, elevation: float) -> str:
    return f"t{step}_az{azimuth:g}_el{elevation:g}"


def load_references(dataset: str) -> dict[str, np.ndarray]:
    """The committed raw renders of ``dataset``, by :func:`reference_key`."""
    path = REFS_DIR / f"{dataset}.npz"
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def expected_frame(session, step: int, encoder, decoder) -> tuple[bytes, int]:
    """``(digest, payload bytes)`` of ``step`` on the single-thread path."""
    payload = encoder.encode_image(session.render_step(step))
    return digest(decoder.decode_image(payload)), len(payload)
