"""Color-space conversion and chroma resampling for the JPEG codec.

Baseline JPEG operates on full-range BT.601 YCbCr; subsampling chroma 2:1
in both directions (4:2:0) exploits exactly the perceptual asymmetry the
paper cites — "small color changes are perceived less accurately than small
changes in brightness".
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rgb_to_ycbcr",
    "rgb_to_ycbcr_planes",
    "ycbcr_to_rgb",
    "ycbcr_planes_to_rgb",
    "ycbcr_420_planes_to_rgb",
    "downsample_420",
    "upsample_420",
    "pad_to_multiple",
]

# YCbCr -> RGB as one affine map over planar (3, H*W) data:
# rgb = _FROM_YCC @ ycc + _FROM_YCC_BIAS (the bias folds the -128 chroma
# centering through the matrix), so the inverse conversion is a single
# small GEMM plus whole-row passes — planar rows keep every pass
# contiguous, which beats per-pixel (H, W, 3) striding severalfold.
_FROM_YCC = np.array(
    [
        [1.0, 0.0, 1.402],
        [1.0, -0.344136, -0.714136],
        [1.0, 1.772, 0.0],
    ],
    dtype=np.float32,
)
_FROM_YCC_BIAS = np.array(
    [[-128.0 * 1.402], [128.0 * (0.344136 + 0.714136)], [-128.0 * 1.772]],
    dtype=np.float32,
)

# RGB -> YCbCr as the matching forward GEMM (chroma centering added after).
_TO_YCC = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ],
    dtype=np.float32,
)


def rgb_to_ycbcr_planes(
    rgb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(H, W, 3)`` RGB → three contiguous ``(H, W) float32`` planes.

    One contiguous uint8→float32 cast, then the whole conversion is a
    single ``(3, 3) @ (3, H*W)`` GEMM — the exact mirror of the decode
    side's :func:`_planar_to_rgb` — plus two scalar adds for the chroma
    centering.
    """
    h, w = rgb.shape[:2]
    n = h * w
    rgbf = rgb.reshape(n, 3).astype(np.float32)
    out = np.empty((3, h, w), dtype=np.float32)
    planes = out.reshape(3, n)
    np.matmul(_TO_YCC, rgbf.T, out=planes)
    planes[1] += np.float32(128.0)
    planes[2] += np.float32(128.0)
    return out[0], out[1], out[2]


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """``(H, W, 3) uint8`` RGB → ``(H, W, 3) float32`` full-range YCbCr."""
    return np.stack(rgb_to_ycbcr_planes(rgb), axis=-1)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """``(H, W, 3) float`` YCbCr → ``(H, W, 3) uint8`` RGB (clipped)."""
    return ycbcr_planes_to_rgb(ycc[..., 0], ycc[..., 1], ycc[..., 2])


def ycbcr_planes_to_rgb(
    y: np.ndarray, cb: np.ndarray, cr: np.ndarray
) -> np.ndarray:
    """Like :func:`ycbcr_to_rgb` but from separate component planes.

    Skips materializing the stacked ``(H, W, 3)`` intermediate — the
    planes are gathered straight into the planar GEMM input.
    """
    h, w = y.shape
    p = np.empty((3, h, w), dtype=np.float32)
    p[0] = y
    p[1] = cb
    p[2] = cr
    return _planar_to_rgb(p)


def ycbcr_420_planes_to_rgb(
    y: np.ndarray, cb: np.ndarray, cr: np.ndarray
) -> np.ndarray:
    """:func:`ycbcr_planes_to_rgb` with 2×-subsampled chroma planes.

    ``cb``/``cr`` are at least ``ceil(h/2) x ceil(w/2)``; the
    nearest-neighbour upsample happens as four strided scatters straight
    into the planar GEMM input, never materializing full-size chroma.
    """
    h, w = y.shape
    p = np.empty((3, h, w), dtype=np.float32)
    p[0] = y
    for dst, src in ((p[1], cb), (p[2], cr)):
        dst[0::2, 0::2] = src[: (h + 1) // 2, : (w + 1) // 2]
        dst[0::2, 1::2] = src[: (h + 1) // 2, : w // 2]
        dst[1::2, 0::2] = src[: h // 2, : (w + 1) // 2]
        dst[1::2, 1::2] = src[: h // 2, : w // 2]
    return _planar_to_rgb(p)


def _planar_to_rgb(p: np.ndarray) -> np.ndarray:
    _, h, w = p.shape
    rgb = _FROM_YCC @ p.reshape(3, -1)
    rgb += _FROM_YCC_BIAS
    np.rint(rgb, out=rgb)
    np.clip(rgb, 0.0, 255.0, out=rgb)
    return rgb.T.astype(np.uint8).reshape(h, w, 3)


def downsample_420(plane: np.ndarray) -> np.ndarray:
    """Average 2×2 pixel blocks (plane is padded to even dims first)."""
    p = pad_to_multiple(plane, 2)
    a = p[0::2, 0::2] + p[0::2, 1::2]
    a += p[1::2, 0::2]
    a += p[1::2, 1::2]
    a *= 0.25
    return a


def upsample_420(plane: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour 2× upsample, cropped to ``out_shape``."""
    h, w = plane.shape
    up = np.broadcast_to(plane[:, None, :, None], (h, 2, w, 2))
    return up.reshape(2 * h, 2 * w)[: out_shape[0], : out_shape[1]]


def pad_to_multiple(plane: np.ndarray, multiple: int) -> np.ndarray:
    """Edge-replicate pad both dims up to the next ``multiple``."""
    h, w = plane.shape
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return plane
    return np.pad(plane, ((0, ph), (0, pw)), mode="edge")
