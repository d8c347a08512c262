"""8×8 block DCT, quantization tables and zigzag scan for the JPEG codec.

The 2-D type-II DCT over an 8×8 block factorizes into two matrix products
with the 8×8 orthonormal DCT basis; batching blocks as an ``(n, 8, 8)``
array turns the whole transform into two broadcast ``matmul`` passes.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.compress.base import CACHE_SIZE

__all__ = [
    "BLOCK",
    "dct2_blocks",
    "dct2_strips",
    "idct2_blocks",
    "blockize",
    "unblockize",
    "zigzag_indices",
    "quant_tables",
    "STD_LUMA_QUANT",
    "STD_CHROMA_QUANT",
]

BLOCK = 8


def _dct_basis(n: int = BLOCK) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    basis = np.cos((2 * i + 1) * k * np.pi / (2 * n)) * np.sqrt(2.0 / n)
    basis[0] /= np.sqrt(2.0)
    return basis.astype(np.float32)


_BASIS = _dct_basis()
_BASIS_T = np.ascontiguousarray(_BASIS.T)
#: k-point synthesis bases for the reduced-resolution inverse transform.
_PARTIAL_BASIS = {kk: _dct_basis(kk) for kk in (2, 4)}


def dct2_blocks(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of an ``(n, 8, 8)`` batch.

    The separable transform is two batched GEMM passes over the whole
    block tensor.
    """
    return _BASIS @ blocks @ _BASIS_T


def dct2_strips(plane: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """2-D DCT-II of an ``(H, W)`` plane, blocks left in plane layout.

    The 8×8 blocks of a plane never leave their natural storage: the
    column pass is one GEMM per 8-row strip (every strip is the 8×8
    blocks of that block-row side by side, so ``B @ strip`` transforms
    them all at once), and the row pass is one flat ``(H*W/8, 8)`` GEMM
    (every 8-float row segment of the strip result is one block row).
    The per-block arithmetic — and therefore the result, bit for bit —
    matches :func:`dct2_blocks`, but no blockized copy of the plane ever
    exists.  ``out[i*8+y, j*8+x]`` is coefficient ``(y, x)`` of block
    ``(i, j)``.  ``out`` may alias ``plane``; ``tmp`` may not alias
    either.  All three must be C-contiguous ``(H, W) float32`` with dims
    multiples of 8.
    """
    h, w = plane.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError("plane dims must be multiples of 8")
    np.matmul(_BASIS, plane.reshape(h // BLOCK, BLOCK, w), out=tmp.reshape(h // BLOCK, BLOCK, w))
    np.matmul(tmp.reshape(-1, BLOCK), _BASIS_T, out=out.reshape(-1, BLOCK))
    return out


def idct2_blocks(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2_blocks`."""
    return _BASIS_T @ coeffs @ _BASIS


def partial_idct_blocks(coeffs: np.ndarray, k: int) -> np.ndarray:
    """Reduced-resolution inverse DCT: the libjpeg-style fast decode.

    Uses only the top-left ``k x k`` coefficients of each 8x8 block and
    inverse-transforms them with a ``k``-point basis, producing a
    ``(n, k, k)`` batch whose pixels approximate ``8/k``-downsampled
    block content.  The ``k/8`` energy rescale keeps the block mean
    consistent between the 8-point analysis and k-point synthesis.
    """
    if k not in (1, 2, 4, 8):
        raise ValueError("k must be one of 1, 2, 4, 8")
    if k == 8:
        return idct2_blocks(coeffs)
    # per-axis amplitude rescale sqrt(k/8), applied for both axes
    sub = np.ascontiguousarray(coeffs[:, :k, :k]) * (k / BLOCK)
    if k == 1:
        return sub  # one pixel per block: exactly the block mean
    basis_k = _PARTIAL_BASIS[k]
    return basis_k.T @ sub @ basis_k


def blockize(plane: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Split an ``(H, W)`` plane (dims multiples of 8) into ``(n, 8, 8)``.

    Returns the block batch plus the block-grid dimensions ``(bh, bw)``;
    blocks are in row-major grid order.
    """
    h, w = plane.shape
    if h % BLOCK or w % BLOCK:
        raise ValueError("plane dims must be multiples of 8")
    bh, bw = h // BLOCK, w // BLOCK
    blocks = plane.reshape(bh, BLOCK, bw, BLOCK).swapaxes(1, 2)
    return blocks.reshape(-1, BLOCK, BLOCK), bh, bw


def unblockize(blocks: np.ndarray, bh: int, bw: int) -> np.ndarray:
    """Invert :func:`blockize`."""
    return (
        blocks.reshape(bh, bw, BLOCK, BLOCK)
        .swapaxes(1, 2)
        .reshape(bh * BLOCK, bw * BLOCK)
    )


def zigzag_indices() -> np.ndarray:
    """Flat indices of the 8×8 zigzag scan (length 64)."""
    order = sorted(
        ((i, j) for i in range(BLOCK) for j in range(BLOCK)),
        key=lambda ij: (
            ij[0] + ij[1],
            ij[1] if (ij[0] + ij[1]) % 2 == 0 else ij[0],
        ),
    )
    return np.asarray([i * BLOCK + j for i, j in order], dtype=np.int64)


#: ITU T.81 Annex K reference quantization tables.
STD_LUMA_QUANT = np.asarray(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float32,
)

STD_CHROMA_QUANT = np.asarray(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float32,
)


@functools.lru_cache(maxsize=CACHE_SIZE)
def quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """Quality-scaled (luma, chroma) quantization tables, IJG formula.

    ``quality`` in 1..100; 50 reproduces the reference tables, higher is
    finer.  This is the user-visible degree-of-loss knob the paper refers
    to ("the user can control the degree of loss by adjusting certain
    parameters").  Cached per quality; the returned arrays are read-only
    because every codec and thread shares them.
    """
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in 1..100")
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    tables = []
    for base in (STD_LUMA_QUANT, STD_CHROMA_QUANT):
        t = np.floor((base * scale + 50.0) / 100.0)
        t = np.clip(t, 1, 255).astype(np.float32)
        t.flags.writeable = False
        tables.append(t)
    return tables[0], tables[1]
