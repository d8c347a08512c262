"""Vectorized ray-casting volume renderer.

The paper uses "a parallel ray-casting volume renderer [16] … reasonably
optimized and capable of generating high quality images".  This is that
renderer's algorithm in NumPy: per-pixel parallel rays, front-to-back
alpha compositing of trilinearly-interpolated samples, early ray
termination, and subvolume (brick) rendering for the parallel
decomposition — each processor renders its brick *independent of other
processors*, producing a premultiplied partial RGBA image.

All rays advance together one sample at a time; the active-ray index set
shrinks as rays exit the box or saturate, so the inner loop touches only
live rays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.transfer_function import TransferFunction

__all__ = [
    "render_volume",
    "sample_trilinear",
    "RayCaster",
    "cull_empty_space",
]

Box = tuple[tuple[float, float, float], tuple[float, float, float]]
_FULL_BOX: Box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
_LUT_SIZE = 1024  # classification look-up-table resolution


def _lower_cell(c: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower voxel index and ``float32`` weight of the upper neighbour.

    The clamp to the last cell happens in index space: a coordinate at
    or past ``n - 1`` lands in cell ``n - 2`` with weight 1, in any
    float precision.  (Clamping the coordinate to ``n - 1 - eps``
    instead rounds back to ``n - 1`` in ``float32`` and indexes one
    voxel past the end.)
    """
    c = np.clip(c, 0.0, n - 1)
    i0 = np.minimum(c.astype(np.int64), n - 2)
    return i0, (c - i0).astype(np.float32)


def sample_trilinear(volume: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of ``volume`` at ``(n, 3)`` voxel coords.

    Coordinates are clamped to the valid range (edge extension), matching
    a renderer that treats brick boundaries as repeated boundary voxels.
    """
    nx, ny, nz = volume.shape
    x0, fx = _lower_cell(coords[:, 0], nx)
    y0, fy = _lower_cell(coords[:, 1], ny)
    z0, fz = _lower_cell(coords[:, 2], nz)

    flat = volume.ravel()
    syz = ny * nz
    base = x0 * syz + y0 * nz + z0
    c000 = flat[base]
    c001 = flat[base + 1]
    c010 = flat[base + nz]
    c011 = flat[base + nz + 1]
    c100 = flat[base + syz]
    c101 = flat[base + syz + 1]
    c110 = flat[base + syz + nz]
    c111 = flat[base + syz + nz + 1]

    c00 = c000 * (1 - fz) + c001 * fz
    c01 = c010 * (1 - fz) + c011 * fz
    c10 = c100 * (1 - fz) + c101 * fz
    c11 = c110 * (1 - fz) + c111 * fz
    c0 = c00 * (1 - fy) + c01 * fy
    c1 = c10 * (1 - fy) + c11 * fy
    return c0 * (1 - fx) + c1 * fx


def cull_empty_space(
    volume: np.ndarray, threshold: float = 0.0, box: Box = _FULL_BOX
) -> tuple[np.ndarray, Box] | None:
    """Crop a volume to the voxels that can contribute.

    Empty-space culling for sparse data (the jet's plume occupies a
    small fraction of its grid): returns ``(cropped_volume, tight_box)``
    where the cropped array spans exactly ``tight_box`` in world space —
    ready to pass straight to :func:`render_volume`, which then marches
    rays only through the occupied region.  The crop is padded by one
    voxel per side so trilinear support at the cut is preserved, and the
    transfer function must map values ≤ ``threshold`` to zero opacity
    for the culled image to be exact.

    Returns ``None`` when nothing exceeds the threshold (a fully
    transparent frame).
    """
    vol = np.asarray(volume)
    if vol.ndim != 3:
        raise ValueError(f"volume must be 3-D, got {vol.shape}")
    occupied = vol > threshold
    if not occupied.any():
        return None
    lo_w = np.asarray(box[0], dtype=np.float64)
    hi_w = np.asarray(box[1], dtype=np.float64)
    span = hi_w - lo_w
    slices = []
    lo_idx = []
    hi_idx = []
    for axis in range(3):
        profile = occupied.any(axis=tuple(a for a in range(3) if a != axis))
        nz = np.flatnonzero(profile)
        a = max(int(nz[0]) - 1, 0)
        b = min(int(nz[-1]) + 1, vol.shape[axis] - 1)
        if b - a < 1:  # keep at least a 2-voxel slab for interpolation
            b = min(a + 1, vol.shape[axis] - 1)
            a = max(b - 1, 0)
        lo_idx.append(a)
        hi_idx.append(b)
        slices.append(slice(a, b + 1))
    denom = [max(n - 1, 1) for n in vol.shape]
    new_lo = tuple(
        float(lo_w[a] + span[a] * lo_idx[a] / denom[a]) for a in range(3)
    )
    new_hi = tuple(
        float(lo_w[a] + span[a] * hi_idx[a] / denom[a]) for a in range(3)
    )
    return np.ascontiguousarray(vol[tuple(slices)]), (new_lo, new_hi)


def _lambert_shade(
    vol: np.ndarray,
    coords: np.ndarray,
    scale: np.ndarray,
    light: np.ndarray,
    ambient: float,
) -> np.ndarray:
    """Lambertian term per sample from central-difference gradients.

    Gradients are taken in voxel space and rescaled to world space with
    ``scale`` so shading is consistent across anisotropic bricks; the
    absolute dot product lights both gradient orientations (volume data
    has no consistent surface orientation).
    """
    grad = np.empty((coords.shape[0], 3), dtype=np.float32)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = 1.0
        plus = sample_trilinear(vol, coords + offset)
        minus = sample_trilinear(vol, coords - offset)
        grad[:, axis] = (plus - minus) * (0.5 * scale[axis])
    norms = np.linalg.norm(grad, axis=1)
    safe = np.maximum(norms, 1e-12)
    diffuse = np.abs(grad @ light.astype(np.float32)) / safe
    # flat regions (no gradient) shade fully ambient-to-diffuse neutral
    diffuse = np.where(norms < 1e-8, 1.0, diffuse)
    return (ambient + (1.0 - ambient) * diffuse).astype(np.float32)


def _intersect_box(
    origins: np.ndarray, direction: np.ndarray, box: Box
) -> tuple[np.ndarray, np.ndarray]:
    """Slab-method entry/exit distances of each ray with ``box``.

    ``direction`` is either a shared ``(3,)`` vector (orthographic) or a
    per-ray ``(N, 3)`` array (perspective).
    """
    lo = np.asarray(box[0], dtype=np.float64)
    hi = np.asarray(box[1], dtype=np.float64)
    n = origins.shape[0]
    t0 = np.zeros(n)
    t1 = np.full(n, np.inf)
    per_ray = direction.ndim == 2
    for axis in range(3):
        d = direction[:, axis] if per_ray else direction[axis]
        o = origins[:, axis]
        if not per_ray:
            if abs(d) < 1e-12:
                outside = (o < lo[axis]) | (o > hi[axis])
                t1 = np.where(outside, -np.inf, t1)
                continue
            ta = (lo[axis] - o) / d
            tb = (hi[axis] - o) / d
        else:
            parallel = np.abs(d) < 1e-12
            safe = np.where(parallel, 1.0, d)
            ta = (lo[axis] - o) / safe
            tb = (hi[axis] - o) / safe
            if parallel.any():
                outside = parallel & ((o < lo[axis]) | (o > hi[axis]))
                t1 = np.where(outside, -np.inf, t1)
                # inside-and-parallel rays impose no constraint this axis
                ta = np.where(parallel, -np.inf, ta)
                tb = np.where(parallel, np.inf, tb)
        near = np.minimum(ta, tb)
        far = np.maximum(ta, tb)
        t0 = np.maximum(t0, near)
        t1 = np.minimum(t1, far)
    return t0, t1


def render_volume(
    volume: np.ndarray,
    tf: TransferFunction,
    camera: Camera,
    *,
    box: Box = _FULL_BOX,
    step: float | None = None,
    early_termination: float = 0.98,
    shading: bool = False,
    light_direction: tuple[float, float, float] = (-0.5, -0.3, -0.8),
    ambient: float = 0.35,
) -> np.ndarray:
    """Render a (sub)volume into a premultiplied RGBA float32 image.

    Parameters
    ----------
    volume:
        3-D float32 scalar grid in [0, 1].  When ``box`` is not the unit
        cube, the grid spans exactly ``box`` in world space — the brick a
        processor was assigned by the data-input stage.
    tf, camera:
        Classification and view.
    step:
        World-space sampling distance; defaults to half the smallest voxel
        spacing of the *full* volume implied by ``box``.
    early_termination:
        Accumulated-opacity threshold past which a ray stops.
    shading:
        Lambertian gradient shading ("high quality images", at the cost
        of six extra gradient taps per sample): sample color is scaled by
        ``ambient + (1-ambient)·|∇f · L|``.
    light_direction, ambient:
        Directional light (world space, normalized internally) and the
        ambient floor of the shading term.

    Returns
    -------
    ``(H, W, 4)`` float32 premultiplied-alpha image; pixels whose rays
    miss ``box`` keep alpha 0, so partial images composite with ``over``.
    """
    if volume.ndim != 3:
        raise ValueError(f"volume must be 3-D, got shape {volume.shape}")
    vol = np.ascontiguousarray(volume, dtype=np.float32)
    h, w = camera.image_size
    origins, direction = camera.rays()

    lo = np.asarray(box[0], dtype=np.float64)
    hi = np.asarray(box[1], dtype=np.float64)
    span = hi - lo
    if np.any(span <= 0):
        raise ValueError(f"degenerate box {box}")
    if step is None:
        # voxel spacing along each axis in world units
        spacing = span / np.maximum(np.asarray(vol.shape) - 1, 1)
        step = float(spacing.min()) * 0.5
    if step <= 0:
        raise ValueError("step must be positive")

    t0, t1 = _intersect_box(origins, direction, box)
    npix = origins.shape[0]
    rgb = np.zeros((npix, 3), dtype=np.float32)
    alpha = np.zeros(npix, dtype=np.float32)

    if shading:
        light = np.asarray(light_direction, dtype=np.float64)
        norm = np.linalg.norm(light)
        if norm < 1e-12 or not 0.0 <= ambient <= 1.0:
            raise ValueError("bad light_direction or ambient")
        light = light / norm

    per_ray = direction.ndim == 2
    active = np.flatnonzero(t1 > t0)
    if active.size:
        tcur = t0[active].copy()
        tend = t1[active]
        scale = (np.asarray(vol.shape, dtype=np.float64) - 1) / span
        dirv = direction.astype(np.float64)
        # Classification LUT: one opacity-corrected table lookup per
        # sample instead of four np.interp evaluations (~15% of frame
        # time); 1/1024 scalar quantization is far below voxel noise.
        lut = tf.sample(
            np.linspace(0.0, 1.0, _LUT_SIZE + 1, dtype=np.float32), step=step
        ).astype(np.float32)
        while active.size:
            # positions of this sample for all live rays
            d = dirv[active] if per_ray else dirv[None, :]
            pos = origins[active] + tcur[:, None] * d
            coords = (pos - lo[None, :]) * scale[None, :]
            values = sample_trilinear(vol, coords)
            idx = np.rint(values * _LUT_SIZE).astype(np.int64)
            np.clip(idx, 0, _LUT_SIZE, out=idx)
            rgba = lut[idx]
            if shading:
                shade = _lambert_shade(vol, coords, scale, light, ambient)
                rgba = rgba.copy()
                rgba[:, :3] *= shade[:, None]
            a_in = alpha[active]
            contrib = (1.0 - a_in) * rgba[:, 3]
            rgb[active] += contrib[:, None] * rgba[:, :3]
            alpha[active] = a_in + contrib
            tcur += step
            keep = (tcur < tend) & (alpha[active] < early_termination)
            if not keep.all():
                active = active[keep]
                tcur = tcur[keep]
                tend = tend[keep]

    out = np.concatenate([rgb, alpha[:, None]], axis=1)
    return out.reshape(h, w, 4)


@dataclass
class RayCaster:
    """A configured renderer: transfer function + camera + quality knobs.

    The per-frame entry point of the *local rendering* pipeline stage;
    ``render`` is stateless across calls, so one instance can be shared by
    all processors of a group.
    """

    tf: TransferFunction
    camera: Camera
    step: float | None = None
    early_termination: float = 0.98
    shading: bool = False

    def render(self, volume: np.ndarray, box: Box = _FULL_BOX) -> np.ndarray:
        return render_volume(
            volume,
            self.tf,
            self.camera,
            box=box,
            step=self.step,
            early_termination=self.early_termination,
            shading=self.shading,
        )
