"""Vectorized ray-casting volume renderer.

The paper uses "a parallel ray-casting volume renderer [16] … reasonably
optimized and capable of generating high quality images".  This is that
renderer's algorithm in NumPy: per-pixel parallel rays, front-to-back
alpha compositing of trilinearly-interpolated samples, early ray
termination, and subvolume (brick) rendering for the parallel
decomposition — each processor renders its brick *independent of other
processors*, producing a premultiplied partial RGBA image.

All live rays advance together, each on its own sample grid
``t0 + k·step``; the active-ray index set shrinks as rays exit the box
or saturate.  Per call the brick is reduced to a min/max grid of 4-voxel
macrocells (with the one-voxel apron trilinear taps reach), and a cell
is empty when no classification-table entry its value range can round
to has non-zero opacity.  A ray whose sample falls in an empty cell
leaps to the first grid point past the cell's exit plane; this is exact
because every skipped sample would have composited ``(1 - a)·0``, so the
image is the one a one-sample-per-step march on the same grid gives.
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
_CELL_SHIFT = 2  # macrocells span 2**_CELL_SHIFT lower-cell indices per axis
#: voxel-space margin kept before a macrocell's exit plane, far above the
#: rounding of sample coordinates, so a leap never skips a sample that
#: rounds into the next cell
_LEAP_MARGIN = 1e-6


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
    (x0, fx), (y0, fy), (z0, fz) = [
        _lower_cell(coords[:, a], n) for a, n in enumerate(volume.shape)
    ]
    return _interpolate(volume, x0, y0, z0, fx, fy, fz)


def _interpolate(volume, x0, y0, z0, fx, fy, fz) -> np.ndarray:
    """Blend the eight voxels above lower cells ``(x0, y0, z0)``."""
    _, ny, nz = volume.shape
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


def _cell_reduce(a: np.ndarray, axis: int, op: np.ufunc) -> np.ndarray:
    """Reduce ``a`` over each macrocell's voxels along ``axis``.

    Macrocell ``j`` holds lower-cell indices ``[jM, jM + M)``; their
    trilinear taps reach voxels ``jM .. jM + M`` (clipped to the last
    voxel), so each cell also takes the first voxel of the next.
    """
    starts = np.arange(0, max(a.shape[axis] - 1, 1), 1 << _CELL_SHIFT)
    out = op.reduceat(a, starts, axis=axis)
    if starts.size > 1:
        head = [slice(None)] * 3
        head[axis] = slice(0, -1)
        head = tuple(head)
        out[head] = op(out[head], np.take(a, starts[1:], axis=axis))
    return out


def _occupancy(vol: np.ndarray, lut: np.ndarray) -> np.ndarray | None:
    """Macrocells where some sample may classify to non-zero opacity.

    A sample is a convex blend of its cell's voxels, so it lies in the
    cell's ``[min, max]`` up to float rounding; the table indices it can
    round to are widened by one on each side and the cell is empty only
    if all of them have alpha exactly 0.  This holds for any transfer
    function, monotone or not.  Returns ``None`` when no cell is empty.
    """
    visible = np.concatenate([[0], np.cumsum(lut[:, 3] > 0)])
    if visible[-1] == lut.shape[0]:
        return None
    vmin, vmax = vol, vol
    for axis in range(3):
        vmin = _cell_reduce(vmin, axis, np.minimum)
        vmax = _cell_reduce(vmax, axis, np.maximum)
    # a NaN voxel widens its cell to the whole table
    vmin = np.nan_to_num(vmin, nan=0.0)
    vmax = np.nan_to_num(vmax, nan=1.0)
    first = np.clip(np.floor(vmin * _LUT_SIZE) - 1, 0, _LUT_SIZE)
    last = np.clip(np.ceil(vmax * _LUT_SIZE) + 1, 0, _LUT_SIZE)
    occupied = (
        visible[last.astype(np.int64) + 1] > visible[first.astype(np.int64)]
    )
    return None if occupied.all() else occupied


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
    transfer function must map values ≤ ``threshold`` to zero opacity,
    or the crop drops visible voxels.  Even then the image is a
    resampling of the uncropped one, not a copy: the tight box starts
    every ray's sample grid at a different point.  The macrocell
    skipping inside :func:`render_volume` leaves the grid in place; this
    crop only shortens the rays' walk to the occupied region.

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


def _leap(k, coords, dc, cell, step) -> np.ndarray:
    """Grid index of each ray's first sample past its macrocell.

    ``dc`` is the ray direction in voxel units per unit ``t`` (one shared
    row for orthographic rays).  A ray leaves cell ``j`` through the
    plane ``(j + 1)·M`` going up or ``j·M`` going down; in the first and
    last cells that plane is the box face, where the ray ends anyway.
    The exit distance is shortened by :data:`_LEAP_MARGIN`, so the
    landing sample may still lie in the cell (it is then looked up
    again); a ray always advances at least one sample.
    """
    gap = np.full(k.size, np.inf)
    for axis in range(3):
        dca = dc[:, axis]
        plane = (cell[axis] + (dca >= 0)) << _CELL_SHIFT
        dist = np.abs(plane - coords[:, axis]) - _LEAP_MARGIN
        with np.errstate(divide="ignore", invalid="ignore"):
            np.fmin(gap, dist / np.abs(dca), out=gap)
    return np.maximum(k + 1, np.ceil(k + gap / step))


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
        tstart = t0[active]
        tend = t1[active]
        k = np.zeros(active.size)  # sample index on each ray's grid
        tcur = tstart
        scale = (np.asarray(vol.shape, dtype=np.float64) - 1) / span
        dirv = direction.astype(np.float64)
        # Classification LUT: one opacity-corrected table lookup per
        # sample instead of four np.interp evaluations (~15% of frame
        # time); 1/1024 scalar quantization is far below voxel noise.
        lut = tf.sample(
            np.linspace(0.0, 1.0, _LUT_SIZE + 1, dtype=np.float32), step=step
        ).astype(np.float32)
        occupied = _occupancy(vol, lut)
        if occupied is not None:
            cells_y, cells_z = occupied.shape[1:]
            occupied = occupied.ravel()
        while active.size:
            # positions of this sample for all live rays
            d = dirv[active] if per_ray else dirv[None, :]
            pos = origins[active] + tcur[:, None] * d
            coords = (pos - lo[None, :]) * scale[None, :]
            (x0, fx), (y0, fy), (z0, fz) = [
                _lower_cell(coords[:, a], n) for a, n in enumerate(vol.shape)
            ]
            rows = slice(None)
            if occupied is not None:
                cell = (x0 >> _CELL_SHIFT, y0 >> _CELL_SHIFT,
                        z0 >> _CELL_SHIFT)
                hit = occupied[(cell[0] * cells_y + cell[1]) * cells_z
                               + cell[2]]
                if not hit.all():
                    miss = np.flatnonzero(~hit)
                    k[miss] = _leap(k[miss], coords[miss],
                                    (d[miss] if per_ray else d) * scale,
                                    [c[miss] for c in cell], step)
                    rows = np.flatnonzero(hit)
                    x0, y0, z0 = x0[rows], y0[rows], z0[rows]
                    fx, fy, fz = fx[rows], fy[rows], fz[rows]
                    coords = coords[rows]
            k[rows] += 1
            values = _interpolate(vol, x0, y0, z0, fx, fy, fz)
            idx = np.rint(values * _LUT_SIZE).astype(np.int64)
            np.clip(idx, 0, _LUT_SIZE, out=idx)
            rgba = lut[idx]
            if shading:
                shade = _lambert_shade(vol, coords, scale, light, ambient)
                rgba = rgba.copy()
                rgba[:, :3] *= shade[:, None]
            ray = active[rows]
            a_in = alpha[ray]
            contrib = (1.0 - a_in) * rgba[:, 3]
            rgb[ray] += contrib[:, None] * rgba[:, :3]
            alpha[ray] = a_in + contrib
            tcur = tstart + k * step
            keep = (tcur < tend) & (alpha[active] < early_termination)
            if not keep.all():
                active = active[keep]
                tstart = tstart[keep]
                tcur = tcur[keep]
                tend = tend[keep]
                k = k[keep]

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
