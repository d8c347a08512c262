"""Shear-warp volume renderer — the baseline the paper considers and rejects.

"There are other volume rendering algorithms such as the shear warp
algorithm [12] which can not only deliver superior rendering rates but is
also highly parallelizable [11].  Since our task is to render time-varying
data, the preprocessing calculations required by the shear warp algorithm
must be done for every time step … In addition, due to the use of 2-d
filtering, the quality of a shear warp image, in some case, could be less
ideal."

This implementation exposes exactly those trade-offs:

- :meth:`ShearWarpRenderer.preprocess` classifies the whole volume through
  the transfer function and builds a run-length skip structure — fast to
  *use*, but it must rerun for every time step (and for every transfer-
  function change);
- :meth:`ShearWarpRenderer.render` composites sheared slices along the
  principal axis and then applies a single 2-D warp — faster than ray
  casting but with 2-D-filtered image quality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.render.camera import Camera
from repro.render.transfer_function import TransferFunction

__all__ = ["ShearWarpRenderer", "PreclassifiedVolume"]


@dataclass
class PreclassifiedVolume:
    """Per-time-step preprocessing output.

    ``rgba`` is the classified volume (premultiplied, opacity corrected for
    unit slice spacing); ``opaque_fraction`` summarizes the run-length skip
    structure (fraction of voxels with non-zero opacity), which cost models
    use to estimate the per-slice compositing work actually done.
    """

    rgba: np.ndarray  # (nx, ny, nz, 4) float32 premultiplied
    opaque_fraction: float
    run_starts: np.ndarray  # flat indices where non-transparent runs start
    run_lengths: np.ndarray


def _bilinear_shift(plane: np.ndarray, du: float, dv: float) -> np.ndarray:
    """Shift a (H, W, C) image by fractional (du, dv), zero-filled."""
    h, w = plane.shape[:2]
    iu = int(np.floor(du))
    iv = int(np.floor(dv))
    fu = du - iu
    fv = dv - iv
    out = np.zeros_like(plane)

    def place(target, src, shift_u, shift_v, weight):
        if weight == 0.0:
            return
        u0 = max(shift_u, 0)
        v0 = max(shift_v, 0)
        u1 = min(h + shift_u, h)
        v1 = min(w + shift_v, w)
        if u0 >= u1 or v0 >= v1:
            return
        target[u0:u1, v0:v1] += weight * src[u0 - shift_u : u1 - shift_u,
                                             v0 - shift_v : v1 - shift_v]

    place(out, plane, iu, iv, (1 - fu) * (1 - fv))
    place(out, plane, iu + 1, iv, fu * (1 - fv))
    place(out, plane, iu, iv + 1, (1 - fu) * fv)
    place(out, plane, iu + 1, iv + 1, fu * fv)
    return out


class ShearWarpRenderer:
    """Shear-warp renderer with per-time-step preclassification."""

    def __init__(self, tf: TransferFunction, camera: Camera):
        if camera.projection != "orthographic":
            raise ValueError(
                "shear-warp factorizes a parallel projection; use the ray "
                "caster for perspective views"
            )
        self.tf = tf
        self.camera = camera

    def preprocess(self, volume: np.ndarray) -> PreclassifiedVolume:
        """Classify a volume — rerun for *every* time step."""
        vol = np.ascontiguousarray(volume, dtype=np.float32)
        spacing = 1.0 / max(max(vol.shape) - 1, 1)
        rgba = self.tf.sample(vol, step=spacing)
        # premultiply
        rgba[..., :3] *= rgba[..., 3:4]
        opaque = rgba[..., 3].ravel() > 0.0
        trans = np.diff(opaque.astype(np.int8), prepend=0)
        run_starts = np.flatnonzero(trans == 1)
        stops = np.flatnonzero(trans == -1)
        # starts and stops strictly alternate, so the first stop at or
        # after each start closes its run (or the run reaches the end).
        idx = np.searchsorted(stops, run_starts)
        ends = np.where(idx < stops.size, stops[np.minimum(idx, stops.size - 1)]
                        if stops.size else opaque.size, opaque.size)
        return PreclassifiedVolume(
            rgba=rgba.astype(np.float32),
            opaque_fraction=float(opaque.mean()) if opaque.size else 0.0,
            run_starts=run_starts,
            run_lengths=(ends - run_starts).astype(np.int64),
        )

    def render(self, pre: PreclassifiedVolume) -> np.ndarray:
        """Composite sheared slices, then 2-D warp to the camera frame.

        Returns a premultiplied RGBA float32 image of the camera's size.
        """
        d = self.camera.view_direction
        c = int(np.argmax(np.abs(d)))  # principal axis
        a, b = [ax for ax in range(3) if ax != c]
        rgba = np.moveaxis(pre.rgba, c, 0)  # slices along axis 0
        nslices = rgba.shape[0]
        sign = 1.0 if d[c] > 0 else -1.0
        # shear per slice, in (a, b) pixels, so that slice stacks align
        # with the ray direction
        shear_a = -d[a] / d[c] * (rgba.shape[1] - 1) / max(nslices - 1, 1)
        shear_b = -d[b] / d[c] * (rgba.shape[2] - 1) / max(nslices - 1, 1)

        order = range(nslices) if sign > 0 else range(nslices - 1, -1, -1)
        inter = np.zeros(rgba.shape[1:3] + (4,), dtype=np.float32)
        for idx, k in enumerate(order):
            if sign > 0:
                offset = k
            else:
                offset = nslices - 1 - k
            sheared = _bilinear_shift(
                rgba[k], shear_a * offset * sign, shear_b * offset * sign
            )
            # front-to-back over: inter stays in front
            inter = inter + (1.0 - inter[..., 3:4]) * sheared
        return self._warp(inter, a, b)

    def _warp(self, inter: np.ndarray, axis_a: int, axis_b: int) -> np.ndarray:
        """Resample the sheared intermediate image to the camera frame."""
        h, w = self.camera.image_size
        right, up, _ = self.camera.basis()
        ea = np.zeros(3)
        ea[axis_a] = 1.0
        eb = np.zeros(3)
        eb[axis_b] = 1.0
        # world position of intermediate pixel (i, j) on the base plane
        na, nb = inter.shape[:2]
        sa = 1.0 / max(na - 1, 1)
        sb = 1.0 / max(nb - 1, 1)
        # camera-plane coordinates: cam_u = p . right, cam_v = p . up
        m = np.array(
            [
                [sa * (ea @ right), sb * (eb @ right)],
                [sa * (ea @ up), sb * (eb @ up)],
            ]
        )
        if abs(np.linalg.det(m)) < 1e-9:
            return np.zeros((h, w, 4), dtype=np.float32)
        minv = np.linalg.inv(m)
        center_world = np.array([0.5, 0.5, 0.5])
        cu0 = center_world @ right
        cv0 = center_world @ up
        extent = np.sqrt(3.0) / self.camera.zoom
        u = ((np.arange(w) + 0.5) / w - 0.5) * extent + cu0
        v = (0.5 - (np.arange(h) + 0.5) / h) * extent + cv0
        uu, vv = np.meshgrid(u, v, indexing="xy")
        # account for the base-plane offset: intermediate pixel (i, j) maps
        # to world ea*i*sa + eb*j*sb (+ component along axis c, which does
        # not affect orthographic cam coords beyond a constant we fold in
        # by projecting the origin of the base plane).
        src = minv @ np.stack([uu.ravel() - (0.0), vv.ravel() - (0.0)])
        ii = src[0].reshape(h, w)
        jj = src[1].reshape(h, w)
        return _bilinear_sample_2d(inter, ii, jj)


def _bilinear_sample_2d(img: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Sample (H, W, C) image at fractional coords, zero outside."""
    h, w = img.shape[:2]
    valid = (ii >= 0) & (ii <= h - 1) & (jj >= 0) & (jj <= w - 1)
    # clamp to the last cell in index space, as raycast._lower_cell
    # does, so edge coordinates stay in bounds in float32 too
    i = np.clip(ii, 0, h - 1)
    j = np.clip(jj, 0, w - 1)
    i0 = np.minimum(i.astype(np.int64), h - 2)
    j0 = np.minimum(j.astype(np.int64), w - 2)
    fi = (i - i0)[..., None]
    fj = (j - j0)[..., None]
    c00 = img[i0, j0]
    c01 = img[i0, j0 + 1]
    c10 = img[i0 + 1, j0]
    c11 = img[i0 + 1, j0 + 1]
    out = (
        c00 * (1 - fi) * (1 - fj)
        + c01 * (1 - fi) * fj
        + c10 * fi * (1 - fj)
        + c11 * fi * fj
    )
    return (out * valid[..., None]).astype(np.float32)
