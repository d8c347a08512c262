"""Exactness of macrocell empty-space leaping in the ray caster.

``render_volume`` skips samples that fall in macrocells whose values can
only classify to zero opacity.  Every skipped sample would have
composited ``(1 - a)·0``, so the image must match a march that takes
every sample: :func:`reference_march` below is that one-sample-per-step
loop, kept here as the oracle.
"""

import numpy as np
import pytest

from repro.data import turbulent_jet, turbulent_vortex
from repro.render import (
    Camera,
    TransferFunction,
    decompose,
    render_volume,
    to_display_rgb,
)
from repro.render import raycast
from repro.render.raycast import (
    _FULL_BOX,
    _LUT_SIZE,
    _intersect_box,
    _lambert_shade,
    sample_trilinear,
)


def reference_march(volume, tf, camera, box=_FULL_BOX, shading=False,
                    early_termination=0.98, light=(-0.5, -0.3, -0.8),
                    ambient=0.35):
    """Front-to-back compositing of every sample, one step at a time.

    Samples lie on the renderer's grid ``t0 + k·step``.  (A march that
    accumulates ``t += step`` drifts off that grid by rounding; where a
    ray runs parallel to a brick face and a sample lands exactly on its
    exit face, the drift alone decides whether that sample is taken.)
    """
    vol = np.ascontiguousarray(volume, dtype=np.float32)
    origins, direction = camera.rays()
    lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    step = float(((hi - lo) / (np.asarray(vol.shape) - 1)).min()) * 0.5
    scale = (np.asarray(vol.shape) - 1) / (hi - lo)
    light = np.asarray(light) / np.linalg.norm(light)
    lut = tf.sample(np.linspace(0.0, 1.0, _LUT_SIZE + 1, dtype=np.float32),
                    step=step).astype(np.float32)
    t0, t1 = _intersect_box(origins, direction, box)
    rgb = np.zeros((origins.shape[0], 3), dtype=np.float32)
    alpha = np.zeros(origins.shape[0], dtype=np.float32)
    active = np.flatnonzero(t1 > t0)
    tstart, tend = t0[active], t1[active]
    k = np.zeros(active.size)
    while active.size:
        d = direction[active] if direction.ndim == 2 else direction[None, :]
        tcur = tstart + k * step
        coords = (origins[active] + tcur[:, None] * d - lo) * scale
        values = sample_trilinear(vol, coords)
        idx = np.clip(np.rint(values * _LUT_SIZE).astype(np.int64), 0,
                      _LUT_SIZE)
        rgba = lut[idx].copy()
        if shading:
            rgba[:, :3] *= _lambert_shade(vol, coords, scale, light,
                                          ambient)[:, None]
        a_in = alpha[active]
        contrib = (1.0 - a_in) * rgba[:, 3]
        rgb[active] += contrib[:, None] * rgba[:, :3]
        alpha[active] = a_in + contrib
        k += 1
        keep = (tstart + k * step < tend) & (
            alpha[active] < early_termination)
        active, tstart, tend, k = (
            active[keep], tstart[keep], tend[keep], k[keep])
    h, w = camera.image_size
    return np.concatenate([rgb, alpha[:, None]], axis=1).reshape(h, w, 4)


def assert_matches(volume, tf, camera, box=_FULL_BOX, shading=False):
    got = render_volume(volume, tf, camera, box=box, shading=shading)
    want = reference_march(volume, tf, camera, box=box, shading=shading)
    assert np.abs(got - want).max() <= 1e-6
    assert np.array_equal(to_display_rgb(got), to_display_rgb(want))
    return got


def assert_bricks_match(volume, tf, camera, group_size, shading=False):
    for brick in decompose(volume.shape, group_size):
        assert_matches(brick.extract(volume), tf, camera, box=brick.box,
                       shading=shading)


@pytest.fixture(scope="module")
def jet():
    return turbulent_jet(scale=0.3, n_steps=8).volume(5)


@pytest.fixture(scope="module")
def vortex():
    return turbulent_vortex(scale=0.25, n_steps=6).volume(3)


CAMERAS = {
    "ortho": Camera(image_size=(40, 40), azimuth=30.0, elevation=20.0),
    "perspective": Camera(image_size=(40, 40), azimuth=-50.0,
                          elevation=35.0, projection="perspective"),
    # rays parallel to two axes (one direction component is ~6e-17)
    "axis-aligned": Camera(image_size=(40, 40), azimuth=90.0,
                           elevation=0.0),
}

#: opacity only for values in (0.3, 0.5): empty cells both below and
#: above the visible band
BAND = TransferFunction(
    positions=(0.0, 0.3, 0.4, 0.5, 1.0),
    colors=((0.0, 0.0, 0.0, 0.0), (0.2, 0.5, 0.9, 0.0),
            (0.9, 0.8, 0.2, 0.5), (0.9, 0.2, 0.1, 0.0),
            (1.0, 1.0, 1.0, 0.0)),
)
#: visible from 0: no cell can be skipped
OPAQUE_FROM_ZERO = TransferFunction(
    positions=(0.0, 1.0),
    colors=((0.1, 0.1, 0.3, 0.02), (1.0, 1.0, 1.0, 0.6)),
)

#: visible from table entry 3 up: zero-valued cells stay empty, while a
#: sample a hot voxel touches at all is visible
RAMP = TransferFunction(
    positions=(0.0, 0.002, 1.0),
    colors=((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
            (1.0, 1.0, 1.0, 0.5)),
)


@pytest.mark.parametrize("group_size", [1, 4])
@pytest.mark.parametrize("shading", [False, True], ids=["flat", "shaded"])
@pytest.mark.parametrize("view", sorted(CAMERAS))
def test_jet_matches_dense_march(jet, view, shading, group_size):
    assert_bricks_match(jet, TransferFunction.jet(), CAMERAS[view],
                        group_size, shading=shading)


@pytest.mark.parametrize("group_size", [1, 4])
@pytest.mark.parametrize("tf", [TransferFunction.vortex(),
                                TransferFunction.jet()],
                         ids=["vortex-tf", "jet-tf"])
@pytest.mark.parametrize("view", ["ortho", "perspective"])
def test_vortex_matches_dense_march(vortex, view, tf, group_size):
    assert_bricks_match(vortex, tf, CAMERAS[view], group_size)


@pytest.mark.parametrize("shading", [False, True], ids=["flat", "shaded"])
@pytest.mark.parametrize("view", ["ortho", "perspective"])
def test_band_transfer_function(jet, view, shading):
    """A non-monotone transfer function: only a middle band is visible."""
    img = assert_matches(jet, BAND, CAMERAS[view], shading=shading)
    assert img[..., 3].max() > 0.1


def test_opaque_from_zero_skips_nothing(jet):
    assert raycast._occupancy(
        jet, OPAQUE_FROM_ZERO.sample(np.linspace(0, 1, _LUT_SIZE + 1))
    ) is None
    assert_bricks_match(jet, OPAQUE_FROM_ZERO, CAMERAS["ortho"], 4)


@pytest.mark.parametrize("view", sorted(CAMERAS))
def test_two_voxel_thick_brick(jet, view):
    slab = jet[:, 10:12, :]
    n = jet.shape[1] - 1
    box = ((0.0, 10 / n, 0.0), (1.0, 11 / n, 1.0))
    img = assert_matches(slab, TransferFunction.jet(), CAMERAS[view], box=box)
    assert img[..., 3].max() > 0.0


def _hot_voxel_volume(index, n=17):
    vol = np.zeros((n, n, n), dtype=np.float32)
    vol[index] = 1.0
    return vol


@pytest.mark.parametrize("index", [(4, 4, 4), (8, 12, 4), (5, 7, 9),
                                   (8, 0, 9), (16, 7, 5)],
                         ids=["corner", "corner2", "by-cell-faces",
                              "face-low", "face-high"])
@pytest.mark.parametrize("tf", [TransferFunction.jet(), RAMP],
                         ids=["jet-tf", "ramp-tf"])
@pytest.mark.parametrize("view", sorted(CAMERAS))
def test_hot_voxel_is_not_skipped(index, view, tf):
    """A voxel on a macrocell corner is only reached through the apron of
    the cells below it; one on a volume face only through clamping.  A
    voxel one step inside a cell face (5, 7, 9) colours the very first
    sample a ray takes after leaping out of the empty neighbour, which
    the ramp (visible from the smallest non-empty value up) then shows."""
    vol = _hot_voxel_volume(index)
    img = assert_matches(vol, tf, CAMERAS[view])
    assert img[..., 3].max() > 0.0


@pytest.mark.parametrize("view", ["ortho", "perspective"])
def test_hot_voxel_on_brick_face(view):
    """Bricks share their cut plane: a voxel on it is in both bricks."""
    n = 17
    bricks = decompose((n, n, n), 4)
    first = bricks[0]
    index = tuple(s.stop - 1 for s in first.slices)
    vol = _hot_voxel_volume(index, n)
    tf = TransferFunction.jet()
    for brick in bricks:
        assert_matches(brick.extract(vol), tf, CAMERAS[view], box=brick.box)
    shared = [b for b in bricks
              if all(s.start <= i < s.stop for s, i in zip(b.slices, index))]
    assert len(shared) > 1


def test_constant_region_on_one_table_entry():
    """Only table entry 256 (value 0.25) is visible and a block of voxels
    holds exactly 0.25: the cell's index range must include its own
    rounding, not just the neighbours of it."""
    spike = TransferFunction(
        positions=(0.0, 0.2495, 0.25, 0.2505, 1.0),
        colors=((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
                (1.0, 0.5, 0.2, 0.5), (0.0, 0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0, 0.0)),
    )
    vol = np.zeros((17, 17, 17), dtype=np.float32)
    vol[4:13, 4:13, 4:13] = 0.25
    for view in ("ortho", "perspective"):
        img = assert_matches(vol, spike, CAMERAS[view])
        assert img[..., 3].max() > 0.5


def test_nan_voxel_marks_its_cells_occupied():
    vol = np.zeros((17, 17, 17), dtype=np.float32)
    vol[6, 6, 6] = np.nan
    lut = TransferFunction.jet().sample(np.linspace(0, 1, _LUT_SIZE + 1))
    occupied = raycast._occupancy(vol, lut)
    assert occupied[1, 1, 1] and occupied.sum() == 1


@pytest.mark.perf_smoke
def test_jet_frame_takes_a_quarter_of_the_dense_samples(monkeypatch):
    """Deterministic perf guard: count trilinear samples, not seconds.

    One 128x128 jet frame (scale 0.5, four bricks, a framebench camera)
    takes ~694k samples on the dense march and ~110k with leaping.
    """
    volume = turbulent_jet(scale=0.5).volume(40)
    camera = Camera(image_size=(128, 128), azimuth=30.0, elevation=20.0)
    tf = TransferFunction.jet()
    bricks = decompose(volume.shape, 4)
    counted = [0]
    interpolate = raycast._interpolate

    def counting(vol, x0, *rest):
        counted[0] += x0.size
        return interpolate(vol, x0, *rest)

    monkeypatch.setattr(raycast, "_interpolate", counting)
    for brick in bricks:
        render_volume(brick.extract(volume), tf, camera, box=brick.box)
    leaped, counted[0] = counted[0], 0
    for brick in bricks:
        reference_march(brick.extract(volume), tf, camera, box=brick.box)
    dense = counted[0]
    assert dense > 600_000
    assert leaped <= 0.25 * dense, (leaped, dense)
