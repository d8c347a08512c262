"""Unit tests for image assembly and the shear-warp baseline renderer."""

import numpy as np
import pytest

from repro.render import (
    Camera,
    ShearWarpRenderer,
    TransferFunction,
    assemble_tiles,
    render_volume,
    split_tiles,
    to_display_rgb,
)


class TestDisplayConversion:
    def test_black_background_default(self):
        rgba = np.zeros((4, 4, 4), dtype=np.float32)
        rgb = to_display_rgb(rgba)
        assert rgb.dtype == np.uint8
        assert rgb.max() == 0

    def test_background_shows_through_transparent(self):
        rgba = np.zeros((2, 2, 4), dtype=np.float32)
        rgb = to_display_rgb(rgba, background=(1.0, 0.5, 0.0))
        assert rgb[0, 0].tolist() == [255, 128, 0]

    def test_opaque_foreground_hides_background(self):
        rgba = np.zeros((1, 1, 4), dtype=np.float32)
        rgba[0, 0] = [0.2, 0.4, 0.6, 1.0]
        rgb = to_display_rgb(rgba, background=(1.0, 1.0, 1.0))
        assert rgb[0, 0].tolist() == [51, 102, 153]

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            to_display_rgb(np.zeros((4, 4, 3), dtype=np.float32))


class TestTiles:
    def test_split_assemble_roundtrip(self, gradient_image):
        for n in (1, 2, 3, 5, 96):
            tiles = split_tiles(gradient_image, n)
            assert len(tiles) == n
            out = assemble_tiles(tiles)
            assert np.array_equal(out, gradient_image)

    def test_strip_heights_balanced(self, gradient_image):
        tiles = split_tiles(gradient_image, 5)
        heights = [t.shape[0] for _, t in tiles]
        assert max(heights) - min(heights) <= 1
        assert sum(heights) == gradient_image.shape[0]

    def test_split_validation(self, gradient_image):
        with pytest.raises(ValueError):
            split_tiles(gradient_image, 0)
        with pytest.raises(ValueError):
            split_tiles(gradient_image, 1000)

    def test_assemble_out_of_order(self, gradient_image):
        tiles = split_tiles(gradient_image, 4)
        out = assemble_tiles(list(reversed(tiles)))
        assert np.array_equal(out, gradient_image)

    def test_assemble_detects_gap(self, gradient_image):
        tiles = split_tiles(gradient_image, 4)[1:]
        with pytest.raises(ValueError):
            assemble_tiles(tiles, height=gradient_image.shape[0])

    def test_assemble_detects_wrong_strip(self, gradient_image):
        tiles = split_tiles(gradient_image, 2)
        bad = [(tiles[0][0], tiles[0][1][:-1]), tiles[1]]
        with pytest.raises(ValueError):
            assemble_tiles(bad)

    def test_assemble_empty(self):
        with pytest.raises(ValueError):
            assemble_tiles([])


class TestShearWarp:
    @pytest.fixture(scope="class")
    def blob(self):
        n = 24
        x, y, z = np.mgrid[0:n, 0:n, 0:n].astype(np.float32) / (n - 1)
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
        return np.exp(-r2 / 0.03).astype(np.float32)

    def test_warp_sampler_float32_edge_in_bounds(self):
        """Edge coordinates in float32 land on the last row/column: the
        sampler used to clamp to ``h - 1 - eps``, which rounds back to
        ``h - 1`` in float32 and indexes one row past the end."""
        from repro.render.shearwarp import _bilinear_sample_2d

        rng = np.random.default_rng(3)
        img = rng.random((64, 64, 3)).astype(np.float32)
        ii = np.array([[63.0, 10.0]], dtype=np.float32)
        jj = np.array([[10.0, 63.0]], dtype=np.float32)
        out = _bilinear_sample_2d(img, ii, jj)
        assert np.allclose(out[0, 0], img[63, 10], atol=1e-6)
        assert np.allclose(out[0, 1], img[10, 63], atol=1e-6)

    def test_preprocess_structure(self, blob):
        sw = ShearWarpRenderer(TransferFunction.grayscale(0.4), Camera())
        pre = sw.preprocess(blob)
        assert pre.rgba.shape == blob.shape + (4,)
        assert 0.0 < pre.opaque_fraction <= 1.0
        assert pre.run_starts.size == pre.run_lengths.size
        assert (pre.run_lengths > 0).all()

    def test_run_lengths_sum_to_opaque_count(self, blob):
        sw = ShearWarpRenderer(TransferFunction.grayscale(0.4), Camera())
        pre = sw.preprocess(blob)
        opaque_count = int((pre.rgba[..., 3] > 0).sum())
        assert int(pre.run_lengths.sum()) == opaque_count

    def test_sparse_volume_has_low_opaque_fraction(self, jet_volume):
        sw = ShearWarpRenderer(TransferFunction.jet(), Camera())
        pre = sw.preprocess(jet_volume)
        assert pre.opaque_fraction < 0.3

    def test_render_shape(self, blob):
        cam = Camera(image_size=(40, 40), azimuth=10, elevation=15)
        sw = ShearWarpRenderer(TransferFunction.grayscale(0.4), cam)
        img = sw.render(sw.preprocess(blob))
        assert img.shape == (40, 40, 4)
        assert img[..., 3].max() > 0.1

    def test_roughly_matches_raycast_axis_aligned(self, blob):
        """2-D filtered quality: correlated with ray casting, not equal."""
        cam = Camera(image_size=(32, 32), azimuth=5, elevation=3)
        tf = TransferFunction.grayscale(0.4)
        ref = render_volume(blob, tf, cam)[..., 3]
        sw = ShearWarpRenderer(tf, cam)
        img = sw.render(sw.preprocess(blob))[..., 3]
        # both images must light up a central blob; demand correlation
        corr = np.corrcoef(ref.ravel(), img.ravel())[0, 1]
        assert corr > 0.6

    def test_oblique_view_does_not_crash(self, blob):
        cam = Camera(image_size=(24, 24), azimuth=40, elevation=35)
        sw = ShearWarpRenderer(TransferFunction.grayscale(0.3), cam)
        img = sw.render(sw.preprocess(blob))
        assert np.isfinite(img).all()

    def test_preprocess_required_per_timestep(self, jet_small):
        """The paper's argument: classification depends on the volume, so
        two different time steps need two preprocess passes."""
        sw = ShearWarpRenderer(TransferFunction.jet(), Camera(image_size=(16, 16)))
        pre0 = sw.preprocess(jet_small.volume(0))
        pre5 = sw.preprocess(jet_small.volume(5))
        assert not np.array_equal(pre0.rgba, pre5.rgba)

    def test_perspective_camera_rejected(self):
        cam = Camera(image_size=(16, 16), projection="perspective")
        with pytest.raises(ValueError, match="parallel projection"):
            ShearWarpRenderer(TransferFunction.jet(), cam)
