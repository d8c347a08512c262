"""Unit tests: §3 memory feasibility and §4.1 per-rank parallel compression."""

import numpy as np
import pytest

from repro.core import PipelineConfig, RemoteVisualizationSession
from repro.data import turbulent_jet
from repro.devtools.waiting import wait_until
from repro.render import Camera
from repro.sim.cluster import RWCP_CLUSTER
from repro.sim.costs import JET_PROFILE, MIXING_PROFILE, CostModel


class TestMemoryFeasibility:
    def test_memory_model_scales_with_group(self):
        c = CostModel()
        m1 = c.memory_per_node_bytes(MIXING_PROFILE, 512 * 512, 1)
        m16 = c.memory_per_node_bytes(MIXING_PROFILE, 512 * 512, 16)
        assert m1 > 10 * m16

    def test_jet_inter_volume_feasible(self):
        """The small jet fits one node — pure inter-volume works."""
        PipelineConfig(
            n_procs=64, n_groups=64, n_steps=4,
            profile=JET_PROFILE, machine=RWCP_CLUSTER,
            image_size=(256, 256),
        )

    def test_mixing_inter_volume_infeasible(self):
        """§3: inter-volume parallelism 'is limited by each processor's
        main memory space' — the 201 MB/step mixing dataset cannot run
        one-volume-per-node on 256 MB nodes."""
        with pytest.raises(ValueError, match="memory limit"):
            PipelineConfig(
                n_procs=64, n_groups=64, n_steps=4,
                profile=MIXING_PROFILE, machine=RWCP_CLUSTER,
                image_size=(512, 512),
            )

    def test_mixing_hybrid_feasible(self):
        PipelineConfig(
            n_procs=64, n_groups=4, n_steps=4,
            profile=MIXING_PROFILE, machine=RWCP_CLUSTER,
            image_size=(512, 512),
        )


class TestParallelCompressionSession:
    @pytest.fixture(scope="class")
    def dataset(self):
        return turbulent_jet(scale=0.25, n_steps=4)

    @pytest.mark.parametrize("group_size", [1, 2, 3, 4])
    def test_matches_sequential_path(self, dataset, group_size):
        cam = Camera(image_size=(48, 48))
        with RemoteVisualizationSession(
            dataset, group_size=group_size, camera=cam, codec="lzo",
            spmd=True, parallel_compression=True,
        ) as par, RemoteVisualizationSession(
            dataset, group_size=group_size, camera=cam, codec="lzo",
        ) as seq:
            a = par.step(1)
            b = seq.step(1)
        assert np.array_equal(a.image, b.image)

    def test_piece_count_matches_active_ranks(self, dataset):
        cam = Camera(image_size=(48, 48))
        with RemoteVisualizationSession(
            dataset, group_size=4, camera=cam, codec="lzo",
            spmd=True, parallel_compression=True,
        ) as sess:
            frame = sess.step(0)
        assert frame.n_pieces == 4

    def test_folded_group_has_fewer_pieces(self, dataset):
        """Non-power-of-two groups fold donors away: 3 ranks -> 2 strips."""
        cam = Camera(image_size=(48, 48))
        with RemoteVisualizationSession(
            dataset, group_size=3, camera=cam, codec="lzo",
            spmd=True, parallel_compression=True,
        ) as sess:
            frame = sess.step(0)
        assert frame.n_pieces == 2

    def test_lossy_codec_through_parallel_path(self, dataset):
        from repro.compress import psnr

        cam = Camera(image_size=(64, 64))
        with RemoteVisualizationSession(
            dataset, group_size=4, camera=cam, codec="jpeg+lzo",
            spmd=True, parallel_compression=True,
        ) as sess:
            frame = sess.step(2)
            reference = sess.render_step(2)
        assert psnr(reference, frame.image) > 25.0

    def test_framediff_rejected(self, dataset):
        """framediff keeps one reference frame per stream, so the rank
        threads' strips would be coded against each other's pixels: the
        session used to display wrong frames (max error 255)."""
        with pytest.raises(ValueError, match="framediff"):
            RemoteVisualizationSession(
                dataset, group_size=4, codec="framediff",
                spmd=True, parallel_compression=True,
            )
        # one stream per session is fine: assembled frames still work
        cam = Camera(image_size=(48, 48))
        with RemoteVisualizationSession(
            dataset, group_size=4, camera=cam, codec="framediff", spmd=True,
        ) as sess:
            frames = [sess.step(t) for t in range(2)]
            assert np.array_equal(frames[1].image, sess.render_step(1))

    def test_remote_switch_to_framediff_refused(self, dataset):
        """The constructor check has a control-path twin: a display's
        ``set_codec("framediff")`` is refused and counted, and the rank
        threads keep encoding with the previous codec."""
        cam = Camera(image_size=(48, 48))
        with RemoteVisualizationSession(
            dataset, group_size=4, camera=cam, codec="lzo",
            spmd=True, parallel_compression=True,
        ) as sess:
            sess.step(0)
            sess.display.set_codec("framediff")
            wait_until(lambda: sess.renderer.codec_refusals, timeout=5,
                       message="set_codec never reached the renderer")
            assert sess.renderer.codec_refusals == 1
            assert sess.renderer.codec.name == "lzo"
            for t in (1, 2, 3):
                frame = sess.step(t)
                assert frame.n_pieces == 4
                assert np.array_equal(frame.image, sess.render_step(t))
            # an unknown name is refused the same way, not fatal to the
            # listener: a shareable codec is still accepted after it
            sess.display.set_codec("no-such-codec")
            sess.display.set_codec("rle")
            wait_until(lambda: sess.renderer.codec.name == "rle", timeout=5,
                       message="codec switch never applied")
            assert sess.renderer.codec_refusals == 2

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match="requires spmd"):
            RemoteVisualizationSession(
                dataset, group_size=2, parallel_compression=True
            )
        with pytest.raises(ValueError, match="n_pieces"):
            RemoteVisualizationSession(
                dataset, group_size=2, spmd=True,
                parallel_compression=True, n_pieces=4,
            )
