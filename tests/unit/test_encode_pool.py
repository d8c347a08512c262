"""Encode-pool invariants: crash retry, coalescing, typed errors, fallback.

The properties :class:`~repro.serve.encode_pool.EncodePool` promises
the broker:

- a worker crash is retried on a live worker without the caller
  noticing and without a duplicate cache fill;
- concurrent requests for one content key share one worker encode;
- a deterministic codec error surfaces as :class:`EncodeFailed`;
- a request that outlives its timeout is encoded inline instead;
- a closed pool refuses new work.

The callers that open a pool for a broker (``repro serve``,
``run_with_faults``, ``run_fanout``) close it even when the broker
constructor fails.
"""

import os
import signal
import threading

import numpy as np
import pytest

import repro.serve
from repro.cli import main as repro_main
from repro.compress import get_codec
from repro.devtools.locktrace import checked
from repro.devtools.waiting import wait_until
from repro.net.faults import FaultPlan
from repro.serve import EncodeFailed, EncodePool, FrameCache, fanout, faultrun


def _frames(n, size=16):
    rng = np.random.default_rng(11)
    return [rng.integers(0, 255, (size, size, 3), dtype=np.uint8)
            for _ in range(n)]


class TestEncodePool:
    def test_worker_crash_retried_without_duplicate_fill(self):
        image = _frames(1, size=24)[0]
        key = (0, "rle", None)
        with checked(patch_channel=False):
            with EncodePool(2) as pool:
                victim = pool._workers[0].process
                victim.kill()
                wait_until(lambda: not victim.is_alive(), timeout=5.0,
                           message="victim worker did not die")
                cache = FrameCache(max_bytes=1 << 20)
                fills = []

                def fill():
                    fills.append(1)
                    # pinned onto the dead worker: the collector must
                    # respawn it and replay the task on a live one
                    return pool.encode(image, "rle", key=key, _worker=0)

                payload = cache.get_or_encode(key, fill)
                assert np.array_equal(
                    get_codec("rle").decode_image(payload), image
                )
                # the crash stayed invisible: one fill, one completed
                # encode, no duplicate cache entry
                assert len(fills) == 1
                assert cache.get_or_encode(key, fill) == payload
                assert len(fills) == 1
                snap = pool.stats_snapshot()
                assert snap["worker_restarts"] >= 1
                assert snap["retries"] >= 1
                assert snap["encodes"] == 1

    def test_concurrent_same_key_coalesces_to_one_encode(self):
        image = _frames(1, size=48)[0]
        key = (7, "lzo", None)
        with EncodePool(1) as pool:
            # freeze the lone worker: the first keyed request provably
            # stays in flight until we thaw it, so the second request
            # must piggyback instead of winning a submission race
            worker = pool._workers[0].process
            os.kill(worker.pid, signal.SIGSTOP)
            results = []

            def request():
                results.append(pool.encode(image, "lzo", key=key))

            threads = [threading.Thread(target=request) for _ in range(2)]
            try:
                threads[0].start()
                wait_until(lambda: key in pool._inflight, timeout=5.0,
                           message="keyed encode never became in-flight")
                threads[1].start()
                wait_until(
                    lambda: pool.stats_snapshot()["coalesced"] == 1,
                    timeout=5.0,
                    message="second request never coalesced",
                )
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            for t in threads:
                t.join(timeout=30.0)
            assert results[0] == results[1]
            snap = pool.stats_snapshot()
            assert snap["coalesced"] == 1
            assert snap["encodes"] == 1

    def test_worker_codec_error_raises_typed(self):
        image = _frames(1)[0]
        with EncodePool(1) as pool:
            with pytest.raises(EncodeFailed):
                pool.encode(image, "no-such-codec")

    def test_timeout_falls_back_inline(self):
        image = _frames(1)[0]
        with EncodePool(1) as pool:
            payload = pool.encode(image, "rle", timeout=0.0)
            assert np.array_equal(
                get_codec("rle").decode_image(payload), image
            )
            assert pool.stats_snapshot()["inline_fallbacks"] == 1

    def test_closed_pool_rejects_encodes(self):
        pool = EncodePool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.encode(_frames(1)[0], "rle")


class _SpyPool:
    """Stands in for EncodePool: records whether its owner closed it."""

    opened: list["_SpyPool"] = []

    def __init__(self, workers):
        self.closed = False
        _SpyPool.opened.append(self)

    def close(self):
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _failing_broker(**kwargs):
    raise RuntimeError("broker constructor failed")


class TestPoolOwners:
    @pytest.fixture(autouse=True)
    def _spy(self, monkeypatch):
        _SpyPool.opened = []
        for module in (repro.serve, faultrun, fanout):
            monkeypatch.setattr(module, "EncodePool", _SpyPool)
            monkeypatch.setattr(module, "SessionBroker", _failing_broker)

    def _assert_one_pool_closed(self):
        assert len(_SpyPool.opened) == 1
        assert _SpyPool.opened[0].closed

    def test_cli_serve_closes_pool_when_broker_fails(self):
        with pytest.raises(RuntimeError, match="broker constructor"):
            repro_main(["serve", "--synthetic", "--size", "16",
                        "--frames", "2", "--encode-workers", "2"])
        self._assert_one_pool_closed()

    def test_run_with_faults_closes_pool_when_broker_fails(self):
        with pytest.raises(RuntimeError, match="broker constructor"):
            faultrun.run_with_faults(
                FaultPlan(seed=1), n_frames=2, encode_workers=2
            )
        self._assert_one_pool_closed()

    def test_run_fanout_closes_pool_when_broker_fails(self):
        with pytest.raises(RuntimeError, match="broker constructor"):
            fanout.run_fanout(
                2, fanout.synthetic_frames(2, size=16), encode_workers=2
            )
        self._assert_one_pool_closed()

    def test_no_pool_without_workers(self):
        with pytest.raises(RuntimeError, match="broker constructor"):
            faultrun.run_with_faults(FaultPlan(seed=1), n_frames=2)
        assert _SpyPool.opened == []
