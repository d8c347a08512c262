"""Fan-out measurement harness: delivered frames/sec vs. viewer count.

Used by ``benchmarks/bench_serve_fanout.py`` (full sweep, ``--json``)
and the ``make serve-smoke`` guardrail.  Viewers are real
:class:`~repro.serve.session.ViewerHandle` consumers on their own
threads, decoding every delivered frame; the cold pass encodes each
(frame, tier) once, the warm pass republishes the same frame ids
against the already-populated cache.

Serving goes through one :class:`~repro.serve.broker.SessionBroker`;
the sweep's **encode_workers** axis hands it an
:class:`~repro.serve.encode_pool.EncodePool` of that many worker
processes (0 = in-process encodes).  Alongside aggregate fps each pass
reports delivery-latency percentiles (publish→receipt, p50/p99 over
all samples plus the worst per-viewer p99), which is where per-viewer
jitter is actually visible.  At large viewer counts pass
``audit_viewers`` so only a fixed handful of viewers decode: every
viewer lives in this one process, and decode-everything consumers
would turn the sweep into a measurement of their own CPU.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.devtools.waiting import wait_until
from repro.serve.broker import SessionBroker
from repro.serve.encode_pool import EncodePool
from repro.serve.tiers import TierLadder

__all__ = ["synthetic_frames", "run_fanout", "measure_fanout"]


def synthetic_frames(n_frames: int, size: int = 96) -> list[np.ndarray]:
    """A smooth animated RGB sequence (JPEG-friendly, codec-realistic)."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    frames = []
    for t in range(n_frames):
        phase = 2 * np.pi * t / max(n_frames, 1)
        img = np.stack(
            [
                128 + 100 * np.sin(xx / 11.0 + phase),
                128 + 100 * np.cos(yy / 7.0 - phase),
                (xx + yy + 8 * t) % 256,
            ],
            axis=-1,
        )
        frames.append(np.clip(img, 0, 255).astype(np.uint8))
    return frames


class _Drainer:
    """A viewer thread that consumes and acks as fast as it can,
    timestamping every receipt for the latency percentiles.

    ``decode=False`` makes this viewer a pure load generator: it acks
    every delivery but never decompresses.  The harness keeps a fixed
    handful of *auditing* viewers decoding everything (payload
    integrity) — decoding on all of them would make total consumer CPU
    scale with viewers × frames, and at hundreds of viewers sharing
    this one process that consumer cost, not the server, is what the
    fps would measure.
    """

    def __init__(self, handle, decode: bool = True):
        self.handle = handle
        self.decode = decode
        self._lock = threading.Lock()
        self._receipts: list[tuple[int, float]] = []  # guarded-by: _lock
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                frame = self.handle.next_frame(
                    timeout=0.2, decode=self.decode
                )
            except TimeoutError:
                continue
            except ConnectionError:
                return
            now = time.perf_counter()
            with self._lock:
                self._receipts.append((frame.frame_id, now))

    def receipt_count(self) -> int:
        with self._lock:
            return len(self._receipts)

    def take(self) -> list[tuple[int, float]]:
        """Drain and return the receipts recorded since the last take."""
        with self._lock:
            receipts = self._receipts
            self._receipts = []
        return receipts

    def stop(self) -> None:
        self._stop.set()
        self.thread.join(timeout=5.0)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 on empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[rank]


def _latency_stats(
    per_viewer: list[list[float]],
) -> dict:
    """p50/p99 over all samples plus the worst per-viewer p99, in ms."""
    merged = sorted(s for samples in per_viewer for s in samples)
    viewer_p99s = [
        _percentile(sorted(samples), 0.99)
        for samples in per_viewer
        if samples
    ]
    return {
        "latency_p50_ms": round(_percentile(merged, 0.50) * 1000, 3),
        "latency_p99_ms": round(_percentile(merged, 0.99) * 1000, 3),
        "viewer_p99_ms_max": round(
            max(viewer_p99s, default=0.0) * 1000, 3
        ),
    }


def run_fanout(
    n_viewers: int,
    frames: list[np.ndarray],
    *,
    ladder: TierLadder | None = None,
    credit_limit: int = 8,
    drain_timeout: float = 10.0,
    encode_workers: int = 0,
    audit_viewers: int | None = None,
) -> dict:
    """One broker run: cold pass then warm pass over the same frame ids.

    Returns a dict with per-pass delivered-frames/sec, delivery-latency
    percentiles, encode counts and cache hit ratios, plus the final
    per-session drop totals and (when a pool ran) its counters.

    ``audit_viewers`` bounds how many viewers decode what they consume:
    ``None`` decodes on every viewer (a faithful small-scale run), K
    keeps the first K viewers decoding and makes the rest pure load
    generators (see :class:`_Drainer`) — use it for large viewer
    counts where the question is serving capacity.
    """
    result: dict = {
        "viewers": n_viewers,
        "frames": len(frames),
        "encode_workers": encode_workers,
        "audit_viewers": (
            n_viewers if audit_viewers is None
            else min(audit_viewers, n_viewers)
        ),
    }
    # the pool and the broker are context-managed and the drainers are
    # stopped in the finally, so a failed join/drainer mid-construction
    # still tears down everything already running
    drainers: list[_Drainer] = []
    with (
        EncodePool(encode_workers) if encode_workers > 0 else nullcontext()
    ) as pool, SessionBroker(
        ladder=ladder, credit_limit=credit_limit, encode_pool=pool
    ) as broker:
        try:
            for i in range(n_viewers):
                drainers.append(
                    _Drainer(
                        broker.join(f"v{i:03d}"),
                        decode=audit_viewers is None or i < audit_viewers,
                    )
                )
            for label in ("cold", "warm"):
                before = broker.stats()
                for d in drainers:
                    d.take()  # discard receipts from the previous pass
                publish_t: dict[int, float] = {}
                t0 = time.perf_counter()
                for fid, image in enumerate(frames):
                    publish_t[fid] = time.perf_counter()
                    broker.publish(image, time_step=fid, frame_id=fid)
                broker.drain(timeout=drain_timeout)
                elapsed = time.perf_counter() - t0
                stats = broker.stats()
                delivered = sum(
                    s.acks for s in stats.sessions.values()
                ) - sum(s.acks for s in before.sessions.values())
                # every ack precedes its receipt record by one list append;
                # give the drainer threads a moment to finish writing them
                try:
                    wait_until(
                        lambda: sum(d.receipt_count() for d in drainers)
                        >= delivered,
                        timeout=2.0,
                        message="fan-out receipt records",
                    )
                except TimeoutError:
                    pass  # percentiles over what was recorded in time
                per_viewer = [
                    [
                        t - publish_t[fid]
                        for fid, t in d.take()
                        if fid in publish_t
                    ]
                    for d in drainers
                ]
                lookups = (stats.cache_hits - before.cache_hits) + (
                    stats.cache_misses - before.cache_misses
                )
                row = {
                    "elapsed_s": elapsed,
                    "delivered_frames": delivered,
                    "delivered_fps": delivered / elapsed if elapsed > 0 else 0.0,
                    "encodes": stats.encodes - before.encodes,
                    "cache_hit_ratio": (stats.cache_hits - before.cache_hits)
                    / lookups
                    if lookups
                    else 0.0,
                }
                row.update(_latency_stats(per_viewer))
                result[label] = row
            final = broker.stats()
            result["dropped_frames"] = final.total_frames_dropped
            result["tier_transitions"] = final.total_transitions
            if pool is not None:
                result["pool"] = pool.stats_snapshot()
        finally:
            for d in drainers:
                d.stop()
    return result


def measure_fanout(
    viewer_counts: tuple[int, ...] = (1, 4, 16, 64),
    n_frames: int = 32,
    size: int = 96,
    **kwargs,
) -> list[dict]:
    """The full sweep: one :func:`run_fanout` per viewer count."""
    frames = synthetic_frames(n_frames, size=size)
    return [run_fanout(n, frames, **kwargs) for n in viewer_counts]
