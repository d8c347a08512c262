"""Fault-scenario harness: the serving stack under a WAN-shaped link.

``run_with_faults`` drives one complete delivery scenario: a paced
publisher pushes an animated sequence through a
:class:`~repro.serve.broker.SessionBroker` to viewers whose links obey a
:class:`~repro.net.faults.FaultPlan` (loss is retransmitted with
backoff, latency/jitter delay the ack path, a scheduled disconnect cuts
the link mid-stream).  Viewers that lose their connection rejoin under
the same name and *resume* from the next frame they need, so the
scenario exercises the whole resilience surface: retry, adaptive tier
degradation, reconnect-with-resume.

The headline number is the **delivered-frame ratio**: the fraction of
published frames each session handled — consumed and acked, or
deliberately stride-skipped by its current tier.  Frames dropped on the
floor for credit exhaustion are the failures the adaptive ladder
exists to minimise.

``benchmarks/bench_faults.py`` sweeps loss/latency grids over this
harness; ``repro faults`` runs one scenario from the command line.
"""

from __future__ import annotations

import threading
import time

from repro.net.faults import FaultPlan
from repro.net.transport import RetryPolicy
from repro.serve.broker import SessionBroker
from repro.serve.encode_pool import EncodePool
from repro.serve.fanout import synthetic_frames
from repro.serve.session import FrameDecodeError
from repro.serve.tiers import TierLadder

__all__ = ["run_with_faults", "sweep_faults"]

#: retransmission policy used for faulty links: aggressive enough that a
#: 10% lossy link still delivers (0.9999+ after 6 attempts), with small
#: backoff so retries do not stall the publisher
FAULT_RETRY = RetryPolicy(max_attempts=6, backoff_s=0.002, max_backoff_s=0.05)


class _ResilientViewer:
    """A viewer that consumes frames and survives link cuts by
    rejoining under its own name and resuming the stream.

    ``broker`` is anything with the broker ``join`` surface — the
    origin :class:`SessionBroker` or an edge
    :class:`~repro.relay.daemon.FrameRelay`.
    """

    def __init__(self, broker, name: str, plan: FaultPlan,
                 reconnect: bool = True):
        self.broker = broker
        self.name = name
        self.plan = plan
        self.reconnect = reconnect
        self.frame_ids: list[int] = []
        self.duplicates = 0
        self.decode_errors = 0
        self.reconnects = 0
        #: gap ranges accumulated across the handles this viewer used up
        self.gap_ranges: list[tuple[int, int]] = []
        self._stop = threading.Event()
        self.handle = broker.join(name, fault_plan=plan, retry=FAULT_RETRY)
        try:
            self.thread = threading.Thread(target=self._run, daemon=True)
            self.thread.start()
        except BaseException:
            # no consumer thread ever ran: give the session back instead
            # of stranding it broker-side
            self.handle.leave()
            raise

    def _next_id(self) -> int:
        return self.frame_ids[-1] + 1 if self.frame_ids else 0

    def _rejoin(self) -> bool:
        """Re-establish the session; returns False when giving up."""
        self.gap_ranges.extend(self.handle.gaps)
        # the session died with the link, but the viewer-side channel fd
        # lives until closed; leave() would tear down the broker's parked
        # resume state, so close just the transport
        self.handle.conn.close()
        deadline = time.monotonic() + 5.0
        while not self._stop.is_set() and time.monotonic() < deadline:
            try:
                self.handle = self.broker.join(
                    self.name,
                    fault_plan=self.plan.reconnected(),
                    retry=FAULT_RETRY,
                    resume_from=self._next_id(),
                )
            except ValueError:
                # the broker has not reaped the dead session yet; wait
                # on the stop event so shutdown interrupts the retry
                self._stop.wait(0.005)
                continue
            except RuntimeError:  # broker closed underneath us
                return False
            self.reconnects += 1
            return True
        return False

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                frame = self.handle.next_frame(timeout=0.25)
            except TimeoutError:
                continue
            except ConnectionError:
                if not self.reconnect or not self._rejoin():
                    return
                continue
            except FrameDecodeError:  # corrupted payload, typed + counted
                self.decode_errors += 1
                continue
            if frame.frame_id in self.frame_ids:
                self.duplicates += 1
            self.frame_ids.append(frame.frame_id)

    def stop(self) -> None:
        self._stop.set()
        self.thread.join(timeout=5.0)
        self.gap_ranges.extend(self.handle.gaps)
        self.handle.leave()


def _teardown(viewers, relay_pool, broker, pool=None) -> None:
    """Close every tier even when one close raises; the first failure
    propagates only after the rest have been released.  The encode pool
    closes last, after the broker that submits to it."""
    failures: list[BaseException] = []
    for v in viewers:
        try:
            v.stop()
        except BaseException as exc:
            failures.append(exc)
    for relay in relay_pool:
        try:
            relay.close()
        except BaseException as exc:
            failures.append(exc)
    if broker is not None:
        try:
            broker.close()
        except BaseException as exc:
            failures.append(exc)
    if pool is not None:
        try:
            pool.close()
        except BaseException as exc:
            failures.append(exc)
    if failures:
        raise failures[0]


def run_with_faults(
    plan: FaultPlan,
    *,
    n_frames: int = 96,
    size: int = 48,
    n_viewers: int = 2,
    credit_limit: int = 8,
    pace_s: float = 0.03,
    ladder: TierLadder | None = None,
    step_down_after: int = 1,
    step_up_after: int = 24,
    reconnect: bool = True,
    drain_timeout: float = 10.0,
    relays: int = 0,
    encode_workers: int = 0,
) -> dict:
    """One fault scenario end to end; returns its delivery report.

    The publisher is paced (``pace_s`` between frames) like a render
    loop; every viewer link obeys ``plan``.  The report carries the
    per-session delivered-frame ratio, drop/skip/ack counts, tier
    transitions, reconnects, and client-observed duplicates.

    ``relays`` > 0 routes the scenario through that many edge relays
    (:class:`~repro.relay.daemon.FrameRelay`): the fault plan moves to
    the relay→viewer hop — the same link position the direct scenario
    shapes — while the relay→origin hop stays clean, so the grid cell
    measures what interposing a relay does to delivery under identical
    WAN weather.  Viewers rejoin *their relay* on a cut, exercising the
    relay's resume machinery instead of the broker's.

    ``encode_workers`` > 0 hands the broker a multi-process
    :class:`~repro.serve.encode_pool.EncodePool` of that many workers.
    """
    frames = synthetic_frames(n_frames, size=size)
    common = dict(
        ladder=ladder,
        credit_limit=credit_limit,
        step_down_after=step_down_after,
        step_up_after=step_up_after,
        history_frames=max(32, n_frames // 2),
    )
    # every tier is built inside the try so a constructor failure in a
    # later tier still tears down the earlier ones
    pool = None
    broker = None
    relay_pool: list = []
    viewers: list[_ResilientViewer] = []
    try:
        if encode_workers > 0:
            pool = EncodePool(encode_workers)
        broker = SessionBroker(encode_pool=pool, **common)
        if relays > 0:
            # local import: repro.serve must stay importable without the
            # relay package (and this is the only serve -> relay edge)
            from repro.relay.daemon import FrameRelay
            from repro.relay.ring import RelayRing

            ring = RelayRing() if relays > 1 else None
            for i in range(relays):
                name = f"relay{i}"
                if ring is not None:
                    ring.add(name)
                relay_pool.append(
                    FrameRelay(
                        name,
                        broker,
                        ring=ring,
                        upstream_credits=max(32, n_frames + 8),
                    )
                )
            for a in relay_pool:
                for b in relay_pool:
                    if a is not b:
                        a.connect_peer(b)
        for i in range(n_viewers):
            viewers.append(
                _ResilientViewer(
                    relay_pool[i % len(relay_pool)] if relay_pool else broker,
                    f"wan{i:02d}",
                    plan,
                    reconnect=reconnect,
                )
            )
        t0 = time.perf_counter()
        for fid, image in enumerate(frames):
            broker.publish(image, time_step=fid, frame_id=fid)
            if pace_s:
                time.sleep(pace_s)
        broker.drain(timeout=drain_timeout)
        for relay in relay_pool:
            relay.drain(timeout=drain_timeout)
        elapsed = time.perf_counter() - t0
        stats = broker.stats()
        session_stats = dict(stats.sessions)
        for relay in relay_pool:
            session_stats.update(relay.session_stats())
    finally:
        _teardown(viewers, relay_pool, broker, pool)

    sessions = {}
    ratios = []
    for v in viewers:
        s = session_stats.get(v.name)
        if s is None:
            continue
        handled = s.acks + s.frames_skipped
        ratio = handled / n_frames if n_frames else 0.0
        ratios.append(ratio)
        sessions[v.name] = {
            "delivered_ratio": round(ratio, 4),
            "acks": s.acks,
            "skipped": s.frames_skipped,
            "dropped": s.frames_dropped,
            "sent": s.frames_sent,
            "tier": s.tier,
            "transitions": len(s.transitions),
            "reconnects": s.reconnects,
            "observed_duplicates": v.duplicates,
            "decode_errors": v.decode_errors,
            "gaps": len(v.gap_ranges),
        }
    return {
        "plan": {
            "seed": plan.seed,
            "loss_ratio": plan.loss_ratio,
            "latency_s": plan.latency_s,
            "jitter_s": plan.jitter_s,
            "corrupt_ratio": plan.corrupt_ratio,
            "disconnect_after": plan.disconnect_after,
        },
        "n_frames": n_frames,
        "n_viewers": n_viewers,
        "relays": relays,
        "elapsed_s": round(elapsed, 3),
        "delivered_ratio": round(min(ratios), 4) if ratios else 0.0,
        "mean_delivered_ratio": round(sum(ratios) / len(ratios), 4)
        if ratios
        else 0.0,
        "malformed_controls": stats.malformed_controls,
        "resumes": stats.resumes,
        "resume_gaps": stats.resume_gaps,
        "sessions": sessions,
    }


def sweep_faults(
    loss_ratios=(0.0, 0.05, 0.1),
    jitters_s=(0.0, 0.05, 0.1),
    seed: int = 1234,
    **kwargs,
) -> list[dict]:
    """The loss × jitter grid: one :func:`run_with_faults` per cell."""
    cells = []
    for loss in loss_ratios:
        for jitter in jitters_s:
            plan = FaultPlan(seed=seed, loss_ratio=loss, jitter_s=jitter)
            cells.append(run_with_faults(plan, **kwargs))
    return cells
