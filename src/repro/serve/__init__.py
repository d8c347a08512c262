"""The serving layer: one renderer stream, many adaptive viewers.

A new subsystem layered over the §4.1 daemon/transport stack for the
"many viewers over a WAN" regime.  Five pieces:

- :class:`~repro.serve.broker.SessionBroker` — viewer membership
  (join/leave/seek) and fan-out publishing;
- :class:`~repro.serve.cache.FrameCache` — content-addressed encoded
  frames keyed ``(frame_id, codec, quality)`` with LRU + byte-budget
  eviction, so one encode serves every viewer at a tier;
- :class:`~repro.serve.tiers.TierLadder` /
  :class:`~repro.serve.session.AdaptiveQualityController` — per-viewer
  quality adaptation (full two-phase JPEG → cheaper JPEG → frame
  skipping) driven by credit-based backpressure instead of blind
  broadcast;
- :class:`~repro.serve.stats.ServeStats` — the operator surface:
  per-session sent/dropped/bytes, cache hit ratio, tier transitions;
- :class:`~repro.serve.encode_pool.EncodePool` — an optional
  shared-memory multi-process worker pool a broker hands its cold
  encodes to.

``repro.serve.fanout`` measures delivered frames/sec against viewer
count (the ``bench_serve_fanout`` benchmark and ``make serve-smoke``).
"""

from repro.serve.broker import SessionBroker
from repro.serve.cache import FrameCache
from repro.serve.encode_pool import EncodeFailed, EncodePool
from repro.serve.fanout import measure_fanout, run_fanout, synthetic_frames
from repro.serve.faultrun import run_with_faults, sweep_faults
from repro.serve.session import (
    AdaptiveQualityController,
    FrameDecodeError,
    ServedFrame,
    ViewerHandle,
    ViewerSession,
)
from repro.serve.stats import ServeStats, SessionStats, TierTransition
from repro.serve.tiers import QualityTier, TierLadder, default_ladder

__all__ = [
    "SessionBroker",
    "EncodePool",
    "EncodeFailed",
    "FrameCache",
    "QualityTier",
    "TierLadder",
    "default_ladder",
    "AdaptiveQualityController",
    "ViewerSession",
    "ViewerHandle",
    "ServedFrame",
    "FrameDecodeError",
    "ServeStats",
    "SessionStats",
    "TierTransition",
    "measure_fanout",
    "run_fanout",
    "synthetic_frames",
    "run_with_faults",
    "sweep_faults",
]
