"""Serving-layer smoke guardrails (``make serve-smoke``).

The fan-out benchmark at tiny scale, asserting the structural properties
that must survive any broker change: complete delivery to healthy
viewers, encode-once sharing, a warm cache that actually hits, and a
delivered rate floor far below what the broker really does (so only a
structural regression trips it).  Two cases:

- one broker, in-process encodes, 4 viewers that all decode;
- one broker handed a 2-worker encode pool, at 4 and 64 viewers —
  warm delivered-fps must not collapse as the viewer count grows 16x.
  Viewer counts beyond the audit handful ack without decoding (see
  ``run_fanout``'s ``audit_viewers``): every viewer shares this one
  process, so a decode-everything crowd would measure its own CPU, not
  the broker's.
"""

import pytest

from repro.serve.fanout import run_fanout, synthetic_frames

pytestmark = pytest.mark.perf_smoke

SMOKE_VIEWERS = 4
SMOKE_FRAMES = 16
#: delivered frames/sec floor, ~10x below a laptop-class core's measured rate
FPS_FLOOR = 20.0

SMOKE_ENCODE_WORKERS = 2
SMOKE_AUDIT_VIEWERS = 2
#: the growth step the pool case checks: 4 -> 64 viewers
SMOKE_VIEWERS_LOW = 4
SMOKE_VIEWERS_HIGH = 64
#: warm fps at 64 viewers must stay within this factor of 4 viewers —
#: measured headroom is ~8x *above* 1.0, so only a real scaling
#: collapse (per-viewer work back on one lock, O(V^2) drains) trips it
SCALE_TOLERANCE = 0.9


def test_serve_fanout_smoke():
    frames = synthetic_frames(SMOKE_FRAMES, size=64)
    result = run_fanout(SMOKE_VIEWERS, frames, credit_limit=32)

    # every healthy viewer got every frame, encoded exactly once each
    assert result["cold"]["delivered_frames"] == SMOKE_VIEWERS * SMOKE_FRAMES
    assert result["cold"]["encodes"] == SMOKE_FRAMES
    assert result["dropped_frames"] == 0

    # the warm pass re-serves from the cache without re-encoding
    assert result["warm"]["encodes"] == 0
    assert result["warm"]["cache_hit_ratio"] == 1.0

    for label in ("cold", "warm"):
        fps = result[label]["delivered_fps"]
        assert fps >= FPS_FLOOR, f"{label}: {fps:.1f} f/s below {FPS_FLOOR} floor"


def test_serve_encode_pool_smoke():
    frames = synthetic_frames(SMOKE_FRAMES, size=64)
    results = {
        n: run_fanout(
            n,
            frames,
            credit_limit=32,
            encode_workers=SMOKE_ENCODE_WORKERS,
            audit_viewers=SMOKE_AUDIT_VIEWERS,
        )
        for n in (SMOKE_VIEWERS_LOW, SMOKE_VIEWERS_HIGH)
    }

    for n, r in results.items():
        # complete delivery, nobody dropped
        assert r["cold"]["delivered_frames"] == n * SMOKE_FRAMES
        assert r["dropped_frames"] == 0
        # one broker, one cache: each frame is filled exactly once, and
        # every fill ran on a pool worker
        assert r["cold"]["encodes"] == SMOKE_FRAMES
        assert r["pool"]["encodes"] == SMOKE_FRAMES
        assert r["pool"]["inline_fallbacks"] == 0
        # the warm pass re-serves from the cache, no re-encode
        assert r["warm"]["encodes"] == 0
        assert r["warm"]["cache_hit_ratio"] == 1.0
        for label in ("cold", "warm"):
            fps = r[label]["delivered_fps"]
            assert fps >= FPS_FLOOR, (
                f"{n} viewers {label}: {fps:.1f} f/s below {FPS_FLOOR}"
            )

    # the scaling guardrail: 16x the viewers must not collapse warm
    # throughput
    warm_low = results[SMOKE_VIEWERS_LOW]["warm"]["delivered_fps"]
    warm_high = results[SMOKE_VIEWERS_HIGH]["warm"]["delivered_fps"]
    assert warm_high >= SCALE_TOLERANCE * warm_low, (
        f"warm fps collapsed under fan-out: {warm_high:.1f} f/s @"
        f"{SMOKE_VIEWERS_HIGH} viewers vs {warm_low:.1f} f/s @"
        f"{SMOKE_VIEWERS_LOW} (tolerance {SCALE_TOLERANCE})"
    )
