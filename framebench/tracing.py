"""Spans around the public entry points of each ``repro`` layer.

The benchmark records spans from outside the program: :class:`Tracer`
swaps a timing wrapper in for a class method, a module-level function
or one object's method, and puts the original back on exit.  Nothing
under ``src/`` changes.  Each span keeps its name, layer, start, end,
parent span (on the same thread) and the benchmark's frame sequence
number.

A layer's self time is its spans' durations minus the part their
direct children cover.  A blocking receive (``next_frame``) is a *wait*
span: its own time is mostly idle waiting for another thread, so it
adds no self time; only its children (the decode) do.
:func:`layer_metrics` turns the spans of one traced phase into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

LAYERS = ("data", "render", "core", "compress", "daemon", "net", "serve", "relay")


class Span:
    __slots__ = ("sid", "layer", "name", "parent", "frame", "start", "end",
                 "nbytes_in", "nbytes_out", "wait")

    def __init__(self, sid, layer, name, parent, frame, wait):
        self.sid = sid
        self.layer = layer
        self.name = name
        self.parent = parent
        self.frame = frame
        self.wait = wait
        self.start = self.end = 0.0
        self.nbytes_in = self.nbytes_out = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory while its patches are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, bool, object]] = []
        #: maps a displayed frame to its sequence number (set per pass)
        self.frame_of_result = None

    def set_frame(self, seq: int | None) -> None:
        """Attribute spans that start on this thread to frame ``seq``."""
        self._local.frame = seq

    def _wrap(self, layer, name, fn, *, frame_result=False, sizes=False,
              wait=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(
                next(tracer._ids), layer, name,
                parent.sid if parent else 0,
                parent.frame if parent else getattr(local, "frame", None),
                wait,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if frame_result and tracer.frame_of_result is not None:
                span.frame = tracer.frame_of_result(result)
            if sizes:  # encode_image(image) -> payload
                span.nbytes_in = args[-1].nbytes
                span.nbytes_out = len(result)
            return result

        return traced

    def patch(self, owner, attr: str, layer: str, name: str | None = None,
              **options) -> None:
        """Wrap ``owner.attr`` (a class, module or single object)."""
        own = vars(owner)
        had = attr in own
        self._patches.append((owner, attr, had, own.get(attr)))
        wrapped = self._wrap(layer, name or f"{layer}.{attr}",
                             getattr(owner, attr), **options)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def resolve_frames(self) -> None:
        """Spans that started before their frame was known inherit it
        from the nearest ancestor that learned it."""
        by_id = {s.sid: s for s in self.spans}
        for span in self.spans:
            node = span
            while node.frame is None and node.parent in by_id:
                node = by_id[node.parent]
            span.frame = node.frame

    def dump(self, path, origin: float) -> None:
        rows = [
            [s.sid, s.parent, s.layer, s.name, s.frame,
             round((s.start - origin) * 1e6), round((s.end - origin) * 1e6)]
            for s in self.spans
        ]
        doc = {"columns": ["id", "parent", "layer", "name", "frame_id",
                           "start_us", "end_us"], "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def install_layers(tracer: Tracer) -> None:
    """Patch the entry points a live frame passes through (all layers
    whose objects the program creates internally)."""
    import repro.core.remote_viz as remote_viz
    from repro.compress.jpeg import JPEGCodec
    from repro.compress.two_phase import TwoPhaseCodec
    from repro.core.remote_viz import RemoteVisualizationSession
    from repro.daemon.display_interface import DisplayInterface
    from repro.daemon.renderer_interface import RendererInterface
    from repro.data.datasets import TimeVaryingDataset
    from repro.net.transport import FramedConnection

    tracer.patch(TimeVaryingDataset, "volume", "data")
    # the session calls the renderer through the names it imported
    for fn in ("render_volume", "composite_bricks", "to_display_rgb"):
        tracer.patch(remote_viz, fn, "render")
    for method in ("render_step", "run", "run_pipelined"):
        tracer.patch(RemoteVisualizationSession, method, "core")
    for codec in (TwoPhaseCodec, JPEGCodec):
        tracer.patch(codec, "encode_image", "compress", "compress.encode",
                     sizes=True)
        tracer.patch(codec, "decode_image", "compress", "compress.decode")
    tracer.patch(RendererInterface, "send_frame", "daemon")
    tracer.patch(DisplayInterface, "next_frame", "daemon", frame_result=True,
                 wait=True)
    tracer.patch(FramedConnection, "send", "net")


# -- analysis ----------------------------------------------------------------

def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of busy self time per layer (wait spans add none)."""
    child_total: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_total[s.parent] += s.duration
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if not s.wait:
            out[s.layer] += max(0.0, s.duration - child_total.get(s.sid, 0.0))
    return out


def layer_metrics(spans: list[Span], wall_s: float, frames: int) -> dict:
    """Per-layer metrics from the spans of one traced phase.

    ``frames`` is the number of frames produced in the phase (render
    times are reported per frame); a span counts towards its layer's
    busy time only when its parent is in another layer, so nested calls
    inside one layer are not counted twice.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)

    def top(layer, name=None):
        # outermost spans: of the layer, or of one name (a two-phase
        # encode calls the jpeg encode; both are compress.encode)
        def nested(s):
            parent = by_id.get(s.parent)
            return parent is not None and (
                parent.layer == layer if name is None else parent.name == name)

        return [s for s in spans if s.layer == layer
                and (name is None or s.name == name) and not nested(s)]

    def minus_children(span, layer):
        return span.duration - sum(
            c.duration for c in children[span.sid] if c.layer == layer)

    def per_frame_ms(name):
        return sum(s.duration for s in top("render", name)) * 1e3 / max(frames, 1)

    def busy(layer):
        return sum(s.duration for s in top(layer)) / wall_s if wall_s else 0.0

    ms = 1e3
    volume = top("data", "data.volume")
    render_calls = top("render", "render.render_volume")
    steps = top("core", "core.render_step")
    runs = top("core", "core.run") + top("core", "core.run_pipelined")
    encodes = top("compress", "compress.encode")
    decodes = top("compress", "compress.decode")
    sends = top("daemon", "daemon.send_frame")
    receives = top("daemon", "daemon.next_frame")
    publishes = top("serve", "serve.publish")
    direct = top("serve", "serve.next_frame")
    remote = top("relay", "relay.next_frame")
    run_wall = sum(s.duration for s in runs)
    raw = sum(s.nbytes_in for s in encodes)
    packed = sum(s.nbytes_out for s in encodes)
    selfs = self_times(spans)
    self_total = sum(selfs.values()) or 1.0
    metrics = {
        "data.volume_ms": (_mean(s.duration for s in volume) * ms, "ms"),
        "data.volume_calls": (len(volume), "count"),
        "data.busy_share": (busy("data"), "ratio"),
        "render.render_volume_ms": (per_frame_ms("render.render_volume"), "ms"),
        "render.composite_ms": (per_frame_ms("render.composite_bricks"), "ms"),
        "render.to_rgb_ms": (per_frame_ms("render.to_display_rgb"), "ms"),
        "render.bricks_per_frame": (len(render_calls) / frames if frames else 0.0,
                                    "count"),
        "render.busy_share": (busy("render"), "ratio"),
        "core.render_step_ms": (_mean(s.duration for s in steps) * ms, "ms"),
        "core.group_overlap": (
            sum(s.duration for s in steps) / run_wall if run_wall else 0.0,
            "ratio"),
        "compress.encode_ms": (_mean(s.duration for s in encodes) * ms, "ms"),
        "compress.decode_ms": (_mean(s.duration for s in decodes) * ms, "ms"),
        "compress.encode_calls": (len(encodes), "count"),
        "compress.decode_calls": (len(decodes), "count"),
        "compress.ratio": (raw / packed if packed else 0.0, "ratio"),
        "compress.busy_share": (busy("compress"), "ratio"),
        "daemon.send_ms": (
            _mean(minus_children(s, "compress") for s in sends) * ms, "ms"),
        "daemon.receive_wait_ms": (
            _mean(minus_children(s, "compress") for s in receives) * ms, "ms"),
        "serve.publish_ms": (_mean(s.duration for s in publishes) * ms, "ms"),
        "serve.deliver_ms": (
            _mean(minus_children(s, "compress") for s in direct) * ms, "ms"),
        "relay.deliver_ms": (
            _mean(minus_children(s, "compress") for s in remote) * ms, "ms"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (selfs[layer] / self_total, "ratio")
    return metrics
