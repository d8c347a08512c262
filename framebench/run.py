#!/usr/bin/env python3
"""Live-frame benchmark: one frame's trip from volume to remote display.

Usage (from the repository root)::

    python3 framebench/run.py --workload jet-live --seed 1 --seconds 30 --trace 0
    python3 framebench/run.py --workload all

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` spends half the time untraced and half with
spans around every layer's entry points, and reports the per-layer
metrics plus the tracing overhead.  Every displayed frame is checked
after the timed phase; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See
``framebench/README.md`` for the metrics, workloads and layer map.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 1
#: set-ups per untraced run; the median is reported as setup_s.  Each
#: set-up is followed by an equal share of the timed phase, so the
#: samples span the whole run rather than a few seconds of it.
SETUP_REPEATS = {"jet-live": 10, "vortex-pipelined": 5, "jet-serve": 10}
#: the modelled WAN hop for net.wan_transfer_ms (the paper's NASA -> UC Davis)
ROUTE = "nasa-ucd"

END_TO_END = {
    "fps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "interframe_p90_ms": "ms",
    "wire_bytes_per_frame": "B",
    "psnr_db": "dB",
    "verified_frame_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics that only group pipelining can move: on a serial
#: session frames arrive in order and the groups never overlap
PIPELINED_ONLY = ("core.group_overlap", "core.inorder_wait_ms")

SPLIT_CLAIMS = {
    "jet-live": "render has the largest self time",
    "vortex-pipelined": "data and render carry most self time",
    "jet-serve": "render is idle; compress, serve and relay carry most self time",
}


def import_program():
    """Put this checkout's ``src`` first on the path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"framebench: program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"framebench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# -- one run -----------------------------------------------------------------

def timed_setup(workload, inputs, times: list[float]):
    begin = time.perf_counter()
    state = workload.setup(inputs)
    times.append(time.perf_counter() - begin)
    return state


def traffic(connections):
    return [c.traffic.snapshot() for c in connections]


def net_metrics(before, after) -> dict:
    from repro.net import SizeWindow, TrafficLog, get_route

    route = get_route(ROUTE)
    received = frames = retransmits = 0
    sizes: list[int] = []
    for b, a in zip(before, after):
        received += a.bytes_received - b.bytes_received
        new = a.frames_received - b.frames_received
        frames += new
        retransmits += a.retransmits - b.retransmits
        sizes += a.recent_received[-new:] if new else []
    # modelled, not measured: the displayed messages replayed over ROUTE
    log = TrafficLog(sent=SizeWindow(sizes))
    wan_ms = log.replay_transfer_s(route) * 1e3 / len(sizes) if sizes else 0.0
    return {
        "net.bytes_sent": (received, "B"),
        "net.frames_sent": (frames, "count"),
        "net.retransmits": (retransmits, "count"),
        "net.wan_transfer_ms": (wan_ms, "ms"),
    }


def verify(phases, expected) -> None:
    for phase in phases:
        for s in phase.shown:
            want = expected.get(s.step)
            s.verified = (s.in_order and want is not None
                          and s.digest == want[0] and s.payload_bytes == want[1])


def end_to_end(workload, phase, inputs, refs) -> dict:
    from checks import psnr_db, reference_key

    ok = [s for s in phase.shown if s.verified]
    frames: dict[int, list] = {}
    for s in ok:
        frames.setdefault(s.seq, []).append(s)
    complete = [g for g in frames.values() if len(g) == workload.viewers]
    latency = [(max(s.shown for s in g) - g[0].start) * 1e3 for g in complete]
    by_segment: dict[int, list[float]] = {}
    for g in complete:
        by_segment.setdefault(g[0].segment, []).append(max(s.shown for s in g))
    gaps = []
    for times in by_segment.values():
        times.sort()
        gaps += [(b - a) * 1e3 for a, b in zip(times, times[1:])]
    psnr = {}
    for s in ok:
        if s.digest not in psnr:
            ref = refs[reference_key(s.step, inputs.azimuth, inputs.elevation)]
            psnr[s.digest] = psnr_db(ref, phase.images[s.digest])
    return {
        "fps": len(ok) / phase.wall_s if phase.wall_s else 0.0,
        "latency_p50_ms": percentile(latency, 50),
        "latency_p90_ms": percentile(latency, 90),
        "interframe_p90_ms": percentile(gaps, 90),
        "wire_bytes_per_frame": (statistics.fmean(s.payload_bytes for s in ok)
                                 if ok else 0.0),
        "psnr_db": statistics.median(psnr[s.digest] for s in ok) if ok else 0.0,
        "verified_frame_ratio": len(ok) / phase.attempted if phase.attempted else 0.0,
        "_samples": (len(latency), len(gaps)),
    }


def split_confirmed(name, shares) -> bool:
    if name == "jet-live":
        return max(shares, key=shares.get) == "render"
    if name == "vortex-pipelined":
        return shares["data"] + shares["render"] > 0.5
    carried = shares["compress"] + shares["serve"] + shares["relay"]
    return shares["render"] == 0.0 and carried > 0.5


def per_layer(workload, traced, tracer, net, before, after, e2e_plain,
              e2e_traced) -> dict:
    from tracing import LAYERS, layer_metrics

    tracer.resolve_frames()
    metrics = layer_metrics(tracer.spans, traced.wall_s, traced.frames_produced)
    waits = [(s.shown - s.arrived) * 1e3 for s in traced.shown if s.verified]
    metrics["core.startup_ms"] = (
        statistics.median(traced.startup_s) * 1e3 if traced.startup_s else 0.0,
        "ms")
    metrics["core.inorder_wait_ms"] = (
        statistics.fmean(waits) if waits else 0.0, "ms")
    metrics.update(net)
    delta = {k: after[k] - before[k] for k in after}

    def ratio(hits, total):
        return hits / total if total else 0.0

    metrics.update({
        "serve.encodes": (delta.get("serve.encodes", 0), "count"),
        "serve.cache_hit_ratio": (ratio(
            delta.get("serve.cache_hits", 0),
            delta.get("serve.cache_hits", 0) + delta.get("serve.cache_misses", 0)),
            "ratio"),
        "serve.frames_dropped": (delta.get("serve.frames_dropped", 0), "count"),
        "serve.tier_transitions": (delta.get("serve.tier_transitions", 0), "count"),
        "relay.store_hit_ratio": (ratio(
            delta.get("relay.store_hits", 0),
            delta.get("relay.store_hits", 0) + delta.get("relay.store_waits", 0)
            + delta.get("relay.frames_unavailable", 0)), "ratio"),
        "relay.origin_frames": (delta.get("relay.origin_frames", 0), "count"),
        "relay.store_waits": (delta.get("relay.store_waits", 0), "count"),
        "relay.frames_unavailable": (
            delta.get("relay.frames_unavailable", 0), "count"),
    })
    if not getattr(workload, "pipelined", False):
        for name in PIPELINED_ONLY:
            del metrics[name]
    shares = {layer: metrics[f"{layer}.self_share"][0] for layer in LAYERS}
    metrics.update({
        "trace.untraced_fps": (e2e_plain["fps"], "1/s"),
        "trace.traced_fps": (e2e_traced["fps"], "1/s"),
        "trace.overhead_fps": (e2e_plain["fps"] - e2e_traced["fps"], "1/s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.split_ok": (int(split_confirmed(workload.name, shares)), "bool"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import load_references
    from tracing import Tracer, install_layers
    from workloads import WORKLOADS, Phase, make_inputs

    workload = WORKLOADS[name]
    inputs = make_inputs(workload.dataset, seed)
    refs = load_references(workload.dataset)
    setup_times: list[float] = []
    state = None
    try:
        if trace:
            state = workload.setup(inputs)
            plain = Phase()
            workload.run_phase(state, inputs, seconds / 2, plain)
            phase = Phase()
            tracer = Tracer()
            connections = workload.connections(state)
            net_before, before = traffic(connections), workload.counters(state)
            install_layers(tracer)
            workload.trace_objects(state, tracer)
            origin = time.perf_counter()
            try:
                if not plain.errors:  # a failed run is never continued
                    workload.run_phase(state, inputs, seconds / 2, phase,
                                       tracer)
            finally:
                tracer.restore()
            net_after, after = traffic(connections), workload.counters(state)
            phases = [plain, phase]
        else:
            phase = Phase()
            repeats = SETUP_REPEATS[name]
            for _ in range(repeats):
                if state is not None:
                    workload.teardown(state)
                    state = None
                state = timed_setup(workload, inputs, setup_times)
                workload.run_phase(state, inputs, seconds / repeats, phase)
                if phase.errors:  # a failed run is never continued
                    break
            phases = [phase]
        verify(phases, workload.expected(state, inputs))
    finally:
        if state is not None:
            workload.teardown(state)

    e2e = end_to_end(workload, phase, inputs, refs)
    attempted = sum(p.attempted for p in phases)
    verified = sum(s.verified for p in phases for s in p.shown)
    errors = [e for p in phases for e in p.errors]
    result = {
        "workload": name, "inputs": inputs, "e2e": e2e, "errors": errors,
        "attempted": attempted, "failed": max(0, attempted - verified),
    }
    if trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"{name}-seed{seed}-spans.json", origin)
        result["layers"] = per_layer(
            workload, phase, tracer,
            net_metrics(net_before, net_after), before, after,
            end_to_end(workload, plain, inputs, refs), e2e)
    else:
        e2e["setup_s"] = statistics.median(setup_times)
        e2e["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


# -- output ------------------------------------------------------------------

def report(result, trace: bool) -> dict:
    """Print the human-readable table; return the result JSON object."""
    inputs = result["inputs"]
    e2e = result["e2e"]
    correct = not result["errors"] and result["failed"] == 0
    print(f"== {result['workload']}: steps {inputs.steps[0]}..{inputs.steps[-1]}, "
          f"camera az {inputs.azimuth:g} el {inputs.elevation:g}, "
          f"{'traced' if trace else 'untraced'}")
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in sorted(result["layers"].items())}
        for k, m in metrics.items():
            print(f"  {k:28s} {m['value']:14.4f} {m['unit']}")
        ok = result["layers"]["trace.split_ok"][0]
        print(f"  split: {SPLIT_CLAIMS[result['workload']]}: "
              f"{'confirmed' if ok else 'NOT confirmed'}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        for k, m in metrics.items():
            print(f"  {k:24s} {m['value']:14.4f} {m['unit']}")
        ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
        print(f"  {'failed_frame_ratio':24s} {ratio:14.4f} ratio")
        n_latency, n_gaps = e2e["_samples"]
        print(f"  samples: {n_latency} frame latencies, {n_gaps} inter-frame gaps")
    for error in result["errors"]:
        print(f"  error: {error}")
    print(f"  checks: {'PASS' if correct else 'FAIL'} "
          f"({result['attempted']} frames attempted, {result['failed']} failed)")
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="jet-live, vortex-pipelined, jet-serve or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"unknown workload {unknown[0]!r}" if unknown
                     else "--seconds must be positive")
    summaries = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        summaries[name] = report(result, bool(args.trace))
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{name}/{k}": m for name, s in summaries.items()
                    for k, m in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
