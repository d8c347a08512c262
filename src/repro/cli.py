"""Command-line interface: ``python -m repro <command>``.

Commands mirror the workflows a user of the paper's system would run:

- ``render``    one time step of a dataset to a PPM image;
- ``animate``   a remote session over a step range (frames to a directory);
- ``partition`` sweep the processor grouping L (Figure 6/7 workflow);
- ``codecs``    compare codecs on a rendered frame (Table 1 workflow);
- ``simulate``  one pipeline configuration on a modeled machine;
- ``serve``     fan one rendered sequence out to N adaptive viewers;
- ``faults``    serve over a WAN-shaped link with injected faults;
- ``relay``     serve a replay-heavy viewer pool through one edge relay;
- ``relay-topology``  a full origin → relay-mesh → viewer-pool scenario;
- ``lint``      run the repo's concurrency/protocol lint pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.compress import available_codecs, get_codec, percent_reduction, psnr
from repro.core import (
    PartitionPlan,
    PerformanceModel,
    PipelineConfig,
    RemoteVisualizationSession,
    candidate_partitions,
    simulate_pipeline,
)
from repro.data import DATASET_REGISTRY, get_dataset
from repro.net import get_route
from repro.render import Camera, TransferFunction, render_volume, to_display_rgb
from repro.render.ppm import write_ppm
from repro.sim.cluster import NASA_O2K, O2_CLIENT, RWCP_CLUSTER
from repro.sim.costs import JET_PROFILE, MIXING_PROFILE, VORTEX_PROFILE

__all__ = ["main", "build_parser"]

_MACHINES = {"rwcp": RWCP_CLUSTER, "o2k": NASA_O2K}
_PROFILES = {
    "turbulent-jet": JET_PROFILE,
    "turbulent-vortex": VORTEX_PROFILE,
    "shock-mixing": MIXING_PROFILE,
}
_TFS = {
    "jet": TransferFunction.jet,
    "vortex": TransferFunction.vortex,
    "mixing": TransferFunction.mixing,
    "gray": TransferFunction.grayscale,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Remote time-varying volume visualization (Ma & Camp, SC 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(p):
        p.add_argument(
            "--dataset", default="turbulent-jet", choices=sorted(DATASET_REGISTRY)
        )
        p.add_argument("--scale", type=float, default=0.4,
                       help="grid scale factor (1.0 = paper size)")
        p.add_argument("--tf", default=None, choices=sorted(_TFS),
                       help="transfer function (default: match dataset)")
        p.add_argument("--size", type=int, default=256, help="image size (square)")
        p.add_argument("--azimuth", type=float, default=30.0)
        p.add_argument("--elevation", type=float, default=20.0)

    p = sub.add_parser("render", help="render one time step to a PPM file")
    add_dataset_args(p)
    p.add_argument("--step", type=int, default=0)
    p.add_argument("--output", default="frame.ppm")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("animate", help="run a remote session over a step range")
    add_dataset_args(p)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--codec", default="jpeg+lzo", choices=available_codecs())
    p.add_argument("--pieces", type=int, default=1, help="parallel-compression pieces")
    p.add_argument("--output-dir", default=None,
                   help="write received frames as PPMs to this directory")
    p.set_defaults(func=cmd_animate)

    p = sub.add_parser("partition", help="sweep processor groupings (Fig 6/7)")
    p.add_argument("--machine", default="rwcp", choices=sorted(_MACHINES))
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--profile", default="turbulent-jet", choices=sorted(_PROFILES))
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("codecs", help="compare codecs on a rendered frame (Table 1)")
    add_dataset_args(p)
    p.add_argument("--step", type=int, default=0)
    p.set_defaults(func=cmd_codecs)

    p = sub.add_parser("simulate", help="simulate one pipeline configuration")
    p.add_argument("--machine", default="rwcp", choices=sorted(_MACHINES))
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--groups", type=int, default=4)
    p.add_argument("--steps", type=int, default=128)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--profile", default="turbulent-jet", choices=sorted(_PROFILES))
    p.add_argument("--transport", default="store", choices=["store", "x", "daemon"])
    p.add_argument("--route", default="nasa-ucd")
    p.add_argument("--io-servers", type=int, default=1)
    p.add_argument("--timeline", action="store_true",
                   help="print the ASCII schedule after the metrics")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "autotune",
        help="pick (L, pieces, quality) for a target frame rate",
    )
    p.add_argument("--machine", default="o2k", choices=sorted(_MACHINES))
    p.add_argument("--procs", type=int, default=64)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--profile", default="turbulent-jet", choices=sorted(_PROFILES))
    p.add_argument("--route", default="nasa-ucd")
    p.add_argument("--target-fps", type=float, default=5.0)
    p.set_defaults(func=cmd_autotune)

    p = sub.add_parser(
        "serve",
        help="fan a frame sequence out to N viewers through the session broker",
    )
    add_dataset_args(p)
    p.add_argument("--viewers", type=int, default=8)
    p.add_argument("--frames", type=int, default=32)
    p.add_argument("--slow", type=int, default=0,
                   help="of the viewers, how many never drain (stress the "
                        "adaptive tier controller)")
    p.add_argument("--credits", type=int, default=8,
                   help="per-viewer delivery credits before drops begin")
    p.add_argument("--synthetic", action="store_true",
                   help="use synthetic frames instead of rendering the dataset")
    p.add_argument("--encode-workers", type=int, default=0,
                   help="encode-pool worker processes for cold cache "
                        "fills (0 = encode in-process)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "faults",
        help="serve synthetic frames over a fault-injected WAN link",
    )
    p.add_argument("--seed", type=int, default=1234,
                   help="fault-plan seed (same seed -> same behaviour)")
    p.add_argument("--loss", type=float, default=0.05,
                   help="per-attempt frame loss ratio (retransmitted)")
    p.add_argument("--latency", type=float, default=0.0,
                   help="fixed one-way delivery latency, seconds")
    p.add_argument("--jitter", type=float, default=0.1,
                   help="uniform extra delay on top of latency, seconds")
    p.add_argument("--corrupt", type=float, default=0.0,
                   help="per-attempt payload corruption ratio")
    p.add_argument("--disconnect-after", type=int, default=None,
                   help="cut the link after N delivered frames "
                        "(viewer reconnects and resumes)")
    p.add_argument("--frames", type=int, default=96)
    p.add_argument("--viewers", type=int, default=2)
    p.add_argument("--pace", type=float, default=0.03,
                   help="seconds between published frames")
    p.add_argument("--credits", type=int, default=8)
    p.add_argument("--relays", type=int, default=0,
                   help="route the scenario through N edge relays (the "
                        "fault plan moves to the relay→viewer hop)")
    p.add_argument("--encode-workers", type=int, default=0,
                   help="encode-pool worker processes (0 = in-process)")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "relay",
        help="run one edge relay under a replay-heavy viewer pool and "
             "print its stats summary",
    )
    p.add_argument("--viewers", type=int, default=4)
    p.add_argument("--frames", type=int, default=48)
    p.add_argument("--loops", type=int, default=3,
                   help="timeline passes per viewer (replays are "
                        "served from the relay store)")
    p.add_argument("--size", type=int, default=32, help="frame size (square)")
    p.add_argument("--pace", type=float, default=0.005,
                   help="seconds between published frames")
    p.add_argument("--lookahead", type=int, default=16,
                   help="timeline prefetch window, frames")
    p.add_argument("--store-mb", type=int, default=32,
                   help="relay store budget, MiB")
    p.set_defaults(func=cmd_relay)

    p = sub.add_parser(
        "relay-topology",
        help="run an origin → relay-mesh → viewer-pool scenario "
             "(ownership ring, peer fetch, optional mid-stream kill)",
    )
    p.add_argument("--relays", type=int, default=2)
    p.add_argument("--viewers", type=int, default=8)
    p.add_argument("--frames", type=int, default=48)
    p.add_argument("--loops", type=int, default=3)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--pace", type=float, default=0.005)
    p.add_argument("--chunk", type=int, default=16,
                   help="frames per ownership chunk on the hash ring")
    p.add_argument("--kill-after", type=int, default=None,
                   help="kill relay0 once any viewer has consumed N "
                        "frames (its viewers fail over to a peer)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="loss ratio on the relay→viewer links")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="jitter (s) on the relay→viewer links")
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=cmd_relay_topology)

    # `repro lint` hands its arguments to repro.devtools.lint.main,
    # which owns the lint options (`repro lint --help` lists them)
    sub.add_parser(
        "lint", add_help=False,
        help="run the concurrency/protocol lint pass, the DT7xx lockset "
             "race analyzer, the DT8xx resource-lifecycle analyzer, and "
             "the DT9xx protocol-conformance analyzer "
             "(see docs/devtools.md)",
    )

    return parser


def _default_tf(args) -> TransferFunction:
    if args.tf is not None:
        return _TFS[args.tf]()
    by_dataset = {
        "turbulent-jet": TransferFunction.jet,
        "turbulent-vortex": TransferFunction.vortex,
        "shock-mixing": TransferFunction.mixing,
    }
    return by_dataset[args.dataset]()


def cmd_render(args) -> int:
    dataset = get_dataset(args.dataset, scale=args.scale)
    cam = Camera(
        image_size=(args.size, args.size),
        azimuth=args.azimuth,
        elevation=args.elevation,
    )
    volume = dataset.volume(args.step)
    frame = to_display_rgb(render_volume(volume, _default_tf(args), cam))
    write_ppm(args.output, frame)
    print(f"wrote {args.output}: step {args.step} of {dataset.name}, "
          f"{args.size}x{args.size}")
    return 0


def cmd_animate(args) -> int:
    dataset = get_dataset(args.dataset, scale=args.scale, n_steps=args.steps)
    out_dir = Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    with RemoteVisualizationSession(
        dataset,
        group_size=args.group_size,
        camera=Camera(
            image_size=(args.size, args.size),
            azimuth=args.azimuth,
            elevation=args.elevation,
        ),
        tf=_default_tf(args),
        codec=args.codec,
        n_pieces=args.pieces,
    ) as session:
        def sink(frame):
            if out_dir:
                write_ppm(out_dir / f"frame_{frame.time_step:04d}.ppm", frame.image)

        report = session.run(on_frame=sink)
    raw = report.raw_bytes_per_frame
    for frame, payload in zip(report.frames, report.payload_bytes):
        print(f"step {frame.time_step:4d}: {payload:8d} B "
              f"({percent_reduction(raw, payload):5.1f}% reduction)")
    print(report.metrics.summary())
    return 0


def cmd_partition(args) -> int:
    machine = _MACHINES[args.machine]
    model = PerformanceModel(
        machine=machine, profile=_PROFILES[args.profile], pixels=args.size**2
    )
    print(f"{'L':>4} {'kind':>14} {'overall':>10} {'startup':>9} {'inter':>8}")
    best_l, best = None, float("inf")
    for l_groups in candidate_partitions(args.procs):
        m = model.predict(PartitionPlan(args.procs, l_groups), args.steps)
        print(
            f"{l_groups:>4} {PartitionPlan(args.procs, l_groups).kind:>14} "
            f"{m.overall_time:>9.1f}s {m.start_up_latency:>8.2f}s "
            f"{m.inter_frame_delay:>7.3f}s"
        )
        if m.overall_time < best:
            best_l, best = l_groups, m.overall_time
    print(f"\nrecommended: L={best_l} ({best:.1f}s overall)")
    return 0


def cmd_codecs(args) -> int:
    dataset = get_dataset(args.dataset, scale=args.scale)
    cam = Camera(
        image_size=(args.size, args.size),
        azimuth=args.azimuth,
        elevation=args.elevation,
    )
    frame = to_display_rgb(
        render_volume(dataset.volume(args.step), _default_tf(args), cam)
    )
    print(f"{'method':>10} {'bytes':>9} {'reduction':>10} {'quality':>9}")
    for method in ("raw", "rle", "lzo", "deflate", "bzip", "jpeg", "jpeg+lzo", "jpeg+bzip"):
        codec = get_codec(method)
        payload = codec.encode_image(frame)
        q = psnr(frame, codec.decode_image(payload))
        q_str = "lossless" if q == float("inf") else f"{q:6.1f}dB"
        print(
            f"{method:>10} {len(payload):>9} "
            f"{percent_reduction(frame.nbytes, len(payload)):>9.1f}% {q_str:>9}"
        )
    return 0


def cmd_simulate(args) -> int:
    machine = _MACHINES[args.machine]
    config = PipelineConfig(
        n_procs=args.procs,
        n_groups=args.groups,
        n_steps=args.steps,
        profile=_PROFILES[args.profile],
        machine=machine,
        image_size=(args.size, args.size),
        transport=args.transport,
        route=get_route(args.route) if args.transport != "store" else None,
        client=O2_CLIENT if args.transport != "store" else None,
        io_servers=args.io_servers,
    )
    result = simulate_pipeline(config)
    m = result.metrics
    print(f"machine        : {machine.name} (P={args.procs}, L={args.groups})")
    print(f"transport      : {args.transport}")
    print(f"start-up       : {m.start_up_latency:.2f} s")
    print(f"overall        : {m.overall_time:.2f} s")
    print(f"inter-frame    : {m.inter_frame_delay:.3f} s ({m.frame_rate:.2f} fps)")
    print(f"storage busy   : {result.storage_utilization * 100:.0f}%")
    print(f"output busy    : {result.output_utilization * 100:.0f}%")
    if args.timeline:
        from repro.core import render_timeline

        print()
        print(render_timeline(result, width=100))
    return 0


def cmd_autotune(args) -> int:
    from repro.core import autotune

    cfg = autotune(
        _MACHINES[args.machine],
        _PROFILES[args.profile],
        get_route(args.route),
        O2_CLIENT,
        n_procs=args.procs,
        image_size=(args.size, args.size),
        target_fps=args.target_fps,
    )
    verdict = "meets" if cfg.meets_target else "CANNOT meet"
    print(f"target         : {args.target_fps:.1f} fps at {args.size}x{args.size}")
    print(f"recommendation : L={cfg.n_groups} pieces={cfg.n_pieces} "
          f"quality={cfg.quality}")
    print(f"predicted      : {cfg.predicted_fps:.2f} fps "
          f"(startup {cfg.predicted_startup_s:.2f}s) -> {verdict} the target")
    return 0


def cmd_serve(args) -> int:
    import threading
    import time

    from contextlib import nullcontext

    from repro.serve import EncodePool, SessionBroker
    from repro.serve.fanout import synthetic_frames

    if args.synthetic:
        frames = synthetic_frames(args.frames, size=args.size)
    else:
        dataset = get_dataset(args.dataset, scale=args.scale,
                              n_steps=args.frames)
        cam = Camera(
            image_size=(args.size, args.size),
            azimuth=args.azimuth,
            elevation=args.elevation,
        )
        tf = _default_tf(args)
        frames = [
            to_display_rgb(render_volume(dataset.volume(t), tf, cam))
            for t in range(min(args.frames, dataset.n_steps))
        ]
    n_slow = min(args.slow, args.viewers)
    with (
        EncodePool(args.encode_workers) if args.encode_workers > 0
        else nullcontext()
    ) as pool, SessionBroker(
        credit_limit=args.credits, encode_pool=pool
    ) as broker:
        fast = [broker.join(f"fast{i}") for i in range(args.viewers - n_slow)]
        slow = [broker.join(f"slow{i}") for i in range(n_slow)]
        stop = threading.Event()

        def drain(handle):
            while not stop.is_set():
                try:
                    handle.next_frame(timeout=0.2)
                except TimeoutError:
                    continue
                except ConnectionError:
                    return

        threads = [
            threading.Thread(target=drain, args=(h,), daemon=True) for h in fast
        ]
        for t in threads:
            t.start()
        t0 = time.perf_counter()
        for step, image in enumerate(frames):
            broker.publish(image, time_step=step, frame_id=step)
        broker.drain(timeout=10.0, names=[h.name for h in fast])
        elapsed = time.perf_counter() - t0
        stats = broker.stats()
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        for h in fast + slow:
            h.leave()
    print(stats.summary())
    print(f"delivered {stats.total_frames_sent} frames "
          f"({stats.total_bytes_sent} B) in {elapsed:.2f}s; "
          f"{stats.total_transitions} tier transitions")
    return 0


def cmd_faults(args) -> int:
    from repro.net.faults import FaultPlan
    from repro.serve.faultrun import run_with_faults

    plan = FaultPlan(
        seed=args.seed,
        loss_ratio=args.loss,
        latency_s=args.latency,
        jitter_s=args.jitter,
        corrupt_ratio=args.corrupt,
        disconnect_after=args.disconnect_after,
    )
    report = run_with_faults(
        plan,
        n_frames=args.frames,
        n_viewers=args.viewers,
        credit_limit=args.credits,
        pace_s=args.pace,
        relays=args.relays,
        encode_workers=args.encode_workers,
    )
    if args.relays:
        print(f"topology       : origin -> {args.relays} relay(s) -> viewers "
              f"(fault plan on the relay→viewer hop)")
    print(f"plan           : loss {plan.loss_ratio * 100:.1f}%  "
          f"latency {plan.latency_s * 1000:.0f}ms  "
          f"jitter {plan.jitter_s * 1000:.0f}ms  "
          f"corrupt {plan.corrupt_ratio * 100:.1f}%  "
          f"disconnect_after {plan.disconnect_after}")
    print(f"published      : {report['n_frames']} frames to "
          f"{report['n_viewers']} viewers in {report['elapsed_s']:.2f}s")
    print(f"delivered ratio: {report['delivered_ratio'] * 100:.1f}% (worst), "
          f"{report['mean_delivered_ratio'] * 100:.1f}% (mean)")
    print(f"resumes        : {report['resumes']}  "
          f"malformed ctrl : {report['malformed_controls']}")
    header = (f"{'session':<10}{'ratio':>8}{'acks':>7}{'skip':>6}{'drop':>6}"
              f"{'tier':>6}{'steps':>7}{'rejoin':>8}{'dups':>6}")
    print(header)
    for name in sorted(report["sessions"]):
        s = report["sessions"][name]
        print(f"{name:<10}{s['delivered_ratio'] * 100:>7.1f}%{s['acks']:>7}"
              f"{s['skipped']:>6}{s['dropped']:>6}{s['tier']:>6}"
              f"{s['transitions']:>7}{s['reconnects']:>8}"
              f"{s['observed_duplicates']:>6}")
    return 0


def cmd_relay(args) -> int:
    from repro.relay import PrefetchPolicy, run_relay_topology

    report = run_relay_topology(
        n_relays=1,
        n_viewers=args.viewers,
        n_frames=args.frames,
        loops=args.loops,
        size=args.size,
        pace_s=args.pace,
        store_bytes=args.store_mb << 20,
        prefetch=PrefetchPolicy(lookahead=args.lookahead),
    )
    for summary in report["summaries"]:
        print(summary)
    print(f"workload: {args.viewers} viewers x {args.loops} loops x "
          f"{args.frames} frames in {report['elapsed_s']:.2f}s")
    print(f"delivered {report['delivered_ratio'] * 100:.1f}% (worst viewer), "
          f"{report['duplicates']} dups, {report['skips']} skips; "
          f"origin offload {report['offload_ratio'] * 100:.1f}%")
    return 0


def cmd_relay_topology(args) -> int:
    from repro.net.faults import FaultPlan
    from repro.relay import run_relay_topology

    plan = None
    if args.loss or args.jitter:
        plan = FaultPlan(seed=args.seed, loss_ratio=args.loss,
                         jitter_s=args.jitter)
    report = run_relay_topology(
        n_relays=args.relays,
        n_viewers=args.viewers,
        n_frames=args.frames,
        loops=args.loops,
        size=args.size,
        pace_s=args.pace,
        chunk_frames=args.chunk,
        viewer_plan=plan,
        kill_relay_after=args.kill_after,
    )
    topo = report["topology"]
    print(f"topology : origin -> {topo['n_relays']} relays "
          f"(chunk={topo['chunk_frames']}) -> {topo['n_viewers']} viewers"
          + (f"  [killed {topo['killed']} mid-stream]"
             if topo["killed"] else ""))
    print(f"workload : {args.loops} loops x {args.frames} frames, "
          f"done in {report['elapsed_s']:.2f}s "
          f"(completed={report['completed']})")
    print(f"delivery : {report['delivered_ratio'] * 100:.1f}% worst / "
          f"{report['mean_delivered_ratio'] * 100:.1f}% mean, "
          f"{report['duplicates']} dups, {report['skips']} skips, "
          f"{report['failovers']} failovers")
    print(f"offload  : {report['offload_ratio'] * 100:.1f}% "
          f"({report['origin_frames']} origin frames for "
          f"{report['viewer_frames']} viewer frames)")
    for summary in report["summaries"]:
        print(summary)
    header = (f"{'viewer':<10}{'ratio':>8}{'loops':>7}{'dups':>6}"
              f"{'skips':>7}{'failover':>10}")
    print(header)
    for name in sorted(report["viewers"]):
        v = report["viewers"][name]
        print(f"{name:<10}{v['delivered_ratio'] * 100:>7.1f}%"
              f"{v['loops_done']:>7}{v['duplicates']:>6}{v['skips']:>7}"
              f"{v['failovers']:>10}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.devtools import lint

        return lint.main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
