"""Ray-casting cost per frame — the render stage of the live pipeline.

Renders one frame of the jet and of the vortex (``scale=0.5``, the
datasets of the live frame benchmark) as ``group_size`` bricks plus the
reference composite, at 128² and 256², and reports wall milliseconds per
frame (best of ``--repeat``) and trilinear samples per frame.  The jet
is a sparse plume whose transfer function leaves most of the grid
transparent, so empty-space leaping shows there; the vortex transfer
function is visible from 0, so nothing can be skipped and the vortex
rows show what dense data pays.

Run as a script for machine-readable results tracked across PRs::

    PYTHONPATH=src python benchmarks/bench_render.py --json --label current

writes/updates ``BENCH_render.json`` at the repo root.  Each run appends
its per-row time to ``runs_ms`` under ``--label``, so a ``baseline``
(pre-change checkout) and ``current`` can be alternated run by run on a
noisy host; ``ms_per_frame`` is the median over the runs recorded, and
``<label>_speedup_vs_baseline`` compares the two.
"""

from __future__ import annotations

import statistics
import time

from repro.data import turbulent_jet, turbulent_vortex
from repro.render import (
    Camera,
    TransferFunction,
    composite_bricks,
    decompose,
    raycast,
    render_volume,
)

#: dataset -> (factory, time step, transfer function)
DATASETS = {
    "jet": (lambda: turbulent_jet(scale=0.5), 40, TransferFunction.jet),
    "vortex": (lambda: turbulent_vortex(scale=0.5), 20,
               TransferFunction.vortex),
}
SIZES = (128, 256)
GROUP_SIZES = (1, 4)


def render_frame(volume, tf, camera, bricks):
    partials = [
        render_volume(b.extract(volume), tf, camera, box=b.box) for b in bricks
    ]
    return composite_bricks(partials, bricks, camera)


def count_samples(volume, tf, camera, bricks) -> int:
    """Trilinear samples one frame takes (rows blended, all bricks)."""
    # renderers without empty-space leaping blend inside sample_trilinear
    name = ("_interpolate" if hasattr(raycast, "_interpolate")
            else "sample_trilinear")
    real = getattr(raycast, name)
    count = 0

    def counting(vol, rows, *rest):
        nonlocal count
        count += len(rows)
        return real(vol, rows, *rest)

    setattr(raycast, name, counting)
    try:
        render_frame(volume, tf, camera, bricks)
    finally:
        setattr(raycast, name, real)
    return count


def measure(repeat: int = 5) -> dict:
    """``{"<dataset>/<size>/g<group>": {ms_per_frame, samples_per_frame}}``."""
    rows = {}
    for name, (factory, step, make_tf) in DATASETS.items():
        volume = factory().volume(step)
        tf = make_tf()
        for size in SIZES:
            camera = Camera(image_size=(size, size), azimuth=30.0,
                            elevation=20.0)
            for group in GROUP_SIZES:
                bricks = list(decompose(volume.shape, group))
                samples = count_samples(volume, tf, camera, bricks)
                # the counted frame warmed every cache; best-of-repeat
                # keeps a busy host's stalls out of the number
                best = float("inf")
                for _ in range(repeat):
                    t0 = time.perf_counter()
                    render_frame(volume, tf, camera, bricks)
                    best = min(best, time.perf_counter() - t0)
                rows[f"{name}/{size}/g{group}"] = {
                    "ms_per_frame": round(1000 * best, 2),
                    "samples_per_frame": samples,
                }
    return rows


def write_json(path, label: str, repeat: int) -> dict:
    import json
    from pathlib import Path

    path = Path(path)
    doc = json.loads(path.read_text()) if path.exists() else {}
    entry = doc.setdefault(label, {"rows": {}})
    for key, row in measure(repeat).items():
        old = entry["rows"].get(key, {})
        runs = old.get("runs_ms", []) + [row["ms_per_frame"]]
        entry["rows"][key] = {
            "ms_per_frame": round(statistics.median(runs), 2),
            "runs_ms": runs,
            "samples_per_frame": row["samples_per_frame"],
        }
    base = doc.get("baseline")
    if base is not None and label != "baseline":
        doc[f"{label}_speedup_vs_baseline"] = {
            key: round(base["rows"][key]["ms_per_frame"] / row["ms_per_frame"],
                       2)
            for key, row in entry["rows"].items()
            if key in base["rows"]
        }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> None:
    import argparse
    from pathlib import Path

    repo_root = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", action="store_true",
                    help="write BENCH_render.json")
    ap.add_argument("--out", default=str(repo_root / "BENCH_render.json"))
    ap.add_argument("--label", default="current")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    if not args.json:
        ap.error("nothing to do: pass --json")
    doc = write_json(args.out, args.label, args.repeat)
    for key, row in sorted(doc[args.label]["rows"].items()):
        print(f"{key:<16} {row['ms_per_frame']:>9.2f} ms/frame   "
              f"{row['samples_per_frame']:>9d} samples/frame")


if __name__ == "__main__":
    main()
