#!/usr/bin/env python3
"""Write the raw reference renders ``psnr_db`` is measured against.

Renders every (time step, camera) that some ``--seed`` can display, on
the single-thread path (``render_step``, no codec), into
``framebench/refs/<dataset>.npz``.  The committed files pin image
quality at the commit that made them; regenerate them only when a
change of the rendered image is intended, and say so.

Usage (from the repository root)::

    python3 framebench/make_refs.py
"""

from __future__ import annotations

import numpy as np

import run


def main() -> None:
    run.import_program()
    from checks import REFS_DIR, reference_key
    from workloads import DATASETS, Inputs, new_session, reference_inputs

    REFS_DIR.mkdir(exist_ok=True)
    for name, (factory, _) in DATASETS.items():
        dataset = factory()
        frames = {}
        for step, az, el in reference_inputs(name):
            session = new_session(Inputs(name, (step,), az, el), dataset)
            try:
                frames[reference_key(step, az, el)] = session.render_step(step)
            finally:
                session.close()
        np.savez_compressed(REFS_DIR / f"{name}.npz", **frames)
        print(f"{name}: {len(frames)} frames")


if __name__ == "__main__":
    main()
