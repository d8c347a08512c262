"""One codec instance shared by several threads must act like one thread.

§4.1 parallel compression has every SPMD rank thread encode its own
sub-image through the session's one renderer codec, and the serving
layer shares codecs the same way.  Codecs therefore keep no per-call
mutable state: each call allocates its own work arrays, and the only
shared state is content-keyed, immutable caches.  This test runs real
threads over the committed jet reference frames and compares every
payload byte for byte, and every decode pixel for pixel, with a
single-thread run.
"""

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.compress import available_codecs, get_codec

_REFS = Path(__file__).resolve().parents[2] / "framebench" / "refs" / "jet.npz"

#: Codecs that are per-stream by design, with the reason they are skipped.
PER_STREAM = {
    "framediff": "keeps a reference frame per stream, so threads sharing "
    "one instance form a single interleaved stream by construction",
}

THREADS = 4  # more threads than a 2-core host has cores


@pytest.fixture(scope="module")
def frames():
    """Every other reference frame: 11 distinct 128x128 renders."""
    with np.load(_REFS) as refs:
        return [refs[k] for k in sorted(refs.files)[::2]]


def _shared_codecs() -> set[str]:
    return {name for name in available_codecs() if name not in PER_STREAM}


def test_only_per_stream_codecs_are_skipped():
    assert set(available_codecs()) - _shared_codecs() == {"framediff"}


@pytest.mark.parametrize("name", sorted(_shared_codecs()))
def test_shared_instance_matches_single_thread(name, frames):
    single = get_codec(name)
    payloads = [single.encode_image(f) for f in frames]
    images = [single.decode_image(p) for p in payloads]

    shared = get_codec(name)
    start = threading.Barrier(THREADS)
    wrong_payloads: list[int] = []
    wrong_images: list[int] = []
    errors: list[Exception] = []

    def worker(rank: int) -> None:
        try:
            start.wait(timeout=60)
            # each thread starts at a different frame, so concurrent
            # calls always work on different content
            for j in range(len(frames)):
                i = (j + rank * len(frames) // THREADS) % len(frames)
                if shared.encode_image(frames[i]) != payloads[i]:
                    wrong_payloads.append(i)
                if not np.array_equal(shared.decode_image(payloads[i]), images[i]):
                    wrong_images.append(i)
        except Exception as exc:  # reported below, with the counts
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to interleave calls
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a worker thread hung"

    total = THREADS * len(frames)
    assert not errors, f"{len(errors)} calls raised, first: {errors[0]!r}"
    assert not wrong_payloads, f"{len(wrong_payloads)}/{total} payloads differ"
    assert not wrong_images, f"{len(wrong_images)}/{total} decodes differ"
