"""The live-frame workloads: inputs from the seed, set-up, timed loop.

Every workload is a closed loop driven from one process with at most
two load threads, at 128x128 pixels, over the jpeg+lzo codec the paper
settles on (Table 1).  A *pass* plays :data:`WINDOW` consecutive time
steps; the timed phase runs passes until its time is up.

- ``jet-live`` — ``RemoteVisualizationSession.run()`` over the jet,
  four bricks per group, in-process display daemon.  Render-bound.
- ``vortex-pipelined`` — ``run_pipelined(n_groups=2)`` over the
  vortex, whose volumes cost as much to synthesize as to render, so
  data input and inter-volume overlap show.
- ``jet-serve`` — pre-rendered jet frames published through a
  ``SessionBroker`` to a direct viewer and to a viewer behind a
  ``FrameRelay``; render does no work, codec/cache/relay do.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from checks import digest, expected_frame
from repro import Camera, RemoteVisualizationSession, get_codec
from repro import turbulent_jet, turbulent_vortex
from repro.relay import FrameRelay
from repro.serve import SessionBroker

IMAGE_SIZE = (128, 128)
GROUP_SIZE = 4
CODEC = "jpeg+lzo"
N_GROUPS = 2
#: consecutive time steps per pass
WINDOW = 8
#: the seed picks one of these views and one of START_CHOICES first
#: steps, so committed references cover every input a seed can make
CAMERAS = ((30.0, 20.0), (40.0, 25.0))
START_CHOICES = 4
#: dataset factory and the first time step a seed may start from
DATASETS = {
    "jet": (lambda: turbulent_jet(scale=0.5), 40),
    "vortex": (lambda: turbulent_vortex(scale=0.5), 20),
}
#: jet-serve: replay passes over the same ids after each fresh-id pass.
#: The repo's replay-heavy relay workload (benchmarks/bench_relay.py,
#: loops=3) plays each timeline three times: one fresh pass, two replays.
READ_PASSES = 2
#: longest a viewer waits for one frame before the run counts it lost
FRAME_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class Inputs:
    dataset: str
    steps: tuple[int, ...]
    azimuth: float
    elevation: float

    def camera(self) -> Camera:
        return Camera(image_size=IMAGE_SIZE, azimuth=self.azimuth,
                      elevation=self.elevation)


def make_inputs(dataset: str, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    first = DATASETS[dataset][1] + int(rng.integers(START_CHOICES))
    azimuth, elevation = CAMERAS[int(rng.integers(len(CAMERAS)))]
    return Inputs(dataset, tuple(range(first, first + WINDOW)),
                  azimuth, elevation)


def reference_inputs(dataset: str) -> list[tuple[int, float, float]]:
    """Every (step, azimuth, elevation) some seed can display."""
    base = DATASETS[dataset][1]
    return [
        (step, az, el)
        for step in range(base, base + START_CHOICES - 1 + WINDOW)
        for az, el in CAMERAS
    ]


def new_session(inputs: Inputs, dataset=None) -> RemoteVisualizationSession:
    if dataset is None:
        dataset = DATASETS[inputs.dataset][0]()
    return RemoteVisualizationSession(
        dataset, group_size=GROUP_SIZE, camera=inputs.camera(), codec=CODEC)


@dataclass
class Shown:
    """One frame displayed by one viewer."""

    seq: int            # benchmark frame number (unique per attempt)
    viewer: str
    step: int
    payload_bytes: int
    digest: bytes
    start: float        # production began (render_step or publish call)
    shown: float        # displayed, in order
    arrived: float      # decoded (before any in-order wait)
    segment: int        # inter-frame gaps are taken within a segment
    in_order: bool = True
    verified: bool = False


@dataclass
class Phase:
    """What one timed phase displayed, attempted and lost."""

    wall_s: float = 0.0
    frames_produced: int = 0
    #: frame sequence numbers and segments stay unique across the
    #: set-ups a phase spans
    next_seq: int = 0
    next_segment: int = 0
    attempted: int = 0
    shown: list[Shown] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    startup_s: list[float] = field(default_factory=list)
    #: one decoded image per distinct digest, for PSNR
    images: dict[bytes, np.ndarray] = field(default_factory=dict)


class LiveWorkload:
    """A renderer session animating a window of steps, pass after pass."""

    viewers = 1

    def __init__(self, name: str, dataset: str, pipelined: bool):
        self.name = name
        self.dataset = dataset
        self.pipelined = pipelined

    def setup(self, inputs: Inputs):
        session = new_session(inputs)
        try:
            # start-up: the first frame pays every lazy initialisation
            self._play(session, inputs.steps[:1])
        except BaseException:
            session.close()
            raise
        return {"session": session}

    def teardown(self, state) -> None:
        state["session"].close()

    def _play(self, session, steps, on_frame=None):
        if self.pipelined:
            return session.run_pipelined(steps=list(steps), n_groups=N_GROUPS,
                                         on_frame=on_frame)
        return session.run(steps=steps, on_frame=on_frame)

    def trace_objects(self, state, tracer) -> None:
        """Live sessions create every traced object internally."""

    def connections(self, state):
        """Display-side connections: what crossed toward the viewer."""
        return [state["session"].display.conn]

    def counters(self, state) -> dict:
        return {}

    def run_phase(self, state, inputs: Inputs, seconds: float, phase: Phase,
                  tracer=None) -> None:
        session = state["session"]
        window = list(inputs.steps)
        stamps: dict[int, float] = {}
        base = 0

        def stamped(t):
            stamps[t] = time.perf_counter()
            if tracer is not None:
                tracer.set_frame(base + window.index(t))
            # looked up on the class so an installed trace wrapper runs
            return RemoteVisualizationSession.render_step(session, t)

        session.render_step = stamped
        begin = time.perf_counter()
        deadline = begin + seconds
        try:
            while time.perf_counter() < deadline:
                base = phase.next_seq
                phase.next_seq += len(window)
                if tracer is not None:
                    tracer.frame_of_result = (
                        lambda f, b=base: b + window.index(f.time_step))
                arrivals = []

                def on_frame(frame):
                    arrivals.append((time.perf_counter(), frame,
                                     digest(frame.image)))

                stamps.clear()
                pass_start = time.perf_counter()
                error = None
                try:
                    self._play(session, window, on_frame)
                except Exception as exc:  # counted as lost frames, never retried
                    error = f"{type(exc).__name__}: {exc}"
                phase.attempted += len(window)
                phase.frames_produced += len(stamps)
                self._record(phase, window, base, stamps, arrivals, pass_start)
                if error is not None:
                    phase.errors.append(error)
                    break
        finally:
            del session.render_step
        phase.wall_s += time.perf_counter() - begin

    def _record(self, phase, window, base, stamps, arrivals,
                pass_start) -> None:
        segment = phase.next_segment
        phase.next_segment += 1
        # frames are displayed in step order: one that arrives early
        # waits for every earlier one (the paper's in-order display)
        slots: dict[int, tuple] = {}
        late: list[tuple] = []
        for position, (arrived, frame, dg) in enumerate(arrivals):
            # run_pipelined numbers frames by position in the step list
            index = frame.frame_id if self.pipelined else position
            ok = (0 <= index < len(window) and index not in slots
                  and frame.time_step == window[index])
            if ok:
                slots[index] = (arrived, frame, dg)
            else:
                late.append((arrived, frame, dg))
        shown_at = 0.0
        for index in range(len(window)):
            if index not in slots:
                break  # nothing after a missing frame is ever displayed
            arrived, frame, dg = slots[index]
            shown_at = max(shown_at, arrived)
            phase.images.setdefault(dg, frame.image)
            phase.shown.append(Shown(
                seq=base + index, viewer="display", step=frame.time_step,
                payload_bytes=frame.payload_bytes, digest=dg,
                start=stamps.get(frame.time_step, pass_start),
                shown=shown_at, arrived=arrived, segment=segment))
        for arrived, frame, dg in late:  # duplicates, strays: failed
            phase.shown.append(Shown(
                seq=-1, viewer="display", step=frame.time_step,
                payload_bytes=frame.payload_bytes, digest=dg,
                start=arrived, shown=arrived, arrived=arrived,
                segment=segment, in_order=False))
        if 0 in slots:
            phase.startup_s.append(slots[0][0] - pass_start)

    def expected(self, state, inputs: Inputs) -> dict[int, tuple[bytes, int]]:
        session = new_session(inputs)
        try:
            encoder, decoder = get_codec(CODEC), get_codec(CODEC)
            return {t: expected_frame(session, t, encoder, decoder)
                    for t in inputs.steps}
        finally:
            session.close()


class ServeWorkload:
    """Pre-rendered frames published to a direct and a relayed viewer.

    Each cycle publishes :data:`WINDOW` fresh frame ids (encode, broker
    cache write, relay store write), then replays the same ids
    :data:`READ_PASSES` times (broker cache reads; the relayed viewer
    seeks back and reads the relay store).  The next publish waits
    until both viewers have displayed the frame.
    """

    viewers = 2

    def __init__(self, name: str, dataset: str):
        self.name = name
        self.dataset = dataset

    def setup(self, inputs: Inputs):
        session = new_session(inputs)
        try:
            images = [session.render_step(t) for t in inputs.steps]
        finally:
            session.close()
        broker = SessionBroker()
        try:
            relay = FrameRelay("edge", broker)
        except BaseException:
            broker.close()
            raise
        state = {"images": images, "broker": broker, "relay": relay,
                 "next_id": 0}
        try:
            state["direct"] = broker.join("direct")
            # one frame of credit: the relay reads its store for frame
            # k+1 only once the viewer has consumed frame k
            state["remote"] = relay.join("remote", credit_limit=1)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def teardown(self, state) -> None:
        for viewer in ("remote", "direct"):
            if viewer in state:
                state[viewer].leave()
        state["relay"].close()
        state["broker"].close()

    def trace_objects(self, state, tracer) -> None:
        tracer.patch(state["broker"], "publish", "serve")
        tracer.patch(state["broker"].cache, "get_or_encode", "serve")
        tracer.patch(state["direct"], "next_frame", "serve", wait=True)
        tracer.patch(state["remote"], "next_frame", "relay", wait=True)
        tracer.patch(state["relay"].store, "put", "relay")
        tracer.patch(state["relay"].store, "get_pinned", "relay")

    def connections(self, state):
        return [state["direct"].conn, state["remote"].conn]

    def counters(self, state) -> dict:
        serve = state["broker"].stats()
        relay = state["relay"].stats_snapshot()
        sessions = serve.sessions.values()
        return {
            "serve.encodes": serve.encodes,
            "serve.cache_hits": serve.cache_hits,
            "serve.cache_misses": serve.cache_misses,
            "serve.frames_dropped": sum(s.frames_dropped for s in sessions),
            "serve.tier_transitions": sum(len(s.transitions) for s in sessions),
            "relay.store_hits": relay.store_hits,
            "relay.store_waits": relay.store_waits,
            "relay.frames_unavailable": relay.frames_unavailable,
            "relay.origin_frames": relay.origin_frames,
        }

    def run_phase(self, state, inputs: Inputs, seconds: float, phase: Phase,
                  tracer=None) -> None:
        broker, direct, remote = state["broker"], state["direct"], state["remote"]
        go: queue.Queue = queue.Queue()
        done: queue.Queue = queue.Queue()

        def remote_viewer():
            while True:
                seq = go.get()
                if seq is None:
                    return
                if tracer is not None:
                    tracer.set_frame(seq)
                try:
                    frame = remote.next_frame(timeout=FRAME_TIMEOUT_S)
                    done.put((time.perf_counter(), frame,
                              digest(frame.image), None))
                except Exception as exc:  # reported by the load loop
                    done.put((time.perf_counter(), None, None,
                              f"remote: {type(exc).__name__}: {exc}"))
                    return

        def one_frame(fid, image, step, segment) -> None:
            seq = phase.next_seq
            phase.next_seq += 1
            if tracer is not None:
                tracer.set_frame(seq)
            phase.attempted += self.viewers
            phase.frames_produced += 1
            start = time.perf_counter()
            go.put(seq)
            results = {}
            try:
                broker.publish(image, time_step=step, frame_id=fid)
                frame = direct.next_frame(timeout=FRAME_TIMEOUT_S)
                results["direct"] = (time.perf_counter(), frame,
                                     digest(frame.image), None)
            except Exception as exc:  # counted as lost frames, never retried
                phase.errors.append(f"direct: {type(exc).__name__}: {exc}")
            try:
                results["remote"] = done.get(timeout=FRAME_TIMEOUT_S + 5.0)
            except queue.Empty:
                phase.errors.append("remote: no frame")
            for viewer, (at, frame, dg, error) in results.items():
                if error is not None:
                    phase.errors.append(error)
                    continue
                phase.images.setdefault(dg, frame.image)
                phase.shown.append(Shown(
                    seq=seq, viewer=viewer, step=step,
                    payload_bytes=frame.payload_bytes, digest=dg, start=start,
                    shown=at, arrived=at, segment=segment,
                    in_order=frame.frame_id == fid and frame.time_step == step))

        worker = threading.Thread(target=remote_viewer, name="remote-viewer")
        worker.start()
        begin = time.perf_counter()
        deadline = begin + seconds
        try:
            while time.perf_counter() < deadline and not phase.errors:
                segment = phase.next_segment
                phase.next_segment += 1
                base = state["next_id"]
                state["next_id"] += WINDOW
                for replay in range(1 + READ_PASSES):
                    if replay:
                        remote.seek(base)
                    for k, (image, step) in enumerate(
                            zip(state["images"], inputs.steps)):
                        one_frame(base + k, image, step, segment)
                        if phase.errors:
                            break
                    if phase.errors:
                        break
        finally:
            go.put(None)
            worker.join(timeout=FRAME_TIMEOUT_S + 5.0)
        phase.wall_s += time.perf_counter() - begin

    def expected(self, state, inputs: Inputs) -> dict[int, tuple[bytes, int]]:
        session = new_session(inputs)
        tier = state["broker"].ladder[0]
        try:
            encoder, decoder = tier.make_codec(), tier.make_codec()
            return {t: expected_frame(session, t, encoder, decoder)
                    for t in inputs.steps}
        finally:
            session.close()


WORKLOADS = {
    w.name: w
    for w in (
        LiveWorkload("jet-live", "jet", pipelined=False),
        LiveWorkload("vortex-pipelined", "vortex", pipelined=True),
        ServeWorkload("jet-serve", "jet"),
    )
}
