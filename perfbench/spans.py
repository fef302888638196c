"""Wall-clock layer spans recorded by patching the program's entry points.

The benchmark measures host time per layer without changing the
program: :func:`instrument` replaces each listed function or method by a
wrapper that opens a span around the call, at every name a caller looks
it up by (``from .distance import euclidean_to_point`` binds a second
name in the importing module, so every module attribute that *is* the
function is patched).  Everything is restored when the context exits.

A span records its name, start, end, parent span and op id.  Spans of
the first few ops are kept in memory and written out when the run ends;
for all ops the recorder keeps exact per-name totals: calls, inclusive
time and self time (the span's duration minus the time its child spans
cover).

The same patch can add a fixed busy-wait to one entry point
(``delays``), which the benchmark's negative control uses to slow a
layer on purpose.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Span name -> layer metric the span's self time is charged to.
LAYER_OF = {
    "core.distance": "core.distance_s",
    "core.phases": "core.phases_s",
    "core.greedy": "core.greedy_s",
    "core.fit": "core.fit_self_s",
    "gpu.launch": "gpu.launch_self_s",
    "hardware.account": "hardware.account_s",
    "hardware.total_seconds": "hardware.total_seconds_s",
    "hardware.kernel_cost": "hardware.kernel_cost_s",
    "fleet.launch": "fleet.launch_self_s",
    "serve.submit": "serve.submit_self_s",
    "serve.pop_group": "serve.pop_group_s",
    "serve.run_group": "serve.run_group_self_s",
    "multiparam.coalesced_group": "multiparam.coalesced_group_self_s",
    "multiparam.shared_state": "multiparam.shared_state_s",
    "resilience.fit": "resilience.fit_self_s",
    "obs.event": "obs.event_s",
    "obs.kernel": "obs.kernel_event_s",
    "data.fingerprint": "data.fingerprint_s",
}


def _targets():
    """(span name, owner, attribute[, op key]) per instrumented entry point.

    ``owner`` is a class for methods and properties, and the defining
    module for functions (whose every alias is patched too).  The op key
    tags the serve worker's spans with the group leader's job id.
    """
    from repro.core import base, distance, greedy, multiparam, phases
    from repro.data import fingerprint
    from repro.fleet.device import FleetDevice
    from repro.gpu.device import Device
    from repro.hardware.cost_model import GpuModel, HardwareModel
    from repro.obs.tracer import Tracer
    from repro.resilience.runner import ResilientRunner
    from repro.serve.scheduler import JobScheduler
    from repro.serve.service import ClusterService

    return [
        ("core.distance", distance, "euclidean_to_point"),
        ("core.distance", distance, "euclidean_distances"),
        ("core.distance", distance, "abs_diff_dim_sums"),
        ("core.distance", distance, "segmental_distances"),
        ("core.phases", phases, "find_dimensions"),
        ("core.phases", phases, "assign_points"),
        ("core.phases", phases, "cluster_sizes_from_labels"),
        ("core.phases", phases, "evaluate_clusters"),
        ("core.phases", phases, "compute_bad_medoids"),
        ("core.phases", phases, "find_outliers"),
        ("core.greedy", greedy, "greedy_select"),
        ("core.fit", base.EngineBase, "fit"),
        ("gpu.launch", Device, "launch"),
        ("hardware.account", HardwareModel, "account"),
        ("hardware.total_seconds", HardwareModel, "total_seconds"),
        ("hardware.kernel_cost", GpuModel, "launch"),
        ("fleet.launch", FleetDevice, "launch"),
        ("serve.submit", ClusterService, "submit"),
        ("serve.pop_group", JobScheduler, "pop_group"),
        ("serve.run_group", ClusterService, "_run_group",
         lambda args: f"job-{args[1][0].job_id}"),
        # The service runs the run_coalesced_group protocol inline.
        ("multiparam.coalesced_group", ClusterService, "_run_coalesced"),
        ("multiparam.shared_state", multiparam, "build_solo_shared_state"),
        ("resilience.fit", ResilientRunner, "fit"),
        ("obs.event", ClusterService, "_event"),
        ("obs.kernel", Tracer, "kernel"),
        ("data.fingerprint", fingerprint, "dataset_fingerprint"),
    ]


class SpanRecorder:
    """Per-thread span stacks plus exact per-name totals."""

    #: Ops whose spans are kept for writing out.
    KEEP_OPS = 3

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Summed duration of spans with no parent (per-thread roots).
        self.root_time = 0.0
        #: Kept spans: (id, name, start, end, parent id, op id, thread).
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._kept_ops: set = set()
        #: Span name -> callables run after each call (see :meth:`wrap`).
        self.observers: dict[str, list] = defaultdict(list)

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def set_op(self, op_id) -> None:
        """Tag the spans this thread opens from now on with ``op_id``."""
        self._local.op_id = op_id

    def wrap(self, name: str, fn, delay: float = 0.0, op_key=None):
        """``fn`` inside a span named ``name``.

        ``op_key(args)`` names the op the call belongs to (the serve
        worker's group); observers registered in :attr:`observers` for
        ``name`` see ``(args, result, start, end)`` of every call that
        returns.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = recorder._local
            outer_op = getattr(local, "op_id", None)
            if op_key is not None:
                local.op_id = op_key(args)
            frames = recorder._frames()
            # frame = [span id, accumulated child seconds]
            frame = [next(recorder._ids), 0.0]
            parent = frames[-1][0] if frames else None
            frames.append(frame)
            start = time.perf_counter()
            try:
                if delay:
                    _busy_wait(delay)
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][1] += duration
                op_id = getattr(local, "op_id", None)
                local.op_id = outer_op
                with recorder._lock:
                    recorder.calls[name] += 1
                    recorder.inclusive[name] += duration
                    recorder.self_time[name] += duration - frame[1]
                    if not frames:
                        recorder.root_time += duration
                    if op_id is not None and (
                        op_id in recorder._kept_ops
                        or len(recorder._kept_ops) < recorder.KEEP_OPS
                    ):
                        recorder._kept_ops.add(op_id)
                        recorder.spans.append((
                            frame[0], name, start, end, parent, op_id,
                            threading.get_ident(),
                        ))
            for observer in recorder.observers.get(name, ()):
                observer(args, result, start, end)
            return result

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span opened by the benchmark's own code."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, op_id, thread in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op_id, "thread": thread,
                }) + "\n")


def _busy_wait(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


@contextlib.contextmanager
def instrument(recorder: SpanRecorder | None = None,
               delays: dict[str, float] | None = None):
    """Patch every entry point; restore them on exit.

    With a ``recorder`` every target records spans.  ``delays`` maps a
    span name to a busy-wait (seconds) added to each of its calls; with
    no recorder only the delayed targets are patched, so an untraced run
    pays for nothing but the injected delay.
    """
    delays = dict(delays or {})
    unknown = set(delays) - set(LAYER_OF)
    if unknown:
        raise ValueError(f"unknown span names: {sorted(unknown)}")
    sink = recorder if recorder is not None else _NullRecorder()
    restore: list[tuple[object, str, object]] = []
    try:
        for name, owner, attr, *op_key in _targets():
            op_key = op_key[0] if op_key else None
            delay = delays.get(name, 0.0)
            if recorder is None and not delay:
                continue
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    patched = property(sink.wrap(name, original.fget, delay))
                else:
                    patched = sink.wrap(name, original, delay, op_key)
                restore.append((owner, attr, original))
                setattr(owner, attr, patched)
            else:
                original = getattr(owner, attr)
                patched = sink.wrap(name, original, delay)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, alias, original))
                            setattr(module, alias, patched)
        yield sink
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


class _NullRecorder(SpanRecorder):
    """Adds injected delays without recording anything."""

    def wrap(self, name: str, fn, delay: float = 0.0, op_key=None):
        if not delay:
            return fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            _busy_wait(delay)
            return fn(*args, **kwargs)

        return wrapper
