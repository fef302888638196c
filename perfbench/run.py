"""The repository's benchmark: one command, three workloads, two clocks.

Run from the repository root::

    python3 perfbench/run.py --workload solo-gpu-fast --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (host wall time per op,
throughput, modeled device seconds, set-up time, peak memory, latency
within the workload's limit), measured with tracing off.  ``--trace 1``
prints the per-layer metrics of :mod:`layers` from a traced run, after
an untraced run of the same inputs that gives the tracing overhead.

Every op's output is checked against a solo reference of the
sequential ``proclus`` backend (:mod:`oracle`); any failure makes the
command exit 1.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Without
the program's sources (``src/repro``) under the working directory it
exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import oracle
import workloads as wl
from spans import SpanRecorder, instrument

#: (name, unit) of every end-to-end metric printed by --trace 0.
END_TO_END = [
    ("wall_p50_s", "s"),
    ("wall_p90_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("modeled_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ok_ratio", "ratio"),
]
#: Set-up is measured in this process and in this many fresh ones.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Negative controls and internals (see selftest.py).
    parser.add_argument("--inject-delay", action="append", default=[],
                        metavar="SPAN=SECONDS",
                        help="busy-wait added to every call of a span")
    parser.add_argument("--corrupt-output", action="store_true",
                        help="corrupt the first op's output before checking")
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up once and print its seconds")
    return parser.parse_args(argv)


def p90(values) -> float:
    """90th percentile (``statistics.quantiles``; one value is its own)."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setups(args) -> list[float]:
    """Set-up seconds of fresh interpreters (imports included)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def parse_delays(specs) -> dict[str, float]:
    delays = {}
    for spec in specs:
        name, _, seconds = spec.partition("=")
        delays[name] = float(seconds)
    return delays


# ----------------------------------------------------------------------
# One phase of each workload kind
# ----------------------------------------------------------------------
class Checker:
    """Counts attempted and failed ops; compares digests to references.

    Digests are taken as ops finish; :meth:`finish` computes the
    references of every distinct request at once, after the timed work.
    """

    def __init__(self, datasets, corrupt_first: bool) -> None:
        self.datasets = datasets
        self.corrupt_next = corrupt_first
        #: (label, digest, key) per checked op; a token indexes it.
        self.pending: list[tuple[str, str, tuple]] = []
        self.failures: list[str] = []
        self.mismatched: set[int] = set()

    @property
    def attempted(self) -> int:
        return len(self.pending) + len(self.failures) - len(self.mismatched)

    def add(self, label: str, result, key: tuple) -> int:
        """Queue ``result`` for checking against ``key``'s reference."""
        if self.corrupt_next:
            self.corrupt_next = False
            result = oracle.corrupted(result)
        self.pending.append((label, oracle.digest(result), key))
        return len(self.pending) - 1

    def fail(self, label: str, why: str) -> None:
        self.failures.append(f"{label}: {why}")

    def finish(self) -> None:
        references = oracle.reference_digests(
            [key for _, _, key in self.pending], self.datasets
        )
        for token, (label, got, key) in enumerate(self.pending):
            if got != references[key]:
                self.mismatched.add(token)
                self.failures.append(
                    f"{label}: digest {got[:12]} != {references[key][:12]}"
                )

    def passed(self, token: int) -> bool:
        return token not in self.mismatched


def fit_phase(ctx, seconds, checker, min_ops=0, recorder=None, after_op=None):
    """Timed fits; returns their end-to-end numbers.

    Each result is queued for checking as its op ends and then dropped,
    so memory does not grow with the op count.  ``latency_ok_ratio`` is
    settled by :func:`settle` once the checker has its references.
    """
    modeled, in_limit = {}, []

    def check(index, op):
        label = f"op {index} (fit seed {op.seed})"
        if op.error:
            checker.fail(label, op.error)
        else:
            modeled.setdefault(op.seed, op.result.stats.modeled_seconds)
            token = checker.add(label, op.result, (0, op.seed, wl.K, wl.L))
            in_limit.append((token, op.wall <= ctx.workload.latency_limit_s))
        if after_op is not None:
            after_op(index, op)
        op.result = None

    ops, elapsed = wl.run_fits(ctx, seconds, min_ops, recorder, check)
    walls = [op.wall for op in ops]
    return {
        "ops": len(ops),
        "wall_p50_s": statistics.median(walls),
        "wall_p90_s": p90(walls),
        "throughput_ops_s": len(ops) / elapsed,
        # One value per fit seed, so the median repeats exactly.
        "modeled_s": statistics.median(modeled.values()),
        "peak_rss_mb": peak_rss_mb(),
        "_in_limit": in_limit,
    }


def serve_phase(ctx, seconds, checker, min_ops=0, recorder=None):
    """Timed requests; returns their end-to-end numbers."""
    service = ctx.service
    before = service.stats()
    ops, elapsed = wl.run_serve(ctx, seconds, min_ops, recorder)
    rss = peak_rss_mb()
    after = service.stats()
    latencies, in_limit = [], []
    for index, op in enumerate(ops):
        request = op.request
        label = f"request {index} {request.key}"
        if op.error:
            checker.fail(label, op.error)
            continue
        try:
            result = op.handle.result(timeout=0)
        except Exception as error:  # noqa: BLE001 - any job error is a failure
            checker.fail(label, f"{type(error).__name__}: {error}")
            continue
        token = checker.add(label, result, request.key)
        latencies.append(op.latency)
        in_limit.append((token, op.latency <= ctx.workload.latency_limit_s))
    executed = (after["executed_modeled_seconds"]
                - before["executed_modeled_seconds"])
    jobs, coalesced = (
        after["counters"].get(name, 0) - before["counters"].get(name, 0)
        for name in ("serve.executed", "serve.coalesced")
    )
    return {
        "ops": len(ops),
        "wall_p50_s": statistics.median(latencies) if latencies else math.inf,
        "wall_p90_s": p90(latencies) if latencies else math.inf,
        "throughput_ops_s": len(latencies) / elapsed,
        "modeled_s": executed / len(ops),
        "peak_rss_mb": rss,
        "_in_limit": in_limit,
        "cache_hit_ratio": sum(op.handle is not None and op.handle.cached
                               for op in ops) / len(ops),
        "coalesced_ratio": sum(op.handle is not None and op.handle.coalesced
                               for op in ops) / len(ops),
        "group_size_mean": jobs / (jobs - coalesced) if jobs else 0.0,
        "_ops": ops,
    }


def settle(e2e, checker) -> None:
    """Share of ops answered correctly within the latency limit."""
    e2e["latency_ok_ratio"] = sum(
        within and checker.passed(token) for token, within in e2e["_in_limit"]
    ) / e2e["ops"]


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_fits(ctx, seconds, checker, delays, spans_out):
    """Untraced then traced fits; per-layer metrics."""
    with instrument(None, delays):
        plain = fit_phase(ctx, seconds, checker)
    recorder = SpanRecorder()
    engines = []
    recorder.observers["core.fit"].append(
        lambda args, result, start, end: engines.append((args[0].model, result))
    )
    exact_fits, account_calls = [], []

    def after_op(index, op):
        # One fit of each of the first fit seeds gives the exact metrics.
        if index < wl.EXACT_SEEDS:
            exact_fits.extend(engines[-1:])
        if index == wl.EXACT_SEEDS - 1:
            account_calls.append(recorder.calls["hardware.account"])
        engines.clear()

    with instrument(recorder, delays):
        traced = fit_phase(ctx, seconds, checker, min_ops=wl.EXACT_SEEDS,
                           recorder=recorder, after_op=after_op)
    metrics = layers.host_metrics(recorder, traced["ops"])
    metrics.update(layers.modeled_metrics(exact_fits, wl.EXACT_SEEDS))
    metrics["hardware.account_calls"] = account_calls[0] / wl.EXACT_SEEDS
    metrics.update({
        "serve.queue_wait_p50_s": 0.0,
        "serve.cache_hit_ratio": 0.0, "serve.coalesced_ratio": 0.0,
        "serve.group_size_mean": 0.0, "serve.work_saved_ratio": 0.0,
        "resilience.retries": 0.0,
    })
    metrics["obs.trace_overhead_ratio"] = (
        traced["wall_p50_s"] / plain["wall_p50_s"]
    )
    recorder.write(spans_out)
    return plain, metrics


def traced_serve(ctx, seconds, checker, delays, spans_out):
    """Untraced then traced requests; per-layer metrics."""
    import repro

    with instrument(None, delays):
        plain = serve_phase(ctx, seconds, checker)
    ctx.service.close()
    ctx.service = wl.start_service(ctx.datasets)

    recorder = SpanRecorder()
    engines, popped, retries = [], [], []
    recorder.observers["core.fit"].append(
        lambda args_, result, start, end: engines.append((args_[0].model, result))
    )
    recorder.observers["serve.pop_group"].append(
        lambda args_, group, start, end: popped.append((end, group))
    )
    recorder.observers["resilience.fit"].append(
        lambda args_, outcome, start, end: retries.append(outcome.attempts - 1)
    )
    with instrument(recorder, delays):
        traced = serve_phase(ctx, seconds, checker, recorder=recorder)
    ops = traced["_ops"]
    requests = len(ops)

    sent_of = {id(op.handle): op.sent for op in ops if op.handle is not None}
    waits = [
        end - sent_of[id(handle)]
        for end, group in popped for job in group for handle in job.handles
        if id(handle) in sent_of
    ]
    # Work saved against running every request alone on the same backend.
    solo = {}
    for op in ops:
        request = op.request
        if request.key not in solo:
            result = repro.proclus(
                ctx.datasets[request.dataset], k=request.k, l=request.l,
                backend=ctx.workload.backend, seed=request.seed,
            )
            solo[request.key] = result.stats.modeled_seconds
            checker.add(f"solo {request.key}", result, request.key)
    naive = sum(solo[op.request.key] for op in ops)

    metrics = layers.host_metrics(recorder, requests)
    metrics.update(layers.modeled_metrics(engines, requests))
    metrics["hardware.account_calls"] = (
        recorder.calls.get("hardware.account", 0) / requests
    )
    metrics.update({
        "serve.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "serve.cache_hit_ratio": traced["cache_hit_ratio"],
        "serve.coalesced_ratio": traced["coalesced_ratio"],
        "serve.group_size_mean": traced["group_size_mean"],
        "serve.work_saved_ratio": 1.0 - traced["modeled_s"] * requests / naive,
        "resilience.retries": sum(retries) / requests,
        "obs.trace_overhead_ratio": traced["wall_p50_s"] / plain["wall_p50_s"],
    })
    recorder.write(spans_out)
    return plain, metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src / 'repro'}; run from "
              "the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = wl.WORKLOADS[args.workload]

    # A traced run splits its time between an untraced and a traced pass.
    seconds = args.seconds / 2 if args.trace else args.seconds
    fits = workload.kind == "fit"
    ctx, setup_here = wl.setup(workload, args.seed)
    if args.setup_probe:
        if not fits:
            ctx.service.close()
        print(json.dumps({"setup_s": setup_here}))
        return 0
    setup_samples = [setup_here] + probe_setups(args)
    delays = parse_delays(args.inject_delay)
    spans_out = (Path.cwd() / ".perfbench"
                 / f"spans-{args.workload}-{args.seed}.jsonl")
    checker = Checker([ctx.data] if fits else ctx.datasets,
                      args.corrupt_output)
    try:
        if args.trace:
            traced = traced_fits if fits else traced_serve
            e2e, layer = traced(ctx, seconds, checker, delays, spans_out)
        else:
            phase = fit_phase if fits else serve_phase
            with instrument(None, delays):
                e2e = phase(ctx, seconds, checker, wl.MIN_OPS)
            layer = None
    finally:
        if not fits:
            ctx.service.close()
    checker.finish()
    settle(e2e, checker)
    e2e["setup_s"] = statistics.median(setup_samples)

    attempted, failed = checker.attempted, len(checker.failures)
    report(args, e2e, layer, setup_samples, attempted, failed)
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def report(args, e2e, layer, setup_samples, attempted, failed) -> None:
    """Human-readable lines before the JSON result."""
    ops = e2e["ops"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, unit in END_TO_END:
        samples = len(setup_samples) if name == "setup_s" else ops
        print(f"{name:>24} {e2e[name]:.6g} {unit}  (n={samples})")
    fail_ratio = failed / attempted if attempted else 0.0
    print(f"{'fail_ratio':>24} {fail_ratio:.6g} ratio  "
          f"(failed={failed} attempted={attempted})")
    if "cache_hit_ratio" in e2e:
        for name in ("cache_hit_ratio", "coalesced_ratio", "group_size_mean"):
            print(f"{'serve.' + name:>24} {e2e[name]:.6g}")
    if ops < 100:
        print(f"# warning: {ops} ops leave fewer than ten samples beyond p90")
    if layer is not None:
        for name, unit in layers.PER_LAYER:
            print(f"{name:>30} {layer[name]:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
