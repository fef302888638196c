"""Per-layer metrics of one traced run.

Host-clock metrics come from the wall-clock spans of :mod:`spans`
(seconds per op).  Modeled-clock metrics come from
:func:`repro.obs.attribute_run` over each executed engine's cost ledger,
the fleet straggler analysis, and the exact counters in
``result.stats.counters``.  On the fit workloads those are taken over
one fit of each of the first fit seeds, so they repeat bit for bit.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

from spans import LAYER_OF

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.distance_s", "s/op"),
    ("core.phases_s", "s/op"),
    ("core.greedy_s", "s/op"),
    ("core.fit_self_s", "s/op"),
    ("gpu.launch_calls", "count/op"),
    ("gpu.launch_self_s", "s/op"),
    ("gpu.kernel_launches", "count/op"),
    ("gpu.flops", "flop/op"),
    ("gpu.gmem_bytes", "B/op"),
    ("gpu.atomic_ops", "count/op"),
    ("cache.dist_hit_ratio", "ratio"),
    ("modeled.launch_s", "s/op"),
    ("modeled.compute_s", "s/op"),
    ("modeled.memory_s", "s/op"),
    ("modeled.atomic_s", "s/op"),
    ("modeled.transfer_s", "s/op"),
    ("modeled.comm_s", "s/op"),
    ("modeled.greedy_share", "ratio"),
    ("hardware.account_calls", "count/op"),
    ("hardware.account_s", "s/op"),
    ("hardware.total_seconds_s", "s/op"),
    ("hardware.kernel_cost_s", "s/op"),
    ("fleet.launch_self_s", "s/op"),
    ("fleet.straggler_index", "ratio"),
    ("fleet.root_busy_share", "ratio"),
    ("serve.submit_s", "s/op"),
    ("serve.submit_self_s", "s/op"),
    ("serve.pop_group_s", "s/op"),
    ("serve.run_group_self_s", "s/op"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.group_size_mean", "count"),
    ("serve.work_saved_ratio", "ratio"),
    ("data.fingerprint_s", "s/op"),
    ("multiparam.coalesced_group_s", "s/op"),
    ("multiparam.coalesced_group_self_s", "s/op"),
    ("multiparam.shared_state_s", "s/op"),
    ("resilience.fit_self_s", "s/op"),
    ("resilience.retries", "count/op"),
    ("obs.event_s", "s/op"),
    ("obs.kernel_event_s", "s/op"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.unattributed_share", "ratio"),
    ("obs.accounted_share", "ratio"),
]

#: Metrics that must repeat bit for bit across runs of the same code
#: and seed on the fit workloads.
EXACT = (
    "gpu.kernel_launches", "gpu.flops", "gpu.gmem_bytes", "gpu.atomic_ops",
    "cache.dist_hit_ratio", "modeled.launch_s", "modeled.compute_s",
    "modeled.memory_s", "modeled.atomic_s", "modeled.transfer_s",
    "modeled.comm_s", "modeled.greedy_share", "hardware.account_calls",
    "fleet.straggler_index", "fleet.root_busy_share",
)

_COUNTERS = ("gpu.kernel_launches", "gpu.flops", "gpu.gmem_bytes",
             "gpu.atomic_ops")
_COMPONENTS = ("launch", "compute", "memory", "atomic", "transfer", "comm")


def host_metrics(recorder, ops: int) -> dict[str, float]:
    """Span-derived host seconds (and call counts) per op."""
    metrics = {
        metric: recorder.self_time.get(name, 0.0) / ops
        for name, metric in LAYER_OF.items()
    }
    # Submit and the coalesced group are reported inclusive of their
    # children (fingerprinting; the group's member fits).
    metrics["serve.submit_s"] = recorder.inclusive.get("serve.submit", 0.0) / ops
    metrics["multiparam.coalesced_group_s"] = (
        recorder.inclusive.get("multiparam.coalesced_group", 0.0) / ops
    )
    metrics["gpu.launch_calls"] = recorder.calls.get("gpu.launch", 0) / ops
    root = recorder.root_time
    metrics["obs.unattributed_share"] = (
        recorder.self_time.get("bench.op", 0.0) / root if root else 0.0
    )
    metrics["obs.accounted_share"] = (
        sum(recorder.self_time.values()) / root if root else 0.0
    )
    return metrics


def modeled_metrics(fits, ops: int) -> dict[str, float]:
    """Ledger, counter and fleet metrics over ``(model, result)`` fits."""
    from repro.fleet import FleetModel, fleet_report
    from repro.obs import attribute_run

    components = {name: Fraction(0) for name in _COMPONENTS}
    total = greedy = Fraction(0)
    counters = {name: 0.0 for name in _COUNTERS}
    hits = misses = 0.0
    straggler, root_busy = [], []
    for model, result in fits:
        attribution = attribute_run(model)
        for name, value in attribution.component_exact.items():
            components[name] += value
        total += attribution.total_exact
        greedy += sum(
            (kernel.seconds_exact for kernel in attribution.kernels
             if kernel.name.startswith("greedy.")),
            Fraction(0),
        )
        stats = result.stats.counters
        for name in _COUNTERS:
            counters[name] += stats.get(name, 0.0)
        hits += stats.get("cache.dist_rows_hit", 0.0)
        misses += stats.get("cache.dist_rows_missed", 0.0)
        if isinstance(model, FleetModel):
            fleet = fleet_report(model)["attribution"]
            straggler.append(fleet["straggler_index"])
            root_busy.append(fleet["devices"][0]["busy_fraction"])
        else:
            # One device is its own root and never waits on another.
            straggler.append(1.0)
            root_busy.append(1.0)
    metrics = {name: value / ops for name, value in counters.items()}
    metrics.update({
        f"modeled.{name}_s": float(value / ops)
        for name, value in components.items()
    })
    metrics["modeled.greedy_share"] = float(greedy / total) if total else 0.0
    metrics["cache.dist_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    metrics["fleet.straggler_index"] = (
        statistics.fmean(straggler) if straggler else 1.0
    )
    metrics["fleet.root_busy_share"] = (
        statistics.fmean(root_busy) if root_busy else 1.0
    )
    return metrics
