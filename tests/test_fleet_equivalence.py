"""Differential shard-equivalence suite for the fleet backends.

The fleet's contract is absolute: sharding a job across D modeled
devices must not change a single bit of the output — labels,
dimensions, cost, *and* the deterministic work counters — versus the
solo run, for every GPU backend, every device count, heterogeneous
fleets, and even when faults strike a single shard mid-run.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repro.bench.baseline import EXACT_COUNTERS
from repro.core.api import BACKENDS
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.fleet import Fleet, FleetModel, default_fleet, fleet_report, mixed_fleet
from repro.fleet.device import SHARDED_KERNELS, FleetDevice
from repro.hardware.specs import GTX_1660_TI, RTX_3090
from repro.obs import attribute_run
from repro.obs.tracer import NULL_TRACER
from repro.params import ProclusParams
from repro.resilience import ResilientRunner, RetryPolicy
from repro.resilience.faults import FaultInjector, use_injector

GPU_BACKENDS = ("gpu", "gpu-fast", "gpu-fast-star")
DEVICE_COUNTS = (1, 2, 3, 4)

#: Per-device ledger entries whose sum must equal the solo counter
#: (work splits exactly; kernel_launches is inherently D-fold for
#: sharded kernels and is excluded on purpose).
WORK_COUNTERS = ("flops", "gmem_bytes", "atomic_ops", "h2d_bytes")


@pytest.fixture(scope="module")
def data():
    dataset = generate_subspace_data(n=1500, d=10, n_clusters=4, seed=11)
    return minmax_normalize(dataset.data)


@pytest.fixture(scope="module")
def params():
    return ProclusParams(k=6, l=4)


@pytest.fixture(scope="module")
def solo(data, params):
    results = {}
    for backend in GPU_BACKENDS:
        engine = BACKENDS[backend](params=params, seed=0)
        results[backend] = engine.fit(data)
    return results


def run_fleet(data, params, backend, fleet):
    engine = BACKENDS[f"fleet-{backend}"](params=params, seed=0, fleet=fleet)
    return engine, engine.fit(data)


def assert_identical(result, reference):
    assert np.array_equal(result.labels, reference.labels)
    assert result.dimensions == reference.dimensions
    assert result.cost == reference.cost


def assert_counters_identical(result, reference):
    for name in EXACT_COUNTERS:
        assert result.stats.counters.get(name) == pytest.approx(
            reference.stats.counters.get(name), abs=0
        ), name


class TestShardEquivalence:
    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    @pytest.mark.parametrize("devices", DEVICE_COUNTS)
    def test_bit_identical_to_solo(self, data, params, solo, backend, devices):
        _, result = run_fleet(data, params, backend, default_fleet(devices))
        assert_identical(result, solo[backend])
        assert_counters_identical(result, solo[backend])

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_single_device_fleet_is_an_exact_anchor(
        self, data, params, solo, backend
    ):
        """D=1 issues the solo stream: no collectives, equal modeled time
        (to float round-off of the per-launch accrual order)."""
        engine, result = run_fleet(data, params, backend, default_fleet(1))
        assert result.stats.modeled_seconds == pytest.approx(
            solo[backend].stats.modeled_seconds, rel=1e-12
        )
        report = fleet_report(engine.model)
        assert report["allreduce_steps"] == 0
        assert report["broadcast_steps"] == 0
        assert report["comm_seconds"] == 0.0

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_heterogeneous_fleet(self, data, params, solo, backend):
        """1660 Ti + 3090: uneven shards, NVLink/PCIe mix, same bits."""
        _, result = run_fleet(
            data, params, backend, mixed_fleet(small=1, large=1)
        )
        assert_identical(result, solo[backend])
        assert_counters_identical(result, solo[backend])

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_per_device_work_sums_to_solo(self, data, params, solo, backend):
        """The physical ledgers split the solo work exactly (no double
        counting, nothing dropped)."""
        engine, _ = run_fleet(data, params, backend, default_fleet(3))
        assert isinstance(engine.model, FleetModel)
        report = fleet_report(engine.model)
        assert len(report["devices"]) == 3
        for name in WORK_COUNTERS:
            sharded = sum(entry[name] for entry in report["devices"])
            solo_value = solo[backend].stats.counters.get(f"gpu.{name}", 0.0)
            if float(solo_value).is_integer():
                # Integral work splits with largest-remainder: exact.
                assert sharded == pytest.approx(solo_value, abs=0), name
            else:
                # Derated flop counts are fractional and split
                # proportionally: exact to float round-off.
                assert sharded == pytest.approx(solo_value, rel=1e-12), name

    def test_communication_is_modeled(self, data, params):
        """D>1 runs charge collective steps, and only then."""
        engine, _ = run_fleet(data, params, "gpu-fast", default_fleet(4))
        report = fleet_report(engine.model)
        assert report["allreduce_steps"] > 0
        assert report["broadcast_steps"] > 0
        assert report["comm_bytes"] > 0
        assert 0.0 < report["communication_fraction"] < 1.0
        assert report["comm_seconds"] > 0.0
        # Collectives are barriers: somebody waited at them.
        assert sum(entry["sync_seconds"] for entry in report["devices"]) > 0.0

    def test_trace_clock_offset_leaves_modeled_time_alone(self, data, params):
        """A device created mid-trace starts its timeline late; the
        shift must not leak into the barrier arithmetic."""
        from repro.obs import Tracer, use_tracer

        engine, plain = run_fleet(data, params, "gpu-fast", default_fleet(3))
        tracer = Tracer()
        tracer.kernel("earlier", "gpu0:compute", "setup", 0.0, 0.123456789)
        with use_tracer(tracer):
            traced_engine, traced = run_fleet(
                data, params, "gpu-fast", default_fleet(3)
            )
        assert traced.stats.modeled_seconds == plain.stats.modeled_seconds
        assert traced.stats.counters == plain.stats.counters
        assert (
            fleet_report(traced_engine.model) == fleet_report(engine.model)
        )


class TestFaultedShards:
    """Faults on one shard must not change the answer."""

    @pytest.mark.parametrize("backend", GPU_BACKENDS)
    def test_transient_fault_on_one_shard(self, data, params, solo, backend):
        runner = ResilientRunner(RetryPolicy())
        with use_injector(
            FaultInjector([f"transient@assign_points@dev1#1"])
        ):
            outcome = runner.fit(
                data,
                backend=f"fleet-{backend}",
                params=params,
                seed=0,
                engine_kwargs={"fleet": default_fleet(2)},
            )
        assert outcome.attempts == 2
        assert [event.kind for event in outcome.events] == ["retry"]
        assert outcome.backend == f"fleet-{backend}"
        assert_identical(outcome.result, solo[backend])
        assert_counters_identical(outcome.result, solo[backend])

    def test_sticky_capacity_fault_degrades_off_the_fleet(
        self, data, params, solo
    ):
        """A persistent per-shard OOM walks the documented ladder down
        to the solo card — and the answer still matches bit-for-bit."""
        runner = ResilientRunner(RetryPolicy())
        with use_injector(FaultInjector(["oom@data@dev0#1+*"])):
            outcome = runner.fit(
                data,
                backend="fleet-gpu-fast",
                params=params,
                seed=0,
                engine_kwargs={"fleet": default_fleet(2)},
            )
        assert outcome.degraded
        assert outcome.backend == "gpu-fast"
        assert_identical(outcome.result, solo["gpu-fast"])

    def test_fault_site_targets_only_the_named_shard(self, data, params):
        """`*@dev1` leaves shard 0 untouched: a D=1 fleet (only dev0
        active) never trips the injector."""
        injector = FaultInjector(["transient@assign_points@dev1#1"])
        with use_injector(injector):
            engine = BACKENDS["fleet-gpu-fast"](
                params=params, seed=0, fleet=default_fleet(1)
            )
            engine.fit(data)
        assert injector.injected == []


class TestFleetValidation:
    def test_engine_accepts_int_shorthand(self, data, params, solo):
        engine = BACKENDS["fleet-gpu-fast"](params=params, seed=0, fleet=3)
        result = engine.fit(data)
        assert_identical(result, solo["gpu-fast"])
        assert len(engine.fleet.specs) == 3

    def test_zero_capacity_member_holds_no_points(self, data, params, solo):
        dead = replace(GTX_1660_TI, memory_bytes=GTX_1660_TI.reserved_bytes)
        fleet = Fleet(specs=(GTX_1660_TI, dead, RTX_3090))
        assert fleet.shard_plan(len(data)).counts[1] == 0
        _, result = run_fleet(data, params, "gpu-fast", fleet)
        assert_identical(result, solo["gpu-fast"])


#: Uneven explicit weights: proportional splits of non-integral work are
#: not exact, which sends ``_split_work`` down its fallback.
UNEVEN = Fleet(specs=(GTX_1660_TI,) * 3, weights=(1.0, 2.0, 4.0))
BOOK_FLEETS = [default_fleet(d) for d in DEVICE_COUNTS] + [UNEVEN]
BOOK_IDS = [f"D{d}" for d in DEVICE_COUNTS] + ["uneven"]


def _ledger_sizes(device: FleetDevice) -> tuple[int, int, list[int]]:
    model = device.model
    return (
        len(model.events),
        len(model.logical.events),
        [len(shard.events) for shard in model.shards],
    )


def assert_books_conserve(model: FleetModel) -> None:
    """Fleet, logical and every shard ledger re-sum to their totals ==."""
    for book in (model, model.logical, *model.shards):
        attr = attribute_run(book)
        assert isinstance(attr.total_exact, Fraction)
        assert all(isinstance(v, Fraction) for v in attr.component_exact.values())
        assert all(isinstance(k.seconds_exact, Fraction) for k in attr.kernels)
        assert float(attr.total_exact) == book.total_seconds
        regrouped = sum((k.seconds_exact for k in attr.kernels), Fraction(0))
        assert float(regrouped) == book.total_seconds
        assert float(sum(attr.component_exact.values(), Fraction(0))) == (
            book.total_seconds
        )
        for phase, seconds in book.phase_seconds.items():
            bucket = attr.phase_exact[phase]
            assert float(sum(bucket.values(), Fraction(0))) == seconds


class TestFleetBooks:
    """What one fleet launch writes, and that every book conserves."""

    @pytest.mark.parametrize("fleet", BOOK_FLEETS, ids=BOOK_IDS)
    def test_each_launch_writes_one_event_per_book(
        self, data, params, fleet, monkeypatch
    ):
        original = FleetDevice.launch
        launches = []

        def spy(device, name, *args, **kwargs):
            fleet_before, logical_before, shards_before = _ledger_sizes(device)
            seconds = original(device, name, *args, **kwargs)
            fleet_after, logical_after, shards_after = _ledger_sizes(device)
            assert fleet_after - fleet_before == 1, name
            assert logical_after - logical_before == 1, name
            written = [a - b for a, b in zip(shards_after, shards_before)]
            active = [count > 0 for count in device.plan.counts]
            root = active.index(True)
            if name in SHARDED_KERNELS:
                assert written == [int(flag) for flag in active], name
            else:
                assert written == [int(i == root) for i in range(len(active))]
            launches.append(name)
            return seconds

        monkeypatch.setattr(FleetDevice, "launch", spy)
        engine, _ = run_fleet(data, params, "gpu-fast", fleet)
        assert launches
        assert any(name in SHARDED_KERNELS for name in launches)
        assert any(name not in SHARDED_KERNELS for name in launches)
        assert_books_conserve(engine.model)

    def test_non_integral_split_books(self):
        """Direct launches with fractional work take the proportional
        fallback, whose shares do not sum back exactly (so the logical
        book cannot be rebuilt from the shards); every book still
        conserves."""
        model = FleetModel(UNEVEN, GTX_1660_TI)
        device = FleetDevice(UNEVEN, model, NULL_TRACER, UNEVEN.shard_plan(1000))
        device.configure_collectives(
            reduce_bytes={"assign_points": 4096.0},
            bcast_bytes={"assign_points": 2048.0},
        )
        flops = 1000.5
        counts = device.plan.counts
        split = FleetDevice._split_work(flops, counts)
        assert split == tuple(flops * c / sum(counts) for c in counts)
        assert sum(split) != flops
        for name in ("assign_points", "greedy.distances", "assign_points"):
            device.launch(name, "iterative", 64, 256, flops=flops,
                          gmem_bytes=8192.0)
        assert len(model.events) == len(model.logical.events) == 3
        assert [len(shard.events) for shard in model.shards] == [3, 2, 2]
        assert model.counter.get("fleet.allreduce_steps") == 1
        assert model.counter.get("fleet.broadcast_steps") == 1
        assert_books_conserve(model)
