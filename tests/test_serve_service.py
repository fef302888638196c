"""Unit tests for the serving layer (repro.serve) components.

The end-to-end determinism contract lives in
``test_serve_coalescing.py``; these tests cover the parts: registry,
request keys, scheduler admission/coalescing, the result cache, the
event log, and the service's caching/dedup/observability behavior.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AdmissionError, ParameterError, ServeError
from repro.hardware.specs import GTX_1660_TI
from repro.params import ProclusParams
from repro.serve import (
    ClusterRequest,
    ClusterService,
    DatasetRegistry,
    JobScheduler,
    ResultCache,
    estimate_device_bytes,
)
from repro.serve.request import Job


def small_params(**changes) -> ProclusParams:
    base = dict(k=4, l=3, a=30, b=5)
    base.update(changes)
    return ProclusParams(**base)


def make_job(job_id=0, fingerprint="f" * 64, backend="gpu-fast",
             seed=0, priority=1, estimated_bytes=0, **params):
    request = ClusterRequest(
        fingerprint=fingerprint, backend=backend,
        params=small_params(**params), seed=seed, priority=priority,
    )
    return Job(request=request, job_id=job_id,
               estimated_bytes=estimated_bytes)


class TestDatasetRegistry:
    def test_register_is_idempotent_and_canonical(self):
        registry = DatasetRegistry()
        data = np.random.default_rng(0).random((40, 5))
        fingerprint = registry.register(data)
        assert registry.register(data.astype(np.float32)) == fingerprint
        assert len(registry) == 1
        stored = registry.get(fingerprint)
        assert stored.dtype == np.float32
        assert not stored.flags.writeable

    def test_unknown_fingerprint_rejected(self):
        with pytest.raises(ServeError, match="unknown dataset"):
            DatasetRegistry().get("0" * 64)


class TestRequestKeys:
    def test_share_key_ignores_l(self):
        a = ClusterRequest("f" * 64, "gpu-fast", small_params(l=3))
        b = ClusterRequest("f" * 64, "gpu-fast", small_params(l=4))
        assert a.share_key == b.share_key
        assert a.cache_key != b.cache_key

    def test_share_key_separates_seed_backend_and_k(self):
        base = ClusterRequest("f" * 64, "gpu-fast", small_params())
        for other in (
            ClusterRequest("f" * 64, "gpu-fast", small_params(), seed=1),
            ClusterRequest("f" * 64, "gpu", small_params()),
            ClusterRequest("f" * 64, "gpu-fast", small_params(k=5, l=3)),
            ClusterRequest("e" * 64, "gpu-fast", small_params()),
        ):
            assert other.share_key != base.share_key

    def test_fingerprint_validated(self):
        with pytest.raises(ParameterError):
            ClusterRequest("", "gpu-fast", small_params())


class TestEstimateDeviceBytes:
    def test_cpu_backends_are_free(self):
        assert estimate_device_bytes(10_000, 15, small_params(), "fast") == 0

    def test_scales_with_n_and_k(self):
        params = small_params()
        small = estimate_device_bytes(1_000, 10, params, "gpu-fast")
        bigger_n = estimate_device_bytes(100_000, 10, params, "gpu-fast")
        bigger_k = estimate_device_bytes(
            1_000, 10, small_params(k=8, l=3), "gpu-fast"
        )
        assert small < bigger_n
        assert small < bigger_k

    def test_paper_space_limit_on_the_6gb_card(self):
        # Section 5: on the 6 GB GTX 1660 Ti space becomes the limit in
        # the millions of points; a k=20 run at 8M points must exceed
        # the usable VRAM while the 1M run still fits.
        params = ProclusParams(k=20, l=5)
        needed = estimate_device_bytes(8_000_000, 15, params, "gpu-fast")
        assert needed > GTX_1660_TI.usable_bytes
        fits = estimate_device_bytes(1_000_000, 15, params, "gpu-fast")
        assert fits < GTX_1660_TI.usable_bytes

    def test_variants_differ(self):
        params = small_params()
        star = estimate_device_bytes(50_000, 10, params, "gpu-fast-star")
        fast = estimate_device_bytes(50_000, 10, params, "gpu-fast")
        plain = estimate_device_bytes(50_000, 10, params, "gpu")
        assert len({star, fast, plain}) == 3


class TestJobScheduler:
    def test_priority_order_with_fifo_tiebreak(self):
        scheduler = JobScheduler(coalesce=False)
        scheduler.push(make_job(0, seed=0, priority=2))
        scheduler.push(make_job(1, seed=1, priority=1))
        scheduler.push(make_job(2, seed=2, priority=1))
        order = [scheduler.pop_group()[0].job_id for _ in range(3)]
        assert order == [1, 2, 0]
        assert scheduler.pop_group() == []

    def test_pop_group_coalesces_share_key_siblings(self):
        scheduler = JobScheduler()
        scheduler.push(make_job(0, l=3, seed=0))
        scheduler.push(make_job(1, l=4, seed=1))  # different share key
        scheduler.push(make_job(2, l=4, seed=0))
        scheduler.push(make_job(3, l=5, seed=0))
        group = scheduler.pop_group()
        assert [job.job_id for job in group] == [0, 2, 3]
        assert scheduler.depth == 1
        assert [job.job_id for job in scheduler.pop_group()] == [1]

    def test_queue_depth_admission(self):
        scheduler = JobScheduler(max_queue_depth=1)
        scheduler.admit(make_job(0))
        scheduler.push(make_job(0))
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1))
        assert info.value.reason == "queue"

    def test_memory_admission(self):
        scheduler = JobScheduler(capacity_bytes=1_000)
        scheduler.admit(make_job(0, estimated_bytes=999))
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1, estimated_bytes=1_001))
        assert info.value.reason == "memory"

    def test_backlog_admission_uses_observed_ewma(self):
        scheduler = JobScheduler(max_backlog_seconds=1.0)
        scheduler.observe("gpu-fast", 0.7)
        scheduler.admit(make_job(0))
        scheduler.push(make_job(0))
        assert scheduler.backlog_seconds() == pytest.approx(0.7)
        with pytest.raises(AdmissionError) as info:
            scheduler.admit(make_job(1))
        assert info.value.reason == "backlog"

    def test_coalesce_off_pops_singletons(self):
        scheduler = JobScheduler(coalesce=False)
        scheduler.push(make_job(0, l=3))
        scheduler.push(make_job(1, l=4))
        assert len(scheduler.pop_group()) == 1
        assert len(scheduler.pop_group()) == 1


class TestResultCache:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": now "b" is oldest
        evicted = cache.put("c", 3)
        assert evicted == ["b"]
        assert cache.get("b") is None
        assert cache.stats() == {
            "entries": 2, "max_entries": 2,
            "hits": 1, "misses": 2, "evictions": 1,
        }

    def test_zero_entries_disables_caching(self):
        cache = ResultCache(max_entries=0)
        assert cache.put("a", 1) == []
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ParameterError):
            ResultCache(max_entries=-1)


@pytest.fixture(scope="module")
def served(small_dataset):
    """One service lifecycle shared by the behavior assertions below."""
    data, _ = small_dataset
    params = ProclusParams(k=4, l=3, a=30, b=5)
    with ClusterService(workers=2, cache_entries=4) as service:
        first = service.submit(data=data, backend="gpu-fast", params=params)
        first.result(timeout=120)
        repeat = service.submit(data=data, backend="gpu-fast", params=params)
        repeat.result(timeout=120)
        other = service.submit(
            data=data, backend="gpu-fast", params=params.with_(l=4)
        )
        other.result(timeout=120)
        stats = service.stats()
        events = service.log.as_dicts()
    return first, repeat, other, stats, events


class TestClusterService:
    def test_repeat_request_is_a_cache_hit(self, served):
        first, repeat, _, stats, _ = served
        assert not first.cached
        assert repeat.cached
        assert stats["cache"]["hits"] == 1
        assert np.array_equal(
            first.result().labels, repeat.result().labels
        )

    def test_events_and_counters_recorded(self, served):
        *_, stats, events = served
        kinds = {event["kind"] for event in events}
        assert {"submit", "admit", "start", "complete", "cache_hit"} <= kinds
        assert stats["counters"]["serve.requests"] == 3
        assert stats["counters"]["serve.completed"] == 2
        assert stats["executed_modeled_seconds"] > 0
        assert stats["peak_reserved_bytes"] > 0

    def test_latency_and_status(self, served):
        first, repeat, other, _, _ = served
        for handle in (first, repeat, other):
            assert handle.done()
            assert handle.status == "done"
            assert handle.latency >= 0.0

    def test_submit_requires_exactly_one_data_source(self, small_dataset):
        data, _ = small_dataset
        with ClusterService(workers=1) as service:
            with pytest.raises(ServeError):
                service.submit()
            with pytest.raises(ServeError):
                service.submit(data=data, fingerprint="a" * 64)
            with pytest.raises(ServeError, match="unknown dataset"):
                service.submit(fingerprint="a" * 64)

    def test_submit_by_fingerprint_after_register(self, small_dataset):
        data, _ = small_dataset
        with ClusterService(workers=1) as service:
            fingerprint = service.register(data)
            handle = service.submit(
                fingerprint=fingerprint, backend="fast",
                params=ProclusParams(k=4, l=3, a=30, b=5),
            )
            assert handle.result(timeout=120).k == 4

    def test_infeasible_memory_request_rejected(self, small_dataset):
        import dataclasses

        data, _ = small_dataset
        # A card whose usable VRAM cannot even hold this tiny dataset.
        tiny_card = dataclasses.replace(
            GTX_1660_TI, name="tiny", memory_bytes=16_384,
            reserved_bytes=8_192,
        )
        with ClusterService(workers=1, gpu_spec=tiny_card) as service:
            with pytest.raises(AdmissionError) as info:
                service.submit(
                    data=data, backend="gpu-fast",
                    params=ProclusParams(k=4, l=3, a=30, b=5),
                )
            assert info.value.reason == "memory"
            assert service.log.count("reject") == 1
            stats = service.stats()
            assert stats["counters"]["serve.rejected"] == 1
            assert stats["counters"]["serve.rejected.memory"] == 1

    def test_close_fails_pending_handles(self, small_dataset):
        data, _ = small_dataset
        service = ClusterService(workers=1)
        handle = service.submit(
            data=data, backend="fast",
            params=ProclusParams(k=4, l=3, a=30, b=5),
        )
        service.close(drain=False)
        if handle.status == "failed":
            with pytest.raises(ServeError, match="closed"):
                handle.result(timeout=1)
        else:
            assert handle.result(timeout=1).k == 4

    def test_closed_service_refuses_submissions(self, small_dataset):
        data, _ = small_dataset
        service = ClusterService(workers=1)
        service.close()
        with pytest.raises(ServeError):
            service.submit(
                data=data, backend="fast",
                params=ProclusParams(k=4, l=3, a=30, b=5),
            )


def _scripted_run(service, data):
    """One pass over every event kind on a 1-worker fleet service.

    Holding the service lock while submitting keeps the worker from
    popping, so the dedupe, coalesce and queue-depth reject happen in a
    fixed order.  Returns the served results in completion order.
    """
    def params(l):
        return ProclusParams(k=3, l=l, a=20, b=4)

    service.quarantine_device(2, reason="drill")
    # First, so its device clock starts where a solo run's does.
    sharded = service.submit(
        data, backend="fleet-gpu-fast", params=params(3), seed=1
    )
    sharded.result(timeout=120)
    with service._cond:
        leader = service.submit(data, params=params(3), seed=0)
        service.submit(data, params=params(3), seed=0)  # dedupe
        member = service.submit(data, params=params(2), seed=0)  # coalesce
        with pytest.raises(AdmissionError):  # queue depth 2
            service.submit(data, params=params(3), seed=5)
    leader.result(timeout=120)
    member.result(timeout=120)  # its cache put evicts the sharded result
    service.submit(data, params=params(3), seed=0).result(timeout=120)
    service.readmit_device(2)
    broken = service.submit(data, backend="no-such-backend", params=params(3))
    with pytest.raises(ParameterError):
        broken.result(timeout=120)
    service.drain()
    return [sharded.result(), leader.result(), member.result()]


class TestServiceFacts:
    """Each serve fact is recorded once; the untraced service keeps no
    trace."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(7).normal(size=(600, 6)).astype(
            np.float32
        )

    @pytest.mark.parametrize("traced", [False, True])
    def test_scripted_run_counts_each_fact_once(self, data, traced):
        from repro.fleet import default_fleet
        from repro.obs import Tracer

        with ClusterService(
            workers=1, fleet=default_fleet(3), cache_entries=2,
            max_queue_depth=2, tracer=Tracer() if traced else None,
        ) as service:
            sharded, leader, member = _scripted_run(service, data)
            counters = service.stats()["counters"]
            kinds = service.log.kinds()
        assert kinds == [
            "device_down",
            "submit", "admit", "start", "complete",
            "submit", "admit", "submit", "dedupe", "submit", "admit",
            "submit", "reject",
            "coalesce", "start", "start", "complete", "evict", "complete",
            "submit", "cache_hit",
            "device_recovered",
            "submit", "admit", "start", "fail",
        ]
        # The run's own counters (fleet.comm_bytes, ...) ride along.
        run_counters = {
            name: value for name, value in sharded.stats.counters.items()
            if name.startswith("fleet.")
        }
        assert counters == {
            **run_counters,
            "fleet.jobs": 1, "fleet.placements.dev0": 1,
            "fleet.quarantined": 1, "fleet.readmitted": 1,
            "serve.requests": 7, "serve.cache.hits": 1,
            "serve.cache.misses": 6, "serve.cache.evictions": 1,
            "serve.deduped": 1, "serve.rejected": 1,
            "serve.rejected.queue": 1, "serve.groups": 1,
            "serve.coalesced": 1, "serve.executed": 3,
            "serve.completed": 3, "serve.failed": 1,
            "serve.device_seconds": (
                0.0 + sharded.stats.modeled_seconds
                + leader.stats.modeled_seconds
                + member.stats.modeled_seconds
            ),
        }
        # Absorbed once from the run, not added again by the service.
        assert counters["fleet.comm_seconds"] == (
            sharded.stats.counters["fleet.comm_seconds"]
        ) > 0

    def test_untraced_service_keeps_no_trace(self, small_dataset):
        data, _ = small_dataset
        with ClusterService(workers=1, cache_entries=0) as service:
            handles = [
                service.submit(
                    data, params=ProclusParams(k=3, l=l, a=20, b=4),
                    seed=seed,
                )
                for seed in range(7) for l in (2, 3, 4)
            ]
            for handle in handles:
                handle.result(timeout=120)
            service.drain()
            assert not service.obs.enabled
            assert service.obs.roots == []
            assert service.obs.kernel_events == []
            assert service.obs.device_offset() == 0.0
            events = service.log.snapshot()
            counters = service.stats()["counters"]
        assert len(handles) >= 20
        assert events and all(event.span_id is None for event in events)
        assert counters["serve.executed"] == len(handles)

    def test_recorder_still_sees_untraced_jobs(self, small_dataset):
        from repro.obs import FlightRecorder

        data, _ = small_dataset
        recorder = FlightRecorder(capacity=4096)
        with ClusterService(workers=1, recorder=recorder) as service:
            service.submit(
                data, params=ProclusParams(k=3, l=3, a=20, b=4)
            ).result(timeout=120)
            service.drain()
            assert service.obs.roots == []
        streams = recorder.snapshot()["streams"]
        assert any(span["name"] == "fit" for span in streams["spans"])
        assert streams["kernels"]
        assert {record["kind"] for record in streams["serve"]} >= {
            "submit", "admit", "start", "complete",
        }

    def test_served_sharded_job_matches_solo_after_other_work(self, data):
        from repro import proclus
        from repro.fleet import default_fleet
        from repro.obs import Tracer

        params = ProclusParams(k=3, l=3, a=20, b=4)
        fleet = default_fleet(2)
        solo = proclus(
            data, params=params, backend="fleet-gpu-fast", seed=1,
            fleet=fleet,
        )
        for tracer in (None, Tracer()):
            with ClusterService(
                workers=1, fleet=fleet, tracer=tracer
            ) as service:
                # Earlier groups move a traced device clock forward.
                service.submit(data, params=params, seed=0).result(
                    timeout=120
                )
                served = service.submit(
                    data, backend="fleet-gpu-fast", params=params, seed=1
                ).result(timeout=120)
            assert np.array_equal(served.labels, solo.labels)
            assert served.cost == solo.cost
            assert served.stats.modeled_seconds == solo.stats.modeled_seconds
            assert served.stats.counters == solo.stats.counters


class TestServeLogTail:
    """A long-lived service keeps only the last SERVE_LOG_CAPACITY events."""

    @staticmethod
    def _serve_ten(data):
        with ClusterService(workers=1, cache_entries=4) as service:
            for i in range(10):
                service.submit(
                    data, params=ProclusParams(k=3, l=2 + i % 3, a=20, b=4)
                ).result(timeout=120)
                service.drain()
            counters = service.stats()["counters"]
            return service.log.snapshot(), service.log.dropped, counters

    def test_tail_and_dropped_count(self, small_dataset, monkeypatch):
        import repro.serve.events as events

        data, _ = small_dataset
        full, dropped, _ = self._serve_ten(data)
        assert dropped == 0 and len(full) > 8
        monkeypatch.setattr(events, "SERVE_LOG_CAPACITY", 8)
        tail, dropped, counters = self._serve_ten(data)
        assert counters["serve.requests"] == 10
        assert len(tail) == 8
        assert dropped == len(full) - 8

        def key(event):
            return event.kind, event.job_id, event.detail

        assert [key(e) for e in tail] == [key(e) for e in full[-8:]]
