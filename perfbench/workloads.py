"""The benchmark's workloads: inputs from the seed, set-up, timed loops.

Three workloads drive the program through its public API only, each as
a closed loop with one client (the next op starts when the previous one
has its result):

* ``solo-gpu-fast`` and ``fleet4-gpu-fast``: back-to-back ``proclus()``
  fits on one fixed generated dataset, cycling through a list of fit
  seeds derived from the workload seed.  One op is one fit.
* ``serve-mix``: requests to a one-worker :class:`repro.ClusterService`
  over a fixed catalog, in an order the workload seed shuffles.  One op
  is one request, timed from its submission until its result is
  available.

Every constant that shapes a workload lives here; ``BENCHMARK.json``
repeats them in each workload's ``why`` and the self-test checks that
the two agree.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

#: Data shape shared by every workload.
N, D, N_CLUSTERS, SUBSPACE_DIMS = 8192, 32, 10, 5
K, L = 10, 5
#: Fit seeds per fit workload; each runs and is checked at least once.
#: Iterations to converge range 6-30 over seeds, so fewer seeds leave a
#: run's median hinging on which were drawn.
FIT_SEEDS = 64
#: A timed phase runs at least this many ops: ten beyond p90.
MIN_OPS = 100
#: The traced run's exact metrics come from one fit of each of the
#: first EXACT_SEEDS fit seeds.
EXACT_SEEDS = 32

#: Seed of every fixed input: the fit workloads' dataset and the
#: serve-mix catalog.  Datasets drawn per seed moved a fit run's host
#: time by more than its modeled time, so the data is held fixed and
#: the workload seed picks the fit seeds and the request order.
#:
#: serve-mix request catalog: 2 datasets x 6 seeds share groups
#: (dataset, seed, k), each asked for with l in SERVE_LS -> 36 distinct
#: requests, 4.5 times the result cache's capacity.  The catalog (data,
#: fit seeds, popularity ranks) is fixed by CATALOG_SEED; the workload
#: seed shuffles the order of the traffic over it.  A catalog drawn per
#: seed made the run's cost hinge on which few fit seeds were popular
#: (their iteration counts range 6-30).
CATALOG_SEED = 0
SERVE_DATASETS = 2
SERVE_SEEDS_PER_DATASET = 6
SERVE_LS = (4, 5, 6)
SERVE_CACHE_ENTRIES = 8
#: Zipf exponent of share-group popularity.
SERVE_ZIPF = 1.0
#: Arrivals per round of the repeating traffic pattern.
SERVE_ROUND_ARRIVALS = 15
#: Every SERVE_SWEEP_EVERY-th arrival of a share group asks for every
#: l at once.  Sweep siblings finish with their coalesced group, after
#: the lone fits; fewer sweeps keep the median request a lone fit
#: instead of a coin toss between the two.
SERVE_SWEEP_EVERY = 4
#: Seconds a client waits for one result before counting a timeout.
RESULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: "fit" (proclus() calls) or "serve" (ClusterService requests).
    kind: str
    backend: str
    #: Per-op latency limit behind latency_ok_ratio.
    latency_limit_s: float
    engine_kwargs: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solo-gpu-fast", "fit", "gpu-fast", 1.0),
        Workload("fleet4-gpu-fast", "fit", "fleet-gpu-fast", 1.5,
                 {"fleet": 4}),
        Workload("serve-mix", "serve", "gpu-fast", 1.0),
    )
}


def derive(seed: int, tag: int, size: int | None = None):
    """Seeds for one purpose (``tag``) derived from the workload seed."""
    import numpy as np

    rng = np.random.default_rng([seed, tag])
    if size is None:
        return int(rng.integers(0, 2**31 - 1))
    return [int(s) for s in rng.choice(2**31 - 1, size=size, replace=False)]


def make_dataset(data_seed: int):
    from repro.data.normalize import minmax_normalize
    from repro.data.synthetic import generate_subspace_data

    raw = generate_subspace_data(
        n=N, d=D, n_clusters=N_CLUSTERS, subspace_dims=SUBSPACE_DIMS,
        seed=data_seed,
    )
    return minmax_normalize(raw.data)


@dataclass(frozen=True)
class Request:
    """One serve-mix request."""

    dataset: int
    seed: int
    k: int
    l: int

    @property
    def key(self) -> tuple:
        return (self.dataset, self.seed, self.k, self.l)


def serve_arrivals(seed: int):
    """Endless serve-mix arrivals, each a list of :class:`Request`.

    The traffic repeats in rounds of SERVE_ROUND_ARRIVALS arrivals.
    Every round holds the same multiset: each popularity rank gets its
    Zipf share (largest remainder).  Every SERVE_SWEEP_EVERY-th arrival
    of a group is a sweep asking for every l at once (coalescing
    siblings); the others are single requests whose l cycles through
    SERVE_LS.  The workload seed shuffles the order within each round.
    """
    import numpy as np

    fit_seeds = derive(CATALOG_SEED, 4,
                       SERVE_DATASETS * SERVE_SEEDS_PER_DATASET)
    groups = [
        (index // SERVE_SEEDS_PER_DATASET, fit_seed)
        for index, fit_seed in enumerate(fit_seeds)
    ]
    catalog = np.random.default_rng([CATALOG_SEED, 3])
    ranked = [groups[g] for g in catalog.permutation(len(groups))]
    offsets = catalog.integers(len(SERVE_LS), size=len(groups))
    weights = 1.0 / np.arange(1, len(groups) + 1) ** SERVE_ZIPF
    shares = SERVE_ROUND_ARRIVALS * weights / weights.sum()
    per_rank = np.floor(shares).astype(int)
    remainder = SERVE_ROUND_ARRIVALS - int(per_rank.sum())
    per_rank[np.argsort(per_rank - shares, kind="stable")[:remainder]] += 1

    rng = np.random.default_rng([seed, 3])
    for round_index in itertools.count():
        arrivals = []
        for rank, ((dataset, fit_seed), count) in enumerate(
            zip(ranked, per_rank)
        ):
            for j in range(count):
                n = offsets[rank] + round_index * count + j
                ls = (SERVE_LS if n % SERVE_SWEEP_EVERY == 0 else
                      (SERVE_LS[n % len(SERVE_LS)],))
                arrivals.append([Request(dataset, fit_seed, K, l) for l in ls])
        for index in rng.permutation(len(arrivals)):
            yield arrivals[index]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class FitContext:
    workload: Workload
    data: object
    seeds: list[int]

    def fit(self, seed: int):
        import repro

        return repro.proclus(
            self.data, k=K, l=L, backend=self.workload.backend, seed=seed,
            **self.workload.engine_kwargs,
        )


@dataclass
class ServeContext:
    workload: Workload
    datasets: list
    service: object
    seed: int


def setup(workload: Workload, seed: int):
    """Imports, inputs, service start, one untimed warm-up op.

    Returns the context and the elapsed set-up seconds.
    """
    started = time.perf_counter()
    import numpy  # noqa: F401 - part of the measured import cost
    import repro  # noqa: F401

    if workload.kind == "fit":
        ctx = FitContext(workload, make_dataset(derive(CATALOG_SEED, 0)),
                         derive(seed, 2, FIT_SEEDS))
        ctx.fit(ctx.seeds[0])
    else:
        datasets = [make_dataset(derive(CATALOG_SEED, 10 + i))
                    for i in range(SERVE_DATASETS)]
        ctx = ServeContext(workload, datasets, start_service(datasets), seed)
    return ctx, time.perf_counter() - started


def start_service(datasets):
    """A one-worker service with both datasets registered and warmed."""
    from repro import ClusterService

    service = ClusterService(workers=1, cache_entries=SERVE_CACHE_ENTRIES)
    for data in datasets:
        service.register(data)
    # Warm-up on a seed outside the request catalog.
    service.submit(
        data=datasets[0], k=K, l=L, seed=derive(CATALOG_SEED, 5)
    ).result(timeout=RESULT_TIMEOUT_S)
    return service


# ----------------------------------------------------------------------
# Timed loops
# ----------------------------------------------------------------------
@dataclass
class FitOp:
    seed: int
    wall: float
    result: object = None
    error: str = ""


def run_fits(ctx: FitContext, seconds: float, min_ops: int = 0,
             recorder=None, after_op=None) -> tuple[list[FitOp], float]:
    """Fits back to back for ``seconds`` (and at least ``min_ops``).

    Returns the ops and the loop's elapsed wall seconds.  With a
    ``recorder`` each fit runs inside a ``bench.op`` span tagged with its
    op index; ``after_op(index, op)`` runs between ops, untimed.
    """
    ops: list[FitOp] = []
    started = time.perf_counter()
    index = 0
    while index < min_ops or time.perf_counter() - started < seconds:
        seed = ctx.seeds[index % len(ctx.seeds)]
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = ctx.fit(seed)
            else:
                recorder.set_op(index)
                result = recorder.call("bench.op", ctx.fit, seed)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            ops.append(FitOp(seed, time.perf_counter() - t0,
                             error=f"{type(error).__name__}: {error}"))
        else:
            ops.append(FitOp(seed, time.perf_counter() - t0, result))
        if after_op is not None:
            after_op(index, ops[-1])
        index += 1
    return ops, time.perf_counter() - started


@dataclass
class ServeOp:
    request: Request
    sent: float
    handle: object = None
    #: Why the request failed before a result existed (refused).
    error: str = ""
    latency: float = float("inf")


def run_serve(ctx: ServeContext, seconds: float, min_ops: int = 0,
              recorder=None) -> tuple[list[ServeOp], float]:
    """Arrivals back to back for ``seconds`` (and at least ``min_ops``).

    Each arrival's requests are submitted together and awaited before
    the next arrival.  The first request of an arrival sends the data;
    the rest of a sweep name it by the fingerprint the service returned
    for the first.  Those submits never release the GIL, so the worker
    cannot pop the sweep's leader before its siblings are queued; with
    the data on every sibling, validation and hashing released it and
    whether the leader ran alone turned on host speed.  Returns the ops
    and the loop's elapsed seconds.  With a ``recorder`` each submit
    runs inside a ``bench.op`` span tagged with its op index.
    """
    from repro.exceptions import ReproError

    service = ctx.service
    ops: list[ServeOp] = []
    arrivals = serve_arrivals(ctx.seed)
    started = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - started < seconds:
        batch = []
        dataset = {}
        for request in next(arrivals):
            op = ServeOp(request, time.perf_counter())
            if not dataset:
                dataset = {"data": ctx.datasets[request.dataset]}
            submit = lambda: service.submit(  # noqa: E731
                **dataset, k=request.k, l=request.l, seed=request.seed,
            )
            try:
                if recorder is None:
                    op.handle = submit()
                else:
                    recorder.set_op(len(ops))
                    op.handle = recorder.call("bench.op", submit)
            except ReproError as error:
                op.error = f"refused: {type(error).__name__}: {error}"
            else:
                dataset = {"fingerprint": op.handle.request.fingerprint}
            ops.append(op)
            batch.append(op)
        for op in batch:
            if op.handle is not None:
                try:
                    op.handle.result(timeout=RESULT_TIMEOUT_S)
                except Exception:  # noqa: BLE001 - re-raised when checked
                    pass
    elapsed = time.perf_counter() - started
    # The service stamps handles on its own clock (perf_counter minus a
    # private epoch).  No stamp precedes the submit call it belongs to,
    # so the latest (sent - submitted_at) bounds the epoch from below,
    # within the few microseconds submit spends before stamping.
    stamped = [op for op in ops if op.handle is not None]
    epoch = max(
        (op.sent - op.handle.submitted_at for op in stamped), default=0.0
    )
    for op in stamped:
        if op.handle.done():
            op.latency = epoch + op.handle.finished_at - op.sent
    return ops, elapsed
