"""Command-line interface.

Subcommands::

    python -m repro cluster   # run one clustering (synthetic or named data)
    python -m repro fleet     # one clustering sharded across modeled devices
    python -m repro study     # run a (k, l) parameter study
    python -m repro bench     # regenerate paper experiments ('all' for every one)
    python -m repro profile   # nvprof-style kernel profile of a GPU run
    python -m repro explain   # attribution: where the modeled seconds went
    python -m repro trace     # traced run: Perfetto JSON + telemetry + timeline
    python -m repro sanitize  # cuda-memcheck-style sweep of the emulated kernels
    python -m repro chaos     # fault-injection sweep: fault classes x backends
    python -m repro validate  # cross-variant clustering equivalence check
    python -m repro claims    # check every quantitative claim of the paper
    python -m repro serve     # process a spool of clustering requests
    python -m repro submit    # drop one request into a spool directory
    python -m repro loadgen   # replay a seeded request mix -> BENCH_serve.json
    python -m repro postmortem  # analyze/replay a flight-recorder crash bundle
    python -m repro monitor   # SLO health dashboard over a monitor directory
    python -m repro regress   # quick bench tier vs committed baseline (CI gate)
    python -m repro info      # list backends, datasets, hardware models

Examples::

    python -m repro cluster --n 20000 --k 10 --l 5 --backend gpu-fast
    python -m repro cluster --dataset pendigits --k 8 --l 5 --counters
    python -m repro study --n 30000 --level 3
    python -m repro study --checkpoint-dir ckpt/           # kill-safe study
    python -m repro study --checkpoint-dir ckpt/ --resume  # pick it back up
    python -m repro chaos --backends gpu-fast --json chaos_events.json
    python -m repro bench fig2ab --plot --csv out/fig2ab.csv
    python -m repro bench all --out results/
    python -m repro submit spool/ --k 8 --l 4 --n 5000 && python -m repro serve spool/
    python -m repro loadgen --requests 24 --json BENCH_serve.json
    python -m repro fleet --devices 4 --check         # 4-way shard, verify vs solo
    python -m repro bench fleet --json BENCH_fleet.json  # multi-device scaling curve
    python -m repro bench quick --save-baseline       # refresh the committed baseline
    python -m repro regress --json BENCH_regress.json # gate: exit 1 on regression
    python -m repro monitor monitor/ --once --json -  # one-shot SLO health report
    python -m repro explain --backend gpu-fast --json report.json --flamegraph fg.txt
    python -m repro explain --diff old_report.json report.json  # what moved, and why
    python -m repro monitor --fleet BENCH_fleet_report.json     # straggler analysis
    python -m repro serve spool/ --fault device-down@dev1 --record-dir pm/
    python -m repro postmortem pm/ --replay   # re-execute the crash from the bundle

Set ``REPRO_FLIGHT_RECORDER=<dir>`` to run any subcommand under an
ambient flight recorder that dumps postmortem bundles there.

Errors are reported as a one-line ``repro: error: ...`` message with
exit code 2 (interruption exits 130); pass ``--strict`` before the
subcommand to get the full traceback instead.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

import numpy as np

from . import BACKENDS, ParameterGrid, ProclusParams, proclus, run_parameter_study
from .exceptions import ReproError
from .bench import figures
from .data import (
    dataset_names,
    generate_subspace_data,
    load_dataset,
    minmax_normalize,
)
from .eval.metrics import adjusted_rand_index, subspace_recovery
from .bench.claims import check_all, format_results
from .eval.validation import validate_equivalence
from .gpu.profiler import (
    format_kernel_profile,
    kernel_profile_records,
    profile_kernels,
)
from .hardware.specs import GTX_1660_TI, INTEL_I7_9750H, INTEL_I9_10940X, RTX_3090

__all__ = ["main", "build_parser"]

#: What a subcommand handler returns: its exit code, or ``(code,
#: payload)`` when it has a report for ``--json`` (written by ``main``).
Outcome = int | tuple[int, dict]

#: Experiment name -> report function (for ``repro bench``).
EXPERIMENTS: dict[str, Callable[[], "figures.ExperimentReport"]] = {
    "fig1": figures.fig1_strategy_speedup,
    "fig2ab": figures.fig2ab_scale_n,
    "fig2cd": figures.fig2cd_scale_d,
    "fig2e": figures.fig2e_data_clusters,
    "fig2f": figures.fig2f_stddev,
    "fig2gk": figures.fig2gk_params,
    "fig3ae": figures.fig3ae_multiparam_scale,
    "fig3f": figures.fig3f_space,
    "fig3g": figures.fig3g_realworld,
    "sec53": figures.sec53_multiparam_levels,
    "sec54": figures.sec54_utilization,
    "ablation": figures.ablation_strategies,
}


def _add_run_arguments(
    parser: argparse.ArgumentParser,
    backends: Sequence[str] = tuple(sorted(BACKENDS)),
    default: str = "gpu-fast",
) -> None:
    """Data and algorithm-parameter flags, plus ``--backend`` unless
    ``backends`` is empty."""
    if backends:
        parser.add_argument("--backend", choices=backends, default=default)
    group = parser.add_argument_group("data")
    group.add_argument("--dataset", choices=dataset_names(),
                       help="use a real-world stand-in instead of synthetic data")
    group.add_argument("--n", type=int, default=20_000,
                       help="synthetic dataset size (default 20000)")
    group.add_argument("--d", type=int, default=15,
                       help="synthetic dimensionality (default 15)")
    group.add_argument("--clusters", type=int, default=10,
                       help="planted clusters (default 10)")
    group.add_argument("--subspace-dims", type=int, default=5,
                       help="planted subspace size (default 5)")
    group.add_argument("--std", type=float, default=5.0,
                       help="planted cluster std (default 5.0)")
    group.add_argument("--data-seed", type=int, default=0,
                       help="seed for data generation (default 0)")
    group = parser.add_argument_group("algorithm parameters")
    group.add_argument("--k", type=int, default=10)
    group.add_argument("--l", type=int, default=5)
    group.add_argument("--a", type=int, default=100, help="sample constant A")
    group.add_argument("--b", type=int, default=10, help="medoid constant B")
    group.add_argument("--min-deviation", type=float, default=0.7)
    group.add_argument("--patience", type=int, default=5, help="itrPat")
    group.add_argument("--seed", type=int, default=0, help="algorithm seed")


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least one."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return value


def _add_devices_argument(
    parser: argparse.ArgumentParser, default, help: str,
    mixed: bool = False, **kwargs,
) -> None:
    """``--devices`` (each value >= 1), plus ``--mixed`` if asked."""
    parser.add_argument("--devices", type=_positive_int, default=default,
                        help=help, **kwargs)
    if mixed:
        parser.add_argument(
            "--mixed", action="store_true",
            help="(fleet backends) use a heterogeneous GTX 1660 Ti + "
                 "RTX 3090 mix instead of identical cards",
        )


def _add_json_argument(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--json", metavar="PATH",
        help=f"write {what} as JSON ('-' = stdout, which then holds only "
             f"the JSON; the text goes to stderr)",
    )


def _add_resilience_arguments(
    parser: argparse.ArgumentParser, fault_help: str, record_help: str
) -> None:
    """The fault/retry/recorder flags shared by ``chaos`` and ``serve``."""
    parser.add_argument(
        "--fault", action="append", metavar="SPEC",
        help=f"fault spec 'kind[@site][#at[+count|+*]][?prob]' "
             f"(repeatable; {fault_help})",
    )
    parser.add_argument("--max-retries", type=int, default=3,
                        help="transient-error retries per ladder rung "
                             "(default 3)")
    parser.add_argument(
        "--record-dir", metavar="DIR",
        help=f"run under a flight recorder; {record_help} dump a "
             f"postmortem bundle here (inspect with 'repro postmortem DIR')",
    )


def _resilience_from(args: argparse.Namespace, fault_seed: int,
                     record_capacity: int = 256, **policy_fields):
    """``(RetryPolicy, injector factory, FlightRecorder or None)`` from
    the shared resilience flags, plus any other RetryPolicy fields."""
    from .obs import FlightRecorder
    from .resilience import FaultInjector, RetryPolicy

    recorder = None
    if args.record_dir:
        recorder = FlightRecorder(capacity=record_capacity,
                                  bundle_dir=args.record_dir)

    def injector(schedule: Sequence[str]) -> FaultInjector:
        return FaultInjector(tuple(schedule), seed=fault_seed)

    policy = RetryPolicy(max_retries=args.max_retries, **policy_fields)
    return policy, injector, recorder


def _write_json(payload: dict, path: str) -> None:
    """The one ``--json`` writer: ``-`` is stdout, anything else a file."""
    import json
    from pathlib import Path

    if path == "-":
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
        return
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    print(f"report written to {path}")


def _load_data(args: argparse.Namespace):
    if args.dataset:
        dataset = load_dataset(args.dataset, seed=args.data_seed)
    else:
        dataset = generate_subspace_data(
            n=args.n, d=args.d, n_clusters=args.clusters,
            subspace_dims=args.subspace_dims, std=args.std,
            seed=args.data_seed,
        )
    return minmax_normalize(dataset.data), dataset


def _params_from(args: argparse.Namespace, k: int | None = None,
                 l: int | None = None) -> ProclusParams:
    return ProclusParams(
        k=k if k is not None else args.k,
        l=l if l is not None else args.l,
        a=args.a, b=args.b,
        min_deviation=args.min_deviation,
        patience=args.patience,
    )


def _build_fleet(args: argparse.Namespace):
    """The modeled fleet of ``--devices``/``--mixed`` (None if unset)."""
    from .fleet import default_fleet, mixed_fleet

    if args.devices is None:
        return None
    if getattr(args, "mixed", False):
        large = args.devices // 2
        return mixed_fleet(small=args.devices - large, large=large)
    return default_fleet(args.devices)


def _engine_from(args: argparse.Namespace, **kwargs):
    """The ``--backend`` engine with the run's params, seed and fleet."""
    if args.backend.startswith("fleet-") and "devices" in args:
        kwargs["fleet"] = _build_fleet(args)
    return BACKENDS[args.backend](
        params=_params_from(args), seed=args.seed, **kwargs
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    data, dataset = _load_data(args)
    result = proclus(
        data, backend=args.backend, params=_params_from(args), seed=args.seed
    )
    print(result.summary())
    print()
    print(f"modeled time: {result.stats.modeled_seconds * 1e3:.3f} ms "
          f"on {result.stats.hardware}")
    if args.counters:
        from .result import counters_as_table

        print("\nwork counters:")
        print(counters_as_table(result.stats.counters))
    if dataset.labels is not None and (dataset.labels >= 0).any():
        print(f"ARI vs ground truth: "
              f"{adjusted_rand_index(dataset.labels, result.labels):.3f}")
        if dataset.subspaces:
            print(f"subspace recovery:   "
                  f"{subspace_recovery(dataset.subspaces, dataset.labels, result.dimensions, result.labels):.3f}")
    if args.save_labels:
        np.save(args.save_labels, result.labels)
        print(f"labels written to {args.save_labels}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    data, _ = _load_data(args)
    grid = ParameterGrid(
        ks=tuple(args.ks), ls=tuple(args.ls), base=_params_from(args, k=max(args.ks))
    )
    extra = {}
    if args.checkpoint_dir:
        extra["checkpoint_dir"] = args.checkpoint_dir
    if args.resume:
        extra["resume"] = True
    if args.resilient:
        extra["resilience"] = True
    study = run_parameter_study(
        data, grid=grid, backend=args.backend, level=args.level,
        seed=args.seed, **extra,
    )
    print(f"{args.backend} multi-param level {args.level}: "
          f"{study.num_settings} settings")
    print(f"{'k':>4} {'l':>4} {'cost':>12} {'iterations':>11}")
    for (k, l), result in sorted(study.results.items()):
        print(f"{k:>4} {l:>4} {result.cost:>12.6f} {result.iterations:>11}")
    best_k, best_l = study.best_setting()
    print(f"\nbest: k={best_k}, l={best_l}")
    print(f"avg modeled time per setting: "
          f"{study.average_seconds_per_setting * 1e3:.3f} ms")
    if study.events:
        print(f"resilience events: {len(study.events)}")
        for event in study.events:
            line = f"  {event.kind:10s} {event.rung}"
            if event.to_rung:
                line += f" -> {event.to_rung}"
            if event.error_type:
                line += f" ({event.error_type})"
            print(line)
    if args.checkpoint_dir:
        print(f"checkpoints in {args.checkpoint_dir}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> Outcome:
    if args.experiment == "quick":
        return _bench_quick(args)
    if args.experiment == "fleet":
        return _bench_fleet(args)
    if args.experiment == "all":
        from .bench.runner import run_all_experiments

        runs = run_all_experiments(out_dir=args.out, progress=print)
        for run in runs:
            print()
            print(run.report.render())
        if args.out:
            print(f"\nartifacts written to {args.out}")
        return 0, {"experiments": [run.report.to_dict() for run in runs]}
    report = EXPERIMENTS[args.experiment]()
    print(report.render())
    if args.plot:
        print()
        print(report.render_plot())
    if args.csv:
        path = report.to_csv(args.csv)
        print(f"\nrows written to {path}")
    return 0, report.to_dict()


def _bench_quick(args: argparse.Namespace) -> Outcome:
    """The ``repro bench quick`` path: run the baseline tier."""
    import time as _time

    from .bench.baseline import (
        bench_quick_record,
        quick_report,
        run_quick_tier,
        write_baselines,
    )

    started = _time.perf_counter()
    records = run_quick_tier(progress=print)
    wall = _time.perf_counter() - started
    report = quick_report(records)
    print()
    print(report.render())
    if args.plot:
        print()
        print(report.render_plot())
    if args.csv:
        print(f"\nrows written to {report.to_csv(args.csv)}")
    if args.save_baseline:
        paths = write_baselines(records, args.baseline_dir)
        print(f"\n{len(paths)} baseline files written to {args.baseline_dir} "
              f"(commit them to move the regression gate)")
    return 0, bench_quick_record(records, wall)


def _bench_fleet(args: argparse.Namespace) -> Outcome:
    """The ``repro bench fleet`` path: multi-device scaling curve."""
    from .fleet.bench import render_fleet_bench, run_fleet_bench

    payload = run_fleet_bench(devices=tuple(args.devices), progress=print)
    print()
    print(render_fleet_bench(payload))
    if not payload["ok"]:
        print("\nWARNING: a fleet run was NOT bit-identical to solo",
              file=sys.stderr)
    return (0 if payload["ok"] else 1), payload


def _cmd_fleet(args: argparse.Namespace) -> Outcome:
    from .fleet import fleet_report
    from .viz.ascii import fleet_utilization_chart

    data, _ = _load_data(args)
    engine = _engine_from(args)
    result = engine.fit(data)
    report = fleet_report(engine.model)
    print(result.summary())
    print()
    print(fleet_utilization_chart(report))
    if not args.check:
        return 0, report
    solo_backend = args.backend.removeprefix("fleet-")
    solo = proclus(
        data, backend=solo_backend, params=_params_from(args), seed=args.seed
    )
    identical = _results_identical(solo, result)
    print(f"\nbit-identical to solo {solo_backend}: "
          f"{'yes' if identical else 'NO'}",
          file=sys.stdout if identical else sys.stderr)
    return (0 if identical else 1), report


#: ``repro regress --inject`` choice -> backend remap simulating the
#: named lost optimization (the gate's negative control).
REGRESS_INJECTIONS: dict[str, dict[str, str]] = {
    # Lose the FAST Dist cache: FAST variants keep only the
    # incremental-H strategy (or nothing, for the star variant which
    # has no published H-only ablation).
    "no-dist-cache": {
        "gpu-fast": "gpu-fast-h-only",
        "gpu-fast-star": "gpu",
        "fast": "fast-h-only",
    },
}


def _cmd_regress(args: argparse.Namespace) -> Outcome:
    from .bench.baseline import load_baselines, run_quick_tier
    from .bench.regress import run_regression_check

    baselines = load_baselines(args.baseline_dir)
    backend_map = REGRESS_INJECTIONS[args.inject] if args.inject else None
    if args.inject:
        print(f"injecting slowdown {args.inject!r}: "
              + ", ".join(f"{a}->{b}" for a, b in backend_map.items()))
    fresh = run_quick_tier(backend_map=backend_map, progress=print)
    verdict = run_regression_check(
        baselines, fresh,
        rel_threshold=args.rel_threshold, alpha=args.alpha,
    )
    print()
    for workload in verdict["workloads"]:
        modeled = workload["modeled"]
        if modeled is None:
            print(f"{workload['name']:<20} INVALID")
            continue
        status = "ok" if workload["ok"] else "REGRESSION"
        print(f"{workload['name']:<20} modeled "
              f"{modeled['mean_rel_delta'] * 100:+.2f}% "
              f"({modeled['slower']} slower / {modeled['faster']} faster / "
              f"{modeled['ties']} ties, p={modeled['p_slower']:.4f})  "
              f"{status}")
        for regression in workload["regressions"]:
            print(f"  {regression}")
    for issue in verdict["invalid"]:
        print(f"invalid baseline: {issue}", file=sys.stderr)
    print()
    if verdict["exit_code"] == 0:
        print("no regression against the committed baseline")
    elif verdict["exit_code"] == 1:
        print(f"REGRESSION in: {', '.join(verdict['regressed'])}",
              file=sys.stderr)
        for line in verdict.get("triage", []):
            print(f"  triage: {line}", file=sys.stderr)
    else:
        print("baseline store is unusable — regenerate it with "
              "'repro bench quick --save-baseline'", file=sys.stderr)
    return verdict["exit_code"], verdict


def _cmd_monitor(args: argparse.Namespace) -> Outcome:
    import json
    import time as _time

    from .obs.monitor import load_health
    from .viz import render_health

    if args.fleet:
        from .obs.explain import fleet_attribution
        from .viz.explain import render_fleet_attribution

        with open(args.fleet) as handle:
            report = json.load(handle)
        # Accept a fleet_report dict (live or archived), a repro.explain/1
        # report (fleet section), or raw per-device ledgers.
        if isinstance(report.get("fleet"), dict):
            attribution = report["fleet"]
        elif isinstance(report.get("attribution"), dict) and (
            "straggler_index" in report["attribution"]
        ):
            attribution = report["attribution"]
        else:
            attribution = fleet_attribution(report)
        print(render_fleet_attribution(attribution))
        return 0
    if args.dir is None:
        print("monitor: a monitor directory is required (or --fleet FILE)",
              file=sys.stderr)
        return 2
    if args.once:
        health = load_health(args.dir)  # missing -> OSError -> exit 2
        print(render_health(health))
        return (0 if health["ok"] else 1), health

    health = None
    updates = 0
    while True:
        try:
            health = load_health(args.dir)
        except FileNotFoundError:
            print(f"waiting for {args.dir}/health.json ...")
        else:
            print(render_health(health))
            print()
        updates += 1
        if health is not None and health.get("final"):
            print("service flushed its final snapshot; exiting")
            break
        if args.max_updates is not None and updates >= args.max_updates:
            break
        _time.sleep(args.interval)
    if health is None:
        print(f"no health report ever appeared in {args.dir}",
              file=sys.stderr)
        return 2
    return 0 if health["ok"] else 1


def _cmd_explain(args: argparse.Namespace) -> Outcome:
    import json

    from .obs.explain import (
        attribute_run,
        attribution_record,
        collapsed_stacks,
        diff_attribution,
        diff_counters,
        explain_report,
        format_collapsed,
        load_comparable,
        speedscope_profile,
        validate_explain_report,
    )
    from .viz.explain import (
        render_attribution,
        render_diff,
        render_fleet_attribution,
    )

    if args.diff:
        from .obs.export import report_envelope

        a, b = (load_comparable(path) for path in args.diff)
        diff = None
        if a["attribution"] is not None and b["attribution"] is not None:
            diff = diff_attribution(a["attribution"], b["attribution"])
        counters = diff_counters(a["counters"], b["counters"])
        print(f"differential attribution: {a['label']} -> {b['label']}")
        if diff is not None:
            print(render_diff(diff, top=args.top))
        if counters:
            print("counter movers:")
            for row in counters[: args.top]:
                print(f"  {row['name']}: {row['baseline']:g} -> "
                      f"{row['fresh']:g} ({row['delta']:+g})")
        else:
            print("no counter deltas")
        return 0, {
            **report_envelope("repro.explain_diff/1"),
            "a": a["label"],
            "b": b["label"],
            "zero": bool((diff is None or diff["zero"]) and not counters),
            "diff": diff,
            "counters": counters,
        }

    if args.workload:
        from .bench.baseline import QUICK_TIER, run_workload

        workloads = {w.name: w for w in QUICK_TIER}
        if args.workload not in workloads:
            print(f"unknown workload {args.workload!r}; available: "
                  f"{', '.join(sorted(workloads))}", file=sys.stderr)
            return 2
        record = run_workload(workloads[args.workload])
        summary = record["attribution"]
        print(f"{args.workload}: {summary['total_seconds'] * 1e3:.3f} ms "
              f"modeled over seeds {record['seeds']}")
        for name, seconds in sorted(
            summary["components"].items(), key=lambda i: -i[1]
        ):
            share = seconds / summary["total_seconds"] if summary["total_seconds"] else 0.0
            print(f"  {name:<8} {seconds * 1e3:>9.3f} ms  {share * 100:5.1f}%")
        top_kernels = sorted(
            summary["kernels"].items(), key=lambda i: -i[1]
        )[: args.top]
        print("top kernels:")
        for name, seconds in top_kernels:
            print(f"  {name:<28} {seconds * 1e3:>9.3f} ms")
        return 0, record

    from .obs import Tracer, use_tracer

    data, _ = _load_data(args)
    tracer = Tracer()
    with use_tracer(tracer):
        engine = _engine_from(args)
        result = engine.fit(data)
    record = attribution_record(attribute_run(engine.model))
    fleet_section = None
    from .fleet import FleetModel, fleet_report

    if isinstance(engine.model, FleetModel):
        fleet_section = fleet_report(engine.model)["attribution"]
    print(render_attribution(record, top=args.top))
    if fleet_section is not None:
        print()
        print(render_fleet_attribution(fleet_section))
    report = explain_report(
        record,
        label=args.backend,
        counters=dict(result.stats.counters),
        fleet=fleet_section,
    )
    problems = validate_explain_report(report)
    if problems:
        print(f"\nexplain report failed self-validation "
              f"({len(problems)} problems):", file=sys.stderr)
        for problem in problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.flamegraph:
        with open(args.flamegraph, "w") as handle:
            handle.write(format_collapsed(collapsed_stacks(tracer)))
        print(f"collapsed-stack flamegraph written to {args.flamegraph}")
    if args.speedscope:
        with open(args.speedscope, "w") as handle:
            json.dump(speedscope_profile(tracer, name=args.backend), handle)
        print(f"speedscope profile written to {args.speedscope} "
              f"(open at https://www.speedscope.app)")
    return 0, report


def _cmd_profile(args: argparse.Namespace) -> Outcome:
    from .obs import report_envelope

    data, _ = _load_data(args)
    engine = _engine_from(args)
    result = engine.fit(data)
    profiles = profile_kernels(engine.model)
    print(format_kernel_profile(profiles, top=args.top))
    print(f"\nmodeled total: {result.stats.modeled_seconds * 1e3:.3f} ms "
          f"on {result.stats.hardware}")
    return 0, {
        **report_envelope("repro.kernel_profile/1"),
        "backend": args.backend,
        "hardware": result.stats.hardware,
        "modeled_seconds": result.stats.modeled_seconds,
        "kernels": kernel_profile_records(profiles),
    }


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import (
        Tracer,
        run_record,
        study_record,
        use_tracer,
        validate_chrome_trace,
        write_chrome_trace,
        write_jsonl,
    )
    from .obs.export import chrome_trace
    from .viz import render_timeline

    data, _ = _load_data(args)
    out = Path(args.out)
    tracer = Tracer()
    with use_tracer(tracer):
        if args.study_level is not None:
            grid = ParameterGrid(
                ks=tuple(args.ks), ls=tuple(args.ls),
                base=_params_from(args, k=max(args.ks)),
            )
            study = run_parameter_study(
                data, grid=grid, backend=args.backend,
                level=args.study_level, seed=args.seed,
            )
            record = study_record(
                study, tracer, label=args.label, seed=args.seed
            )
        else:
            engine = _engine_from(args, collect_trace=True)
            result = engine.fit(data)
            record = run_record(
                result, tracer, label=args.label, seed=args.seed,
                n=data.shape[0], d=data.shape[1], params=engine.params,
            )

    trace = chrome_trace(tracer, label=args.label or args.backend)
    trace_path = write_chrome_trace(
        tracer, out / f"trace_{args.backend}.json", label=args.label or args.backend
    )
    telemetry_path = write_jsonl(out / "telemetry.jsonl", [record])

    print(render_timeline(tracer))
    print()
    print(f"chrome trace written to {trace_path} "
          f"(open in https://ui.perfetto.dev)")
    print(f"telemetry written to {telemetry_path}")

    problems = validate_chrome_trace(trace)
    if problems:
        print(f"\ntrace failed validation ({len(problems)} problems):",
              file=sys.stderr)
        for problem in problems[:20]:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> Outcome:
    from .gpu_impl.sanitize import run_sweep

    kernels = None if args.all_kernels or not args.kernel else args.kernel
    seeds: tuple[int | None, ...] = (None, *range(1, args.schedules))
    report = run_sweep(kernels=kernels, schedule_seeds=seeds, seed=args.seed)
    print(report.render())
    return (0 if report.ok else 1), report.to_dict()


#: Fault class -> default chaos schedule (fires early in every run).
CHAOS_FAULTS: dict[str, tuple[str, ...]] = {
    "oom": ("oom#1",),
    "launch": ("launch#2",),
    "transient": ("transient#2",),
    "corrupt": ("corrupt#1",),
    "timeout": ("timeout#2",),
}

#: Fleet chaos stages: kill each member early (during the data
#: upload) and mid-run (inside the iterative phase).
FLEET_CHAOS_AT = {"upload": 1, "iterate": 8}


def _results_identical(a, b) -> bool:
    """Bit-identical clustering (dimensions is a ragged tuple: use ==)."""
    return (
        np.array_equal(a.labels, b.labels)
        and np.array_equal(a.medoids, b.medoids)
        and a.dimensions == b.dimensions
        and a.cost == b.cost
    )


def _along_ladder(outcome, rungs: list[str]) -> bool:
    return outcome.rung in rungs and all(
        event.to_rung in rungs
        for event in outcome.events
        if event.kind == "degrade"
    )


def _solo_contract(outcome, rungs: list[str]) -> tuple[dict, bool]:
    """Recovered = the run stayed on the documented degradation ladder."""
    along_ladder = _along_ladder(outcome, rungs)
    return {"along_ladder": along_ladder}, along_ladder


def _fleet_contract(outcome, rungs: list[str]) -> tuple[dict, bool]:
    """Recovered = re-sharded within the fleet rung, or degraded along
    the documented ladder."""
    resharded = any(event.kind == "reshard" for event in outcome.events)
    recovered = resharded or (
        outcome.degraded and _along_ladder(outcome, rungs)
    )
    return {"resharded": resharded}, recovered


def _custom_fleet_contract(outcome, rungs: list[str]) -> tuple[dict, bool]:
    """A user's schedule need not cost a member: recovered = re-sharded
    within the fleet rung, or stayed on the documented ladder."""
    resharded = any(event.kind == "reshard" for event in outcome.events)
    along_ladder = _along_ladder(outcome, rungs)
    return (
        {"resharded": resharded, "along_ladder": along_ladder},
        resharded or along_ladder,
    )


def _cmd_chaos(args: argparse.Namespace) -> Outcome:
    """Fault-injection sweep; exit 1 if any run breaks its contract.

    Solo mode sweeps fault class x backend; ``--fleet`` sweeps device x
    stage, killing one fleet member per run.  In either mode ``--fault``
    replaces the sweep with one ``custom`` scenario running the given
    schedule.  Every run must fire its fault, end bit-identical to the
    fault-free solo clustering, and recover as its mode's contract
    demands (a custom fleet schedule: re-shard or stay on the ladder).
    """
    from dataclasses import asdict

    from .obs import report_envelope
    from .obs.postmortem import result_digest
    from .obs.recorder import use_recorder
    from .resilience import ResilientRunner, use_injector

    data, _ = _load_data(args)
    params = _params_from(args)
    policy, make_injector, recorder = _resilience_from(args, args.seed)
    runner = ResilientRunner(policy)
    shape = f"n={data.shape[0]}, k={params.k}, l={params.l}"
    if args.fleet:
        backends = [
            backend for backend in args.backends
            if backend.startswith("fleet-")
        ] or ["fleet-gpu-fast", "fleet-gpu"]
        key, contract = "scenario", _fleet_contract
        device_keys = {"devices": args.devices}
        runs, contract_name = "device-loss", "bit-identical-after-recovery"
        if args.fault:
            scenarios = {"custom": tuple(args.fault)}
            contract, runs = _custom_fleet_contract, "injected"
        else:
            scenarios = {
                f"down-dev{device}@{stage}": (f"device-down@dev{device}#{at}",)
                for device in range(args.devices)
                for stage, at in FLEET_CHAOS_AT.items()
            }
        engine_kwargs = {"fleet": _build_fleet(args)}
        held = ("recovered with the solo clustering (re-sharding within "
                "the fleet or degrading along the ladder)")
        print(f"fleet chaos sweep: {len(backends)} backend(s) x "
              f"{len(scenarios)} scenario(s) on {args.devices} device(s), "
              f"{shape}")
    else:
        backends = args.backends
        key, contract, device_keys = "fault_class", _solo_contract, {}
        scenarios = (
            {"custom": tuple(args.fault)} if args.fault else CHAOS_FAULTS
        )
        engine_kwargs = {}
        runs = "injected"
        contract_name = "completes-identical-or-degrades-along-ladder"
        held = ("completed with the fault-free clustering (degrading "
                "along the ladder where needed)")
        print(f"chaos sweep: {len(backends)} backend(s) x "
              f"{len(scenarios)} fault class(es), {shape}")

    rows: list[dict] = []
    print(f"{'backend':<16} {key:<22} {'fired':>5} {'attempts':>8} "
          f"{'final rung':<30} {'identical':<9} ok")
    for backend in backends:
        reference = proclus(
            data, backend=backend.removeprefix("fleet-"), params=params,
            seed=args.seed,
        )
        rungs = [step.describe() for step in policy.ladder_for(backend)]
        for scenario, schedule in scenarios.items():
            injector = make_injector(schedule)
            row = {
                "backend": backend,
                key: scenario,
                "schedule": list(schedule),
                **device_keys,
            }
            try:
                with use_injector(injector), use_recorder(recorder):
                    outcome = runner.fit(
                        data, backend=backend, params=params,
                        seed=args.seed, engine_kwargs=engine_kwargs,
                    )
            except ReproError as error:
                row.update(
                    error=f"{type(error).__name__}: {error}", ok=False,
                    fired=len(injector.injected),
                )
                rows.append(row)
                print(f"{backend:<16} {scenario:<22} "
                      f"{len(injector.injected):>5} {'-':>8} {'-':<30} "
                      f"{'-':<9} FAIL ({type(error).__name__})")
                continue
            fired = len(injector.injected)
            identical = _results_identical(outcome.result, reference)
            verdict, recovered = contract(outcome, rungs)
            ok = identical and recovered and fired > 0
            if not ok and recorder is not None:
                # The run completed but broke the contract; pin the
                # fault-free reference digest so a replay can check the
                # solo bits from the bundle alone.
                recorder.set_reference_digest(result_digest(reference))
                recorder.record_failure(
                    "chaos-contract",
                    events=outcome.events,
                    detail=f"{backend} x {scenario}: " + ", ".join(
                        f"{name}={value}" for name, value in
                        {"identical": identical, **verdict,
                         "fired": fired}.items()
                    ),
                )
                recorder.auto_dump("chaos-contract")
            row.update(
                fired=fired,
                attempts=outcome.attempts,
                rung=outcome.rung,
                degraded=outcome.degraded,
                identical=identical,
                **verdict,
                ok=ok,
                injected=[asdict(record) for record in injector.injected],
                events=[event.as_dict() for event in outcome.events],
            )
            rows.append(row)
            final = next(
                (event.to_rung for event in reversed(outcome.events)
                 if event.kind in ("reshard", "degrade")),
                outcome.rung,
            )
            print(f"{backend:<16} {scenario:<22} {fired:>5} "
                  f"{outcome.attempts:>8} {final:<30} "
                  f"{str(identical).lower():<9} "
                  f"{'ok' if ok else 'VIOLATION'}")

    failures = [row for row in rows if not row["ok"]]
    print()
    if failures:
        print(f"{len(failures)}/{len(rows)} {runs} runs violated the "
              f"{contract_name} contract")
    else:
        print(f"all {len(rows)} {runs} runs {held}")
    return (1 if failures else 0), {
        **report_envelope("repro.chaos/1"),
        **({"mode": "fleet"} if args.fleet else {}),
        "n": int(data.shape[0]),
        "d": int(data.shape[1]),
        "k": params.k,
        "l": params.l,
        "seed": args.seed,
        **device_keys,
        "max_retries": args.max_retries,
        "ok": not failures,
        "rows": rows,
    }


def _cmd_claims(args: argparse.Namespace) -> int:
    results = check_all()
    print(format_results(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_equivalence(
        n=args.n, d=args.d, seeds=tuple(range(args.runs))
    )
    print(report.render())
    return 0 if report.passed else 1


#: --gpu choice -> modeled card.
GPU_SPECS = {"gtx1660ti": GTX_1660_TI, "rtx3090": RTX_3090}


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .serve import ClusterService, serve_spool
    from .viz import render_health, render_serve_lanes

    fleet = _build_fleet(args)
    policy, make_injector, recorder = _resilience_from(
        args, args.fault_seed, record_capacity=args.record_capacity,
        allow_degraded=not args.no_degrade, max_reshards=args.max_reshards,
    )
    injector = make_injector(args.fault) if args.fault else None
    service = ClusterService(
        workers=args.workers,
        gpu_spec=GPU_SPECS[args.gpu],
        fleet=fleet,
        policy=policy,
        cache_entries=args.cache_entries,
        monitor_dir=args.monitor_dir,
        recorder=recorder,
        injector=injector,
    )
    where = (
        f"a {fleet.num_devices}-card modeled fleet"
        if fleet is not None else f"modeled {GPU_SPECS[args.gpu].name}"
    )
    print(f"serving spool {args.spool} on {where} "
          f"({args.workers} workers)")
    if args.monitor_dir:
        print(f"monitoring output in {args.monitor_dir} "
              f"(watch with: repro monitor {args.monitor_dir})")
    if injector is not None:
        print(f"fault injection active: {', '.join(args.fault)} "
              f"(seed {args.fault_seed})")
    if recorder is not None:
        print(f"flight recorder on: postmortem bundles land in "
              f"{args.record_dir}")

    def _on_sigterm(signum, frame):
        # Unwind through the KeyboardInterrupt path so the finally
        # block below flushes the final monitoring snapshot.
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    handled = 0
    interrupted = False
    try:
        handled = serve_spool(
            args.spool, service,
            once=args.once,
            poll_seconds=args.poll_seconds,
            max_batches=args.max_batches,
            progress=print,
        )
    except KeyboardInterrupt:
        interrupted = True
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
        if interrupted and recorder is not None:
            recorder.record_failure(
                "sigterm",
                detail="service terminated by signal mid-stream",
            )
            bundle = recorder.auto_dump("sigterm")
            if bundle is not None:
                print(f"postmortem bundle written to {bundle}")
        health = service.shutdown()
        if health is not None:
            print()
            print(render_health(health))
        if recorder is not None and recorder.dumped_paths:
            print(f"\n{len(recorder.dumped_paths)} postmortem bundle(s): "
                  + ", ".join(str(path) for path in recorder.dumped_paths))
    stats = service.stats()
    print(f"\n{handled} requests handled "
          f"(cache hits {stats['cache']['hits']}, "
          f"coalesced {int(stats['counters'].get('serve.coalesced', 0))}, "
          f"modeled {stats['executed_modeled_seconds'] * 1e3:.3f} ms executed)")
    if args.timeline and len(service.log):
        print()
        print(render_serve_lanes(service.log.snapshot()))
        if service.log.dropped:
            print(f"(the last {len(service.log)} events; "
                  f"{service.log.dropped} earlier ones were dropped)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import time as _time

    from .serve import read_response, write_request

    if args.id:
        request_id = args.id
    else:
        request_id = f"req-{int(_time.time() * 1e3):x}"
    dataset: dict = {}
    if args.npy:
        dataset["npy"] = args.npy
    else:
        dataset["synthetic"] = {
            "n": args.n, "d": args.d, "clusters": args.clusters,
            "seed": args.data_seed,
        }
    path = write_request(
        args.spool, request_id,
        backend=args.backend, k=args.k, l=args.l,
        seed=args.seed, priority=args.priority, **dataset,
    )
    print(f"request {request_id} written to {path}")
    if not args.wait:
        return 0
    deadline = _time.monotonic() + args.wait
    while _time.monotonic() < deadline:
        response = read_response(args.spool, request_id)
        if response is not None:
            if not response.get("ok"):
                print(f"request failed: {response.get('error')}",
                      file=sys.stderr)
                return 1
            print(f"cost={response['cost']:.6f} "
                  f"refined={response['refined_cost']:.6f} "
                  f"iterations={response['iterations']} "
                  f"outliers={response['n_outliers']}")
            print(f"medoids: {response['medoids']}")
            print(f"labels sha256: {response['labels_sha256']}")
            if response.get("cached"):
                print("(served from the result cache)")
            if response.get("coalesced"):
                print("(coalesced with concurrent requests)")
            return 0
        _time.sleep(0.2)
    print(f"no response within {args.wait:.0f}s "
          f"(is `repro serve {args.spool}` running?)", file=sys.stderr)
    return 1


def _cmd_loadgen(args: argparse.Namespace) -> Outcome:
    from .obs import validate_bench_report
    from .serve import run_loadgen
    from .viz import render_health, render_serve_lanes

    report = run_loadgen(
        args.requests,
        seed=args.seed,
        workers=args.workers,
        backends=tuple(args.backends),
        num_datasets=args.datasets,
        n=args.n,
        d=args.d,
        clusters=args.clusters,
        seeds=tuple(args.run_seeds),
        ks=tuple(args.ks),
        ls=tuple(args.ls),
        a=args.a,
        b=args.b,
        cache_entries=args.cache_entries,
        gpu_spec=GPU_SPECS[args.gpu],
        monitor_dir=args.monitor_dir,
        postmortem_dir=args.postmortem_dir,
        progress=print,
    )
    totals = report["totals"]
    print()
    print(f"{report['requests']} requests "
          f"({report['unique_settings']} unique settings) "
          f"on modeled {report['config']['gpu']}")
    print(f"modeled device seconds: naive "
          f"{totals['naive_modeled_seconds'] * 1e3:.3f} ms -> served "
          f"{totals['served_modeled_seconds'] * 1e3:.3f} ms "
          f"({totals['speedup']:.2f}x)")
    print(f"latency p50/p95/max: "
          f"{report['latency_seconds']['p50'] * 1e3:.1f} / "
          f"{report['latency_seconds']['p95'] * 1e3:.1f} / "
          f"{report['latency_seconds']['max'] * 1e3:.1f} ms")
    violations = report["determinism"]["violations"]
    print(f"determinism: {report['determinism']['checked']} checked, "
          f"{len(violations)} violations")
    for violation in violations[:10]:
        print(f"  VIOLATION: {violation}")
    if report.get("postmortem_bundle"):
        print(f"  postmortem bundle: {report['postmortem_bundle']} "
              f"(inspect with: repro postmortem {report['postmortem_bundle']})")
    if args.timeline:
        print()
        print(render_serve_lanes(report["events"]))
    if "health" in report:
        print()
        print(render_health(report["health"]))
    problems = validate_bench_report(report, "repro.serve_bench/1")
    for problem in problems:
        print(f"report problem: {problem}", file=sys.stderr)
    return (0 if report["ok"] and not problems else 1), report


def _cmd_postmortem(args: argparse.Namespace) -> Outcome:
    from .obs.postmortem import analyze_bundle, load_bundle, replay_bundle
    from .viz import render_postmortem

    bundle = load_bundle(args.bundle)
    analysis = analyze_bundle(bundle)
    replay_report = None
    if args.replay:
        replay_report = replay_bundle(bundle)
        analysis["replay"] = replay_report
    print(render_postmortem(bundle, analysis))
    if replay_report is not None:
        print()
        if replay_report["reproduced"]:
            if replay_report["expected_error_type"]:
                print(f"replay REPRODUCED the failure: "
                      f"{replay_report['observed_error_type']} with a "
                      f"bit-identical resilience event log")
            else:
                print(f"replay REPRODUCED the recorded solo bits: digest "
                      f"{replay_report['observed_digest'][:12]} matches "
                      f"the reference")
        else:
            print(f"replay DID NOT reproduce the recorded failure: "
                  f"{replay_report['detail']}")
    failed = replay_report is not None and not replay_report["reproduced"]
    return (1 if failed else 0), analysis


def _cmd_info(args: argparse.Namespace) -> int:
    print("backends:")
    for name in sorted(BACKENDS):
        print(f"  {name:22s} -> {BACKENDS[name].__name__}")
    print("\nreal-world stand-in datasets:")
    from .data.realworld import REAL_WORLD_SIZES

    for name in dataset_names():
        n, d = REAL_WORLD_SIZES[name]
        print(f"  {name:12s} {n:>9,} x {d}")
    print("\nmodeled hardware:")
    for spec in (INTEL_I7_9750H, INTEL_I9_10940X):
        print(f"  {spec.name:26s} {spec.cores} cores @ {spec.clock_hz/1e9:.1f} GHz")
    for spec in (GTX_1660_TI, RTX_3090):
        print(f"  {spec.name:26s} {spec.core_count} cores, "
              f"{spec.memory_bytes // 1024**3} GiB, "
              f"{spec.mem_bandwidth_bytes_per_s / 1e9:.0f} GB/s")
    print("\nexperiments (repro bench <id>):")
    print("  " + ", ".join(sorted(EXPERIMENTS)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU-FAST-PROCLUS reproduction (EDBT 2022)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="re-raise errors with a full traceback instead of the "
             "one-line message (place before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cluster = sub.add_parser("cluster", help="run one PROCLUS clustering")
    _add_run_arguments(cluster)
    cluster.add_argument("--save-labels", metavar="PATH",
                         help="write the label array as .npy")
    cluster.add_argument("--counters", action="store_true",
                         help="print the raw work counters")
    cluster.set_defaults(func=_cmd_cluster)

    study = sub.add_parser("study", help="run a (k, l) parameter study")
    _add_run_arguments(study)
    study.add_argument("--ks", type=int, nargs="+", default=[12, 10, 8])
    study.add_argument("--ls", type=int, nargs="+", default=[7, 5, 3])
    study.add_argument("--level", type=int, choices=[0, 1, 2, 3], default=3,
                       help="multi-param reuse level (default 3)")
    study.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist each completed (k, l) setting here so a killed "
             "study can be resumed",
    )
    study.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint-dir, skipping completed settings "
             "(final output is identical to an uninterrupted study)",
    )
    study.add_argument(
        "--resilient", action="store_true",
        help="recover from device faults by retrying and degrading "
             "along the backend ladder",
    )
    study.set_defaults(func=_cmd_study)

    from .bench.baseline import DEFAULT_BASELINE_DIR

    bench = sub.add_parser("bench", help="regenerate a paper experiment")
    bench.add_argument("experiment",
                       choices=sorted(EXPERIMENTS) + ["all", "quick", "fleet"])
    _add_devices_argument(bench, [1, 2, 3, 4], nargs="+",
                          help="(with 'fleet') device counts of the scaling "
                               "curve (default 1 2 3 4)")
    bench.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    _add_json_argument(bench, "the report (not with 'all')")
    bench.add_argument("--plot", action="store_true",
                       help="render the series as an ASCII log-log chart")
    bench.add_argument("--out", metavar="DIR",
                       help="(with 'all') write CSV/JSON/SUMMARY.md here")
    bench.add_argument("--save-baseline", action="store_true",
                       help="(with 'quick') write the run as the committed "
                            "baseline store")
    bench.add_argument("--baseline-dir", metavar="DIR",
                       default=DEFAULT_BASELINE_DIR,
                       help=f"baseline store location "
                            f"(default {DEFAULT_BASELINE_DIR})")
    bench.set_defaults(func=_cmd_bench)

    fleet = sub.add_parser(
        "fleet",
        help="run one clustering sharded across a fleet of modeled devices",
    )
    _add_run_arguments(
        fleet, ("fleet-gpu", "fleet-gpu-fast", "fleet-gpu-fast-star"),
        default="fleet-gpu-fast",
    )
    _add_devices_argument(fleet, 2, "number of modeled devices (default 2)",
                          mixed=True)
    fleet.add_argument("--check", action="store_true",
                       help="also run the solo backend and verify the "
                            "clustering is bit-identical (exit 1 if not)")
    _add_json_argument(fleet, "the per-device fleet report")
    fleet.set_defaults(func=_cmd_fleet)

    regress = sub.add_parser(
        "regress",
        help="run the quick bench tier against the committed baseline "
             "(exit 0 ok / 1 regression / 2 invalid baseline)",
    )
    regress.add_argument("--baseline-dir", metavar="DIR",
                         default=DEFAULT_BASELINE_DIR,
                         help=f"baseline store to compare against "
                              f"(default {DEFAULT_BASELINE_DIR})")
    regress.add_argument("--rel-threshold", type=float, default=0.005,
                         help="mean relative modeled-seconds slowdown "
                              "required to flag (default 0.005)")
    regress.add_argument("--alpha", type=float, default=0.05,
                         help="sign-test significance level (default 0.05)")
    regress.add_argument("--inject", choices=sorted(REGRESS_INJECTIONS),
                         help="deliberately slow the fresh run (negative "
                              "control; must exit 1 against a good baseline)")
    _add_json_argument(regress, "the verdict")
    regress.set_defaults(func=_cmd_regress)

    monitor = sub.add_parser(
        "monitor",
        help="SLO health dashboard over a service's monitor directory",
    )
    monitor.add_argument("dir", nargs="?", default=None,
                         help="monitor directory written by "
                              "'repro serve --monitor-dir' or loadgen")
    monitor.add_argument("--fleet", metavar="FILE",
                         help="instead of a monitor dir: render the "
                              "straggler/imbalance attribution of a fleet "
                              "report JSON (fleet_report or --json output)")
    monitor.add_argument("--once", action="store_true",
                         help="print the current health once and exit "
                              "(0 healthy / 1 SLO failing / 2 no report)")
    _add_json_argument(monitor, "(with --once) the health report")
    monitor.add_argument("--interval", type=float, default=1.0,
                         help="live-view refresh seconds (default 1.0)")
    monitor.add_argument("--max-updates", type=int, default=None,
                         help="stop the live view after this many redraws")
    monitor.set_defaults(func=_cmd_monitor)

    profile = sub.add_parser(
        "profile", help="nvprof-style kernel profile of one GPU run"
    )
    _add_run_arguments(
        profile, sorted(b for b in BACKENDS if b.startswith("gpu"))
    )
    _add_json_argument(profile, "the profile")
    profile.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most expensive kernels "
             "(the rest fold into one row)",
    )
    profile.set_defaults(func=_cmd_profile)

    explain = sub.add_parser(
        "explain",
        help="performance attribution: where the modeled seconds went",
    )
    _add_run_arguments(explain)
    _add_devices_argument(explain, 2, "(fleet backends) modeled device "
                                      "count (default 2)", mixed=True)
    explain.add_argument("--top", type=int, default=10, metavar="N",
                         help="kernels/movers to show (default 10)")
    _add_json_argument(explain, "the repro.explain/1 report")
    explain.add_argument("--flamegraph", metavar="PATH",
                         help="write a collapsed-stack flamegraph "
                              "(flamegraph.pl / inferno compatible)")
    explain.add_argument("--speedscope", metavar="PATH",
                         help="write a speedscope.app JSON profile")
    explain.add_argument("--workload", metavar="NAME",
                         help="attribute a quick-tier workload over its "
                              "baseline seeds instead of one ad-hoc run "
                              "(--json output is diffable vs the committed "
                              "baseline)")
    explain.add_argument("--diff", nargs=2, metavar=("A", "B"),
                         help="differential attribution between two runs: "
                              "repro.explain/1 reports or baseline records")
    explain.set_defaults(func=_cmd_explain)

    trace = sub.add_parser(
        "trace",
        help="run with tracing on: Perfetto trace + telemetry + ASCII timeline",
    )
    _add_run_arguments(trace)
    trace.add_argument("--out", metavar="DIR", default="trace_out",
                       help="output directory (default trace_out)")
    trace.add_argument("--label", default="",
                       help="label stamped into the exported records")
    trace.add_argument(
        "--study-level", type=int, choices=[0, 1, 2, 3], default=None,
        help="trace a multi-param study at this reuse level instead of one run",
    )
    trace.add_argument("--ks", type=int, nargs="+", default=[12, 10, 8],
                       help="(with --study-level) k values")
    trace.add_argument("--ls", type=int, nargs="+", default=[7, 5, 3],
                       help="(with --study-level) l values")
    trace.set_defaults(func=_cmd_trace)

    sanitize = sub.add_parser(
        "sanitize",
        help="run every emulated kernel under the memory/race sanitizer",
    )
    sanitize.add_argument(
        "--all-kernels", action="store_true",
        help="sweep all kernels (the default when no --kernel is given)",
    )
    from .gpu_impl.sanitize import KERNELS

    sanitize.add_argument(
        "--kernel", action="append", metavar="NAME", choices=sorted(KERNELS),
        help=f"sweep only this kernel (repeatable); one of {', '.join(KERNELS)}",
    )
    sanitize.add_argument(
        "--schedules", type=int, default=2,
        help="schedule orders per geometry: in-order + N-1 shuffles (default 2)",
    )
    sanitize.add_argument("--seed", type=int, default=0,
                          help="input-generation seed (default 0)")
    _add_json_argument(sanitize, "the structured report")
    sanitize.set_defaults(func=_cmd_sanitize)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: each fault class x each GPU backend",
    )
    _add_run_arguments(chaos, backends=())
    chaos.add_argument(
        "--backends", nargs="+", metavar="NAME",
        choices=sorted(
            b for b in BACKENDS if b.startswith(("gpu", "fleet-"))
        ),
        default=["gpu", "gpu-fast", "gpu-fast-star"],
        help="GPU backends to sweep (default: gpu gpu-fast gpu-fast-star)",
    )
    _add_resilience_arguments(
        chaos, fault_help="replaces the default per-class sweep",
        record_help="any contract violation or terminal failure",
    )
    chaos.add_argument(
        "--fleet", action="store_true",
        help="device-loss sweep instead: kill each fleet member at each "
             "stage and require the bit-identical solo clustering after "
             "re-sharding (fleet-* backends only)",
    )
    _add_devices_argument(chaos, 3, "fleet size for --fleet (default 3)")
    _add_json_argument(chaos, "the structured event log")
    chaos.set_defaults(func=_cmd_chaos, n=4000, d=12, clusters=5, k=6, l=4)

    claims = sub.add_parser(
        "claims", help="check every quantitative claim of the paper"
    )
    claims.set_defaults(func=_cmd_claims)

    validate = sub.add_parser(
        "validate", help="check cross-variant clustering equivalence"
    )
    validate.add_argument("--n", type=int, default=2000)
    validate.add_argument("--d", type=int, default=10)
    validate.add_argument("--runs", type=int, default=3,
                          help="seeds to check (default 3)")
    validate.set_defaults(func=_cmd_validate)

    serve = sub.add_parser(
        "serve", help="process clustering requests from a spool directory"
    )
    serve.add_argument("spool", help="spool directory (created if missing)")
    serve.add_argument("--workers", type=int, default=2,
                       help="service worker threads (default 2)")
    serve.add_argument("--gpu", choices=sorted(GPU_SPECS), default="gtx1660ti",
                       help="modeled card for capacity decisions")
    _add_devices_argument(serve, None, "serve against a fleet of this many "
                                       "modeled cards (fleet-* requests "
                                       "shard across them)")
    serve.add_argument("--cache-entries", type=int, default=64,
                       help="result-cache capacity (0 disables; default 64)")
    serve.add_argument("--once", action="store_true",
                       help="process the current requests and exit")
    serve.add_argument("--poll-seconds", type=float, default=0.2,
                       help="spool poll interval (default 0.2)")
    serve.add_argument("--max-batches", type=int, default=None,
                       help="stop after this many non-empty sweeps")
    serve.add_argument("--timeline", action="store_true",
                       help="print the queue/occupancy lanes at exit")
    serve.add_argument("--monitor-dir", metavar="DIR",
                       help="write live monitoring output (event log, "
                            "Prometheus scrape, health.json) here; flushed "
                            "on exit and on SIGTERM")
    _add_resilience_arguments(
        serve, fault_help="injected into served jobs, e.g. device-down@dev1",
        record_help="terminal failures and SIGTERM",
    )
    serve.add_argument("--record-capacity", type=int, default=256,
                       help="flight-recorder ring capacity per stream "
                            "(default 256)")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="fault-injector seed (default 0)")
    serve.add_argument("--no-degrade", action="store_true",
                       help="forbid degradation: capacity errors and "
                            "exhausted retries fail the job instead of "
                            "stepping down the ladder")
    serve.add_argument("--max-reshards", type=int, default=None,
                       help="cap within-rung fleet re-shards after device "
                            "loss (0 makes any loss terminal)")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="drop one clustering request into a spool directory"
    )
    submit.add_argument("spool", help="spool directory (created if missing)")
    _add_run_arguments(submit)
    submit.add_argument("--npy", metavar="PATH",
                        help="cluster this saved array instead of "
                             "synthetic data")
    submit.add_argument("--id", help="request id (default: generated)")
    submit.add_argument("--priority", type=int, default=1,
                        help="queue priority, lower runs first (default 1)")
    submit.add_argument("--wait", type=float, metavar="SECONDS",
                        help="poll for the response this long and print it")
    submit.set_defaults(func=_cmd_submit)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a seeded request mix through the service "
             "(BENCH_serve.json)",
    )
    loadgen.add_argument("--requests", type=int, default=24,
                         help="requests to replay (default 24)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="mix seed (default 0)")
    loadgen.add_argument("--workers", type=int, default=2,
                         help="service worker threads (default 2)")
    loadgen.add_argument("--backends", nargs="+", metavar="NAME",
                         choices=sorted(BACKENDS), default=["gpu-fast"],
                         help="backend pool (default gpu-fast)")
    loadgen.add_argument("--datasets", type=int, default=2,
                         help="distinct datasets in the mix (default 2)")
    loadgen.add_argument("--n", type=int, default=600,
                         help="points per dataset (default 600)")
    loadgen.add_argument("--d", type=int, default=8,
                         help="dimensionality (default 8)")
    loadgen.add_argument("--clusters", type=int, default=4,
                         help="planted clusters (default 4)")
    loadgen.add_argument("--run-seeds", type=int, nargs="+", default=[0, 1],
                         help="algorithm seed pool (default 0 1)")
    loadgen.add_argument("--ks", type=int, nargs="+", default=[4],
                         help="k pool (default 4)")
    loadgen.add_argument("--ls", type=int, nargs="+", default=[3, 4, 5],
                         help="l pool (default 3 4 5)")
    loadgen.add_argument("--a", type=int, default=30, help="sample constant A")
    loadgen.add_argument("--b", type=int, default=5, help="medoid constant B")
    loadgen.add_argument("--cache-entries", type=int, default=64,
                         help="result-cache capacity (default 64)")
    loadgen.add_argument("--gpu", choices=sorted(GPU_SPECS),
                         default="gtx1660ti",
                         help="modeled card (default gtx1660ti)")
    loadgen.add_argument("--timeline", action="store_true",
                         help="print the queue/occupancy lanes")
    _add_json_argument(loadgen, "the serve-bench report")
    loadgen.add_argument("--monitor-dir", metavar="DIR",
                         help="also write live monitoring output here "
                              "(inspect with 'repro monitor DIR --once')")
    loadgen.add_argument("--postmortem-dir", metavar="DIR",
                         help="run under a flight recorder; a determinism "
                              "violation dumps a replayable postmortem "
                              "bundle here")
    loadgen.set_defaults(func=_cmd_loadgen)

    postmortem = sub.add_parser(
        "postmortem",
        help="analyze (and optionally replay) a postmortem bundle",
    )
    postmortem.add_argument(
        "bundle",
        help="bundle file, or a directory holding postmortem-*.json "
             "(newest wins)",
    )
    _add_json_argument(postmortem, "the forensic analysis")
    postmortem.add_argument(
        "--replay", action="store_true",
        help="deterministically re-execute the recorded job from the "
             "bundle alone and check it reproduces the recorded failure "
             "(exit 1 when it does not)",
    )
    postmortem.set_defaults(func=_cmd_postmortem)

    info = sub.add_parser("info", help="list backends, datasets, hardware")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Expected failures — bad input files, invalid parameter combos,
    exhausted recovery — exit with code 2 and a one-line actionable
    message; ``--strict`` re-raises them instead.  An interrupted run
    exits 130 (the conventional SIGINT code).

    ``--json PATH`` writes the payload a handler returns after its text;
    with ``--json -`` the text goes to stderr and stdout holds exactly
    one JSON document.
    """
    import contextlib
    import os

    parser = build_parser()
    args = parser.parse_args(argv)
    record_dir = os.environ.get("REPRO_FLIGHT_RECORDER")
    if record_dir:
        # Always-on failure capture for any subcommand: install an
        # ambient flight recorder whose bundles land in $REPRO_FLIGHT_RECORDER.
        from .obs import FlightRecorder, set_current_recorder

        set_current_recorder(FlightRecorder(bundle_dir=record_dir))
    json_path = getattr(args, "json", None)
    try:
        with (contextlib.redirect_stdout(sys.stderr) if json_path == "-"
              else contextlib.nullcontext()):
            outcome = args.func(args)
        code, payload = (
            outcome if isinstance(outcome, tuple) else (outcome, None)
        )
        if json_path and payload is not None:
            _write_json(payload, json_path)
        return code
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return 130
    except (ReproError, OSError) as error:
        if args.strict:
            raise
        print(f"repro: error: {error}", file=sys.stderr)
        print("repro: re-run with --strict for the full traceback",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
