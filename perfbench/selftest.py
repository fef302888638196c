"""Self-tests of the benchmark itself.

Run from the repository root (takes a few minutes)::

    python3 perfbench/selftest.py                     # every check
    python3 perfbench/selftest.py --write-references  # re-pin references.json

Checks:

* **references** — regenerate the pinned solo references of the
  sequential ``proclus`` backend and compare them to ``references.json``;
* **exact repeat** — two runs of the same seed agree bit for bit on
  ``modeled_s`` and on every metric in :data:`layers.EXACT`;
* **delay control** — a fixed busy-wait added to
  ``HardwareModel.account`` through the tracing patch makes
  ``hardware.account_s`` the top mover of the traced run, and raises
  ``wall_p50_s`` more on ``fleet4-gpu-fast`` than on ``solo-gpu-fast``;
* **corrupt control** — one corrupted output makes the run fail:
  ``failed > 0`` and a nonzero exit;
* **provenance** — ``BENCHMARK.json`` names the workloads and metrics the
  code defines, and each ``why`` states its loop and client count, data
  shape, seed use and latency limit;
* **no sources** — in a directory holding only ``BENCHMARK.json`` and the
  benchmark's files the command exits nonzero without a result.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import oracle
import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(Path(__file__).with_name("run.py"))]
SHORT_SECONDS = 6
SEED = 7
#: Busy-wait added to every HardwareModel.account call by the control.
ACCOUNT_DELAY_S = 100e-6
PINNED_FITS = 4
PINNED_REQUESTS = 4


@functools.cache
def bench(workload: str, trace: int, *extra: str, copy: int = 0):
    """Run the benchmark; returns (exit code, result dict or None).

    Runs are memoized; ``copy`` asks for another run of the same command.
    """
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(SEED),
               "--seconds", str(SHORT_SECONDS), "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result


def values(result) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def pinned_references() -> dict:
    """The first fit seeds and serve requests of workload seed 0."""
    fit_data = wl.make_dataset(wl.derive(wl.CATALOG_SEED, 0))
    fits = {
        str(seed): oracle.reference_digest(fit_data, seed, wl.K, wl.L)
        for seed in wl.derive(0, 2, wl.FIT_SEEDS)[:PINNED_FITS]
    }
    datasets = [wl.make_dataset(wl.derive(wl.CATALOG_SEED, 10 + i))
                for i in range(wl.SERVE_DATASETS)]
    arrivals = wl.serve_arrivals(0)
    requests = []
    while len(requests) < PINNED_REQUESTS:
        for request in next(arrivals):
            requests.append([*request.key, oracle.reference_digest(
                datasets[request.dataset], request.seed, request.k, request.l
            )])
    return {"workload_seed": 0, "backend": oracle.REFERENCE_BACKEND,
            "fits": fits, "requests": requests}


def check_references() -> list[str]:
    if pinned_references() != oracle.load_pinned():
        return ["regenerated references differ from references.json"]
    return []


def check_exact_repeat() -> list[str]:
    problems = []
    for workload in ("solo-gpu-fast", "fleet4-gpu-fast"):
        for trace, names in ((0, ("modeled_s",)), (1, layers.EXACT)):
            first, second = (values(bench(workload, trace, copy=copy)[1])
                             for copy in (0, 1))
            for name in names:
                if first[name] != second[name]:
                    problems.append(
                        f"{workload}: {name} drifted: {first[name]!r} != "
                        f"{second[name]!r}"
                    )
    return problems


def check_delay_control() -> list[str]:
    problems, rises = [], {}
    delay = f"hardware.account={ACCOUNT_DELAY_S}"
    for workload in ("solo-gpu-fast", "fleet4-gpu-fast"):
        base = values(bench(workload, 1)[1])
        slow = values(bench(workload, 1, "--inject-delay", delay)[1])
        movers = sorted(
            (slow[name] - base[name], name)
            for name, unit in layers.PER_LAYER if unit == "s/op"
        )
        top = movers[-1][1]
        if top != "hardware.account_s":
            problems.append(f"{workload}: top mover is {top}, not "
                            f"hardware.account_s ({movers[-3:]})")
        base = values(bench(workload, 0)[1])["wall_p50_s"]
        slow = values(bench(workload, 0, "--inject-delay", delay)[1])["wall_p50_s"]
        rises[workload] = slow - base
        print(f"  {workload}: wall_p50_s {base:.4f} -> {slow:.4f} s, "
              f"top mover {top}")
    if not rises["fleet4-gpu-fast"] > rises["solo-gpu-fast"]:
        problems.append(f"wall_p50_s rose no more on fleet than solo: {rises}")
    return problems


def check_corrupt_control() -> list[str]:
    code, result = bench("solo-gpu-fast", 0, "--corrupt-output")
    if code == 0 or result is None or result["failed"] < 1 or result["correct"]:
        return [f"corrupted output not caught: exit {code}, result {result}"]
    return []


def check_provenance() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != run.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != layers.PER_LAYER:
        problems.append("per_layer metrics differ from layers.PER_LAYER")
    for entry in spec["workloads"]:
        workload = wl.WORKLOADS.get(entry["name"])
        if workload is None:
            continue
        facts = ["closed loop", "1 client", f"n={wl.N}", f"d={wl.D}",
                 f"limit {workload.latency_limit_s:g}s", "--seed"]
        missing = [fact for fact in facts if fact not in entry["why"]]
        if missing:
            problems.append(f"{entry['name']}: why lacks {missing}")
    return problems


def check_no_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solo-gpu-fast",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or done.stdout.strip():
        return [f"no-sources run exited {done.returncode} with output "
                f"{done.stdout.strip()[:80]!r}"]
    return []


CHECKS = {
    "references": check_references,
    "provenance": check_provenance,
    "no sources": check_no_sources,
    "corrupt control": check_corrupt_control,
    "exact repeat": check_exact_repeat,
    "delay control": check_delay_control,
}


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    if "--write-references" in argv:
        oracle.PINNED.write_text(
            json.dumps(pinned_references(), indent=1) + "\n", encoding="utf-8"
        )
        return 0
    failed = 0
    for name, check in CHECKS.items():
        print(f"{name} ...", flush=True)
        problems = check()
        for problem in problems:
            print(f"  FAIL {problem}")
        print(f"  {'FAIL' if problems else 'ok'}", flush=True)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
