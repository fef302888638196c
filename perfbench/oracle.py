"""Output oracle: every op's result digest against a solo reference.

A reference is the :func:`repro.obs.result_digest` (labels, medoids,
dimensions, cost, refined cost, iterations) of the same request run
alone on the sequential ``proclus`` backend.  The determinism contract
makes every backend, the fleet and the service return those bits.

``references.json`` pins a few references computed at the commit that
defined the benchmark; ``selftest.py`` regenerates them and compares, so
a change to the oracle itself shows.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

REFERENCE_BACKEND = "proclus"
PINNED = Path(__file__).with_name("references.json")
#: Child interpreters that fit references at once.
REFERENCE_WORKERS = 2


def reference_digests(keys, datasets) -> dict:
    """Reference digest per ``(dataset index, seed, k, l)`` key.

    The fits run in up to REFERENCE_WORKERS child interpreters of this file,
    each given its share of the keys on standard input.  Every child is
    waited for, and killed first if anything goes wrong, before this
    returns: no process outlives the call.
    """
    keys = sorted(set(keys))
    if not keys:
        return {}
    workers = min(REFERENCE_WORKERS, len(keys))
    shares = [keys[i::workers] for i in range(workers)]
    children = []
    try:
        for share in shares:
            child = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            children.append(child)
        # Each child reads its whole input before it starts fitting, so
        # the children fit in parallel while later ones are still fed.
        for child, share in zip(children, shares):
            pickle.dump((sys.path, datasets, share), child.stdin)
            child.stdin.close()
        digests = {}
        for child, share in zip(children, shares):
            out = child.stdout.read()
            if child.wait() != 0:
                raise RuntimeError(f"reference child exited {child.returncode}")
            digests.update(zip(share, json.loads(out)))
        return digests
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
            for stream in (child.stdin, child.stdout):
                stream.close()


def _child() -> None:
    """Child side of :func:`reference_digests`: digests as a JSON list."""
    path, datasets, share = pickle.load(sys.stdin.buffer)
    sys.path[:] = path
    json.dump([reference_digest(datasets[dataset], seed, k, l)
               for dataset, seed, k, l in share], sys.stdout)


def reference_digest(data, seed: int, k: int, l: int) -> str:
    import repro
    from repro.obs import result_digest

    return result_digest(
        repro.proclus(data, k=k, l=l, backend=REFERENCE_BACKEND, seed=seed)
    )


def digest(result) -> str:
    from repro.obs import result_digest

    return result_digest(result)


def corrupted(result):
    """A copy of ``result`` with one label changed (negative control)."""
    labels = result.labels.copy()
    labels[0] = labels[0] + 1
    return dataclasses.replace(result, labels=labels)


def load_pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


if __name__ == "__main__":
    _child()
