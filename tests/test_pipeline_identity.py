"""Whole-pipeline identity: every backend's full output, pinned.

Each backend in :data:`repro.BACKENDS` fits one small generated dataset
and the test hashes everything the run decides or charges: labels,
medoids, dimensions, cost, refined cost, iterations, the counter dict
and the modeled seconds.  The pinned digests were taken before the host
numerics moved to the column-major layout of :mod:`repro.core.distance`;
any change to the host arithmetic that moves a single bit of any
backend's output fails here, naming the backend.

To re-pin after a deliberate change of results, run this module as a
script (``PYTHONPATH=src python tests/test_pipeline_identity.py``) and
paste its output over :data:`PINNED`.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import BACKENDS, proclus
from repro.data.normalize import minmax_normalize
from repro.data.synthetic import generate_subspace_data
from repro.params import ProclusParams

SEED = 5


def _dataset() -> np.ndarray:
    dataset = generate_subspace_data(
        n=900, d=12, n_clusters=4, subspace_dims=4, std=2.0, seed=21
    )
    return minmax_normalize(dataset.data)


def _params() -> ProclusParams:
    return ProclusParams(k=4, l=3, a=30, b=5)


def pipeline_digest(result) -> str:
    """sha256 over the run's output and its exact counters."""
    stats = result.stats
    record = {
        "labels": hashlib.sha256(
            np.ascontiguousarray(result.labels, dtype=np.int64).tobytes()
        ).hexdigest(),
        "medoids": [int(m) for m in result.medoids],
        "dimensions": [list(map(int, dims)) for dims in result.dimensions],
        "cost": float(result.cost).hex(),
        "refined_cost": float(result.refined_cost).hex(),
        "iterations": int(result.iterations),
        "counters": {
            name: float(value).hex()
            for name, value in sorted(stats.counters.items())
        },
        "modeled_seconds": float(stats.modeled_seconds).hex(),
    }
    return hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()


def run_backend(backend: str, data: np.ndarray):
    return proclus(data, backend=backend, seed=SEED, params=_params())


#: Backend -> digest, taken at the row-major host numerics.
PINNED = {
    'fast': '922078ae9f37365e876ec2f061e71be1a73a66ea457376f8f825bd6de3e299a8',
    'fast-dist-only': 'd82db8e67c964ce2255e457abd61d3febc31ec9e0b38d42fcc67ab908a2ed1b3',
    'fast-h-only': '414f6a7339c9b714bd838acfdada1f666d2912229f11d49fc28df25a3fd4ee19',
    'fast-star': '922078ae9f37365e876ec2f061e71be1a73a66ea457376f8f825bd6de3e299a8',
    'fleet-gpu': 'd2a7c839e2804403582416073572947316a8e3c46b6ad7037ef5d6d05c4d048b',
    'fleet-gpu-fast': '0d52858c82c4ae8e34a7087822503363b92cad7e7744cead78d44271c6c31432',
    'fleet-gpu-fast-star': '0d52858c82c4ae8e34a7087822503363b92cad7e7744cead78d44271c6c31432',
    'gpu': 'b088daf35b3f6e9ac40b5f8f79ba496bfe8c8cd1b226cfd94e3db0c2dbaeb305',
    'gpu-fast': 'f3571639c94f491d8b1de516029cab87ec6e0239ffb1b9f033283548f0c97596',
    'gpu-fast-dist-only': 'df37362afa6108a58add09d9caa6d3da8bee2e567a96de592c532c9c58901e52',
    'gpu-fast-h-only': '77fd9fd2b87efedc7248b7adfe6a375c7955e7988df2a749ed7a7ec2ecc23209',
    'gpu-fast-star': 'f3571639c94f491d8b1de516029cab87ec6e0239ffb1b9f033283548f0c97596',
    'multicore': '00a1a9e4f3ec9d66f2318af3fd307713e1828146717fc4be9a9b315d1073df04',
    'multicore-fast': '6c8842dcac2be21149b2cdef6ff74968cabe5a502451697504b1e043705ee04d',
    'multicore-fast-star': '6c8842dcac2be21149b2cdef6ff74968cabe5a502451697504b1e043705ee04d',
    'proclus': 'a440a0ffe13244d0c584c56e9ad5615244c22d7eadb50351141bad4ec83e61e0',
}


@pytest.fixture(scope="module")
def data():
    return _dataset()


def test_every_backend_is_pinned():
    assert sorted(PINNED) == sorted(BACKENDS)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_pipeline_output_matches_pin(backend, data):
    assert pipeline_digest(run_backend(backend, data)) == PINNED[backend]


if __name__ == "__main__":  # pragma: no cover - re-pinning helper
    pinned_data = _dataset()
    for name in sorted(BACKENDS):
        print(f"    {name!r}: {pipeline_digest(run_backend(name, pinned_data))!r},")
