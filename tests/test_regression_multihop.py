"""Regression: multi-hop runs and realised radio graphs are pinned bit for bit.

The rows below were captured from the code that still built the CSR
neighbour lists with ``np.lexsort``/``np.unique``, walked every truncation
BFS with a full ``np.unique`` per level, and retired relays through
``Topology.any_neighbor_in`` after every phase.  Any later rewrite of those
graph kernels must reproduce them exactly: the realised ``indptr``/``indices``
arrays (pinned by sha256), every per-node informed slot and termination round
(pinned by digest), and the run-level counts and costs.

* Fast-engine rows cover a super-critical Gilbert graph, a scale-free graph,
  and a sub-critical Gilbert graph under :class:`DegreeAwareQuietRule`, the
  case that exercises cap-aware truncation and relay retirement hardest.
* Slot-engine rows pin the same protocol at ``n = 64`` against the
  reference semantics.

The fast rows were re-captured once, when the fast engine's sampler became
the geometric-gap walk and its informed stop a geometric index into each
listener's good slots; that moved its random stream.  The slot rows and the
CSR digests were not touched.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.broadcast import MultiHopBroadcast
from repro.core.quietrule import DegreeAwareQuietRule
from repro.simulation import SimulationConfig, TopologySpec
from repro.simulation.topology import (
    GilbertGraph,
    ScaleFreeGilbert,
    gilbert_connectivity_radius,
)


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def _topology(kind: str, n: int) -> TopologySpec:
    if kind == "gilbert":
        return TopologySpec.gilbert()
    if kind == "subcritical":
        return TopologySpec.gilbert(radius=0.7 * gilbert_connectivity_radius(n))
    return TopologySpec.scale_free()


def run_snapshot(kind: str, engine: str, n: int, seed: int) -> dict:
    config = SimulationConfig(n=n, seed=seed, topology=_topology(kind, n))
    protocol = MultiHopBroadcast(config, engine=engine, quiet_rule=DegreeAwareQuietRule())
    outcome = protocol.run()
    state = protocol.final_state
    snapshot = protocol.network.cost_snapshot()
    snapshot.update(
        informed=outcome.delivery.informed,
        terminated_uninformed=outcome.delivery.terminated_uninformed,
        slots=outcome.delivery.slots_elapsed,
        rounds=outcome.delivery.rounds_executed,
        cap=outcome.terminated_by_cap,
        nodes=_digest(state.informed_at_slot, state.terminated_at_round),
    )
    return snapshot


# (kind, engine, n, seed) -> snapshot captured before the graph-kernel rewrite.
GOLDEN = {
    ("gilbert", "fast", 2000, 1): {"alice": 2383.0, "adversary": 0.0, "node_mean": 2379.051, "node_max": 4532.0, "node_total": 4758102.0, "informed": 2000, "terminated_uninformed": 0, "slots": 57742, "rounds": 9, "cap": False, "nodes": "bd50e349ee2584b1"},
    ("gilbert", "fast", 2000, 3): {"alice": 2273.0, "adversary": 0.0, "node_mean": 2702.0365, "node_max": 4941.0, "node_total": 5404073.0, "informed": 2000, "terminated_uninformed": 0, "slots": 58168, "rounds": 9, "cap": False, "nodes": "54dd04f0075230c8"},
    ("gilbert", "fast", 2000, 7): {"alice": 2377.0, "adversary": 0.0, "node_mean": 1781.9125, "node_max": 3835.0, "node_total": 3563825.0, "informed": 2000, "terminated_uninformed": 0, "slots": 57088, "rounds": 9, "cap": False, "nodes": "f6b4244b998f7753"},
    ("scale_free", "fast", 2000, 1): {"alice": 2339.0, "adversary": 0.0, "node_mean": 839.425, "node_max": 2492.0, "node_total": 1678850.0, "informed": 2000, "terminated_uninformed": 0, "slots": 55027, "rounds": 9, "cap": False, "nodes": "769500ac03836a4e"},
    ("scale_free", "fast", 2000, 3): {"alice": 2437.0, "adversary": 0.0, "node_mean": 412.548, "node_max": 1480.0, "node_total": 825096.0, "informed": 2000, "terminated_uninformed": 0, "slots": 54656, "rounds": 9, "cap": False, "nodes": "acd356891ea570b2"},
    ("scale_free", "fast", 2000, 7): {"alice": 2381.0, "adversary": 0.0, "node_mean": 572.1325, "node_max": 1388.0, "node_total": 1144265.0, "informed": 2000, "terminated_uninformed": 0, "slots": 54984, "rounds": 9, "cap": False, "nodes": "53ef581764f03783"},
    ("subcritical", "fast", 2000, 1): {"alice": 2312.0, "adversary": 0.0, "node_mean": 1084.8045, "node_max": 17013.0, "node_total": 2169609.0, "informed": 66, "terminated_uninformed": 1934, "slots": 113064, "rounds": 9, "cap": False, "nodes": "f039d25c118d9834"},
    ("subcritical", "fast", 2000, 3): {"alice": 2406.0, "adversary": 0.0, "node_mean": 815.9235, "node_max": 25331.0, "node_total": 1631847.0, "informed": 28, "terminated_uninformed": 1972, "slots": 327409, "rounds": 10, "cap": False, "nodes": "a7a0113c575d15c8"},
    ("subcritical", "fast", 2000, 7): {"alice": 2381.0, "adversary": 0.0, "node_mean": 592.8295, "node_max": 21372.0, "node_total": 1185659.0, "informed": 3, "terminated_uninformed": 1997, "slots": 337428, "rounds": 11, "cap": False, "nodes": "b8b7986bd51e9a8e"},
    ("gilbert", "slot", 64, 3): {"alice": 750.0, "adversary": 0.0, "node_mean": 8.59375, "node_max": 80.0, "node_total": 550.0, "informed": 64, "terminated_uninformed": 0, "slots": 6735, "rounds": 7, "cap": False, "nodes": "bba197e56eee90da"},
    ("gilbert", "slot", 64, 11): {"alice": 793.0, "adversary": 0.0, "node_mean": 24.46875, "node_max": 104.0, "node_total": 1566.0, "informed": 64, "terminated_uninformed": 0, "slots": 6760, "rounds": 7, "cap": False, "nodes": "24ac7c38fef7a0b0"},
    ("scale_free", "slot", 64, 3): {"alice": 750.0, "adversary": 0.0, "node_mean": 16.4375, "node_max": 58.0, "node_total": 1052.0, "informed": 64, "terminated_uninformed": 0, "slots": 6750, "rounds": 7, "cap": False, "nodes": "b6cb531d7cfee7db"},
    ("scale_free", "slot", 64, 11): {"alice": 793.0, "adversary": 0.0, "node_mean": 18.234375, "node_max": 101.0, "node_total": 1167.0, "informed": 64, "terminated_uninformed": 0, "slots": 6757, "rounds": 7, "cap": False, "nodes": "a81972c9d21614e3"},
    ("subcritical", "slot", 64, 3): {"alice": 750.0, "adversary": 0.0, "node_mean": 132.578125, "node_max": 640.0, "node_total": 8485.0, "informed": 1, "terminated_uninformed": 63, "slots": 6717, "rounds": 7, "cap": False, "nodes": "437576fbda686549"},
    ("subcritical", "slot", 64, 11): {"alice": 793.0, "adversary": 0.0, "node_mean": 274.09375, "node_max": 639.0, "node_total": 17542.0, "informed": 5, "terminated_uninformed": 59, "slots": 6717, "rounds": 7, "cap": False, "nodes": "3851e4fb3a3f7bf8"},
}

# kind -> (nnz, sha256 of indptr then indices) for the graph realised at n = 2000.
CSR_GOLDEN = {
    "gilbert": (57310, "af22bb87a565859f0f250aaa806816674d9703ae83085d04901c5b0037a3c03a"),
    "scale_free": (162530, "6ee75f3e0ec11da2998a7856b8f8b5fff7b6de707e439f39966478d6c017f6ba"),
}


def _realise(kind: str) -> GilbertGraph | ScaleFreeGilbert:
    rng = np.random.default_rng(20240601)
    n = 2000
    if kind == "gilbert":
        return GilbertGraph.sample(n, 2.0 * gilbert_connectivity_radius(n), rng)
    return ScaleFreeGilbert.sample(n, 2.0, gilbert_connectivity_radius(n), rng)


@pytest.mark.parametrize("kind,engine,n,seed", sorted(GOLDEN))
def test_multihop_run_matches_golden(kind, engine, n, seed):
    assert run_snapshot(kind, engine, n, seed) == GOLDEN[(kind, engine, n, seed)]


@pytest.mark.parametrize("kind", sorted(CSR_GOLDEN))
def test_realised_csr_matches_golden(kind):
    csr = _realise(kind).neighbor_csr()
    assert csr.indptr.dtype == np.int64 and csr.indices.dtype == np.int32
    got = (csr.nnz, hashlib.sha256(csr.indptr.tobytes() + csr.indices.tobytes()).hexdigest())
    assert got == CSR_GOLDEN[kind]
