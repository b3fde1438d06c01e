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
    ("gilbert", "fast", 2000, 1): {"alice": 2346.0, "adversary": 0.0, "node_mean": 2471.8545, "node_max": 4808.0, "node_total": 4943709.0, "informed": 2000, "terminated_uninformed": 0, "slots": 58074, "rounds": 9, "cap": False, "nodes": "21809356dff2df70"},
    ("gilbert", "fast", 2000, 3): {"alice": 2360.0, "adversary": 0.0, "node_mean": 2045.317, "node_max": 5476.0, "node_total": 4090634.0, "informed": 2000, "terminated_uninformed": 0, "slots": 58352, "rounds": 9, "cap": False, "nodes": "1fae0d91622dbee2"},
    ("gilbert", "fast", 2000, 7): {"alice": 2363.0, "adversary": 0.0, "node_mean": 2460.6625, "node_max": 5127.0, "node_total": 4921325.0, "informed": 2000, "terminated_uninformed": 0, "slots": 58424, "rounds": 9, "cap": False, "nodes": "89084bc52f035bbb"},
    ("scale_free", "fast", 2000, 1): {"alice": 2372.0, "adversary": 0.0, "node_mean": 657.0865, "node_max": 3153.0, "node_total": 1314173.0, "informed": 2000, "terminated_uninformed": 0, "slots": 55832, "rounds": 9, "cap": False, "nodes": "b49330047d150f24"},
    ("scale_free", "fast", 2000, 3): {"alice": 2378.0, "adversary": 0.0, "node_mean": 335.0795, "node_max": 356.0, "node_total": 670159.0, "informed": 2000, "terminated_uninformed": 0, "slots": 53893, "rounds": 9, "cap": False, "nodes": "fcaf918baa029476"},
    ("scale_free", "fast", 2000, 7): {"alice": 2363.0, "adversary": 0.0, "node_mean": 238.5445, "node_max": 1006.0, "node_total": 477089.0, "informed": 2000, "terminated_uninformed": 0, "slots": 54579, "rounds": 9, "cap": False, "nodes": "1277b430f6b3ceb3"},
    ("subcritical", "fast", 2000, 1): {"alice": 2260.0, "adversary": 0.0, "node_mean": 1040.0115, "node_max": 33699.0, "node_total": 2080023.0, "informed": 66, "terminated_uninformed": 1934, "slots": 537847, "rounds": 11, "cap": False, "nodes": "1554a280391cf9f9"},
    ("subcritical", "fast", 2000, 3): {"alice": 2333.0, "adversary": 0.0, "node_mean": 1134.0765, "node_max": 20928.0, "node_total": 2268153.0, "informed": 28, "terminated_uninformed": 1972, "slots": 247641, "rounds": 10, "cap": False, "nodes": "bb34fc0c19b428a1"},
    ("subcritical", "fast", 2000, 7): {"alice": 2362.0, "adversary": 0.0, "node_mean": 583.0785, "node_max": 1483.0, "node_total": 1166157.0, "informed": 3, "terminated_uninformed": 1997, "slots": 53760, "rounds": 9, "cap": False, "nodes": "039cb65697aa465a"},
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
