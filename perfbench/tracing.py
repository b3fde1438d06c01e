"""In-memory span tracer and the wrappers that time each simulator layer.

Every span is opened from this file, around a public call into one layer:

* an engine subclass passed as ``engine=`` (``engine.<backend>``);
* wrappers on the adversary's three per-phase hooks (``adversary.plan``);
* the ``materialize_*`` jam/spoof functions (``jamming.materialize``);
* a quiet-rule subclass passed as ``quiet_rule=`` (``core.quietrule``);
* ``build_topology`` and ``Network`` construction (``topology.build``,
  ``network.build``);
* instance wrappers on ``frontier_reachable`` and ``any_neighbor_in``
  (``topology.frontier``, ``topology.neighbor_query``);
* the trial store's ``get``/``touch``/``put`` (``cache.get``, ``cache.put``).

None of the wrappers draws randomness or changes an argument, so a traced
run must reproduce the untraced run's outcome exactly; the benchmark checks
that.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.core.quietrule import DegreeAwareQuietRule
from repro.experiments.cache import TrialCache
from repro.simulation import fastengine, jamming
from repro.simulation.fastengine import PhaseEngine
from repro.simulation.topology import Topology


@dataclass
class Span:
    """One timed call: ``parent`` indexes the enclosing span (-1 at top level)."""

    name: str
    start: float
    end: float
    parent: int
    run: str


class Tracer:
    """Collects nested spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.run = ""
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(
        self, name: str, fn: Callable[..., Any], count: Optional[str] = None
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; each call also bumps counter ``count``."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                self.add(count)
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        One thread opens every span, so the children of a span never overlap
        and the time they cover is the sum of their durations.
        """

        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        out: Dict[str, float] = {}
        for s, child in zip(self.spans, covered):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - child)
        return out

    def top_level_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def as_json(self) -> Dict[str, object]:
        return {
            "spans": [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans],
            "counts": dict(self.counts),
        }


class TracedPhaseEngine(PhaseEngine):
    """The fast engine, with each phase timed under its topology backend."""

    def __init__(self, network: Any, tracer: Tracer) -> None:
        super().__init__(network)
        self.tracer = tracer
        backend = network.topology.backend
        self.span_name = "engine." + ("singlehop" if backend == "implicit" else backend)

    def run_phase(self, plan: Any, roles: Any, jam_plan: Any, start_slot: int = 0) -> Any:
        tracer = self.tracer
        with tracer.span(self.span_name):
            result = super().run_phase(plan, roles, jam_plan, start_slot)
        tracer.add("engine.phases")
        tracer.add("engine.slots", plan.num_slots)
        tracer.add("jamming.jammed_slots", result.jammed_slots)
        tracer.add("jamming.spoofs", result.spoofed_transmissions)
        return result


@dataclass(frozen=True)
class TracedQuietRule(DegreeAwareQuietRule):
    """The default multi-hop quiet rule, with its budget computation timed."""

    tracer: Any = field(default=None, compare=False, hash=False, repr=False)

    def budgets(self, topology: Topology) -> Any:
        with self.tracer.span("core.quietrule"):
            return super().budgets(topology)


ADVERSARY_HOOKS = ("observe_phase", "plan_phase", "observe_result")


def instrument_adversary(adversary: Any, tracer: Tracer) -> None:
    """Time the adversary's per-phase hooks by shadowing them on the instance."""

    for hook in ADVERSARY_HOOKS:
        setattr(
            adversary,
            hook,
            tracer.wrap("adversary.plan", getattr(adversary, hook), count="adversary.plan_calls"),
        )


def instrument_topology(topology: Topology, tracer: Tracer) -> None:
    """Time the truncation BFS and the relay-retirement neighbour query."""

    topology.frontier_reachable = tracer.wrap(  # type: ignore[method-assign]
        "topology.frontier", topology.frontier_reachable, count="topology.frontier_calls"
    )
    topology.any_neighbor_in = tracer.wrap(  # type: ignore[method-assign]
        "topology.neighbor_query", topology.any_neighbor_in, count="topology.neighbor_query_calls"
    )


_MATERIALIZE = ("materialize_jam_slots", "materialize_spoof_slots")


@contextmanager
def jamming_traced(tracer: Tracer) -> Iterator[None]:
    """Time the jam/spoof materialisation functions while the block runs.

    The fast engine imported them by name, so the wrappers replace both the
    definitions in ``repro.simulation.jamming`` and the engine module's
    references; the originals are restored on exit.
    """

    originals = {name: getattr(jamming, name) for name in _MATERIALIZE}
    try:
        for name, fn in originals.items():
            timed = tracer.wrap("jamming.materialize", fn, count="jamming.calls")
            setattr(jamming, name, timed)
            setattr(fastengine, name, timed)
        yield
    finally:
        for name, fn in originals.items():
            setattr(jamming, name, fn)
            setattr(fastengine, name, fn)


_CACHE_SPANS = {"get": "cache.get", "touch": "cache.get", "put": "cache.put"}


@contextmanager
def cache_traced(tracer: Tracer) -> Iterator[None]:
    """Time trial-store reads (``get`` and the hit's ``touch``) and writes."""

    originals = {name: TrialCache.__dict__[name] for name in _CACHE_SPANS}
    try:
        for name, span_name in _CACHE_SPANS.items():
            setattr(TrialCache, name, tracer.wrap(span_name, originals[name]))
        yield
    finally:
        for name, fn in originals.items():
            setattr(TrialCache, name, fn)
