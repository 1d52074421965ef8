"""Deterministic discrete-event workload simulation for the serving stack.

The serving layer (:mod:`repro.serve`) can render, cache, degrade, window,
and shed — but none of that says what traffic it *sustains*.  This package
answers that with simulation instead of wall-clock load generation: a
seeded, virtual-clocked event loop replays realistic map-service workloads
(Zipf tile popularity, zoom/pan exploration sessions, flash crowds,
timestamped ingest, diurnal load curves) against a real in-process
:class:`~repro.serve.TileService`, producing byte-identical traces and
metrics for a given (scenario, seed) on any host at any speed.

Layout mirrors the pipeline: :mod:`~repro.simload.events` (virtual clock +
event loop) → :mod:`~repro.simload.arrivals` (when requests come) →
:mod:`~repro.simload.sessions` (which tiles they want) →
:mod:`~repro.simload.scenarios` (declarative workload specs) →
:mod:`~repro.simload.runner` (the simulation itself, on a virtual render
pool) → :mod:`~repro.simload.metrics` (trace digests, latency/shed
rollups, and the capacity knee).  ``repro simload`` on the command line and
``benchmarks/bench_simload.py`` drive it; ``docs/simload.md`` explains the
determinism contract and sweep methodology.
"""

from .arrivals import ArrivalSpec, arrival_times, peak_rate, rate_at
from .events import EventLoop, SimClock
from .metrics import (
    RequestRecord,
    find_knee,
    summarize,
    trace_digest,
    trace_lines,
)
from .scenarios import (
    SCENARIOS,
    CostModel,
    IngestSpec,
    Scenario,
    get_scenario,
    list_scenarios,
)
from .runner import SimResult, SimulationRunner, run_scenario, sweep
from .sessions import SessionSpec, SessionWalk, TilePopularity

__all__ = [
    "ArrivalSpec",
    "arrival_times",
    "peak_rate",
    "rate_at",
    "EventLoop",
    "SimClock",
    "RequestRecord",
    "find_knee",
    "summarize",
    "trace_digest",
    "trace_lines",
    "SCENARIOS",
    "CostModel",
    "IngestSpec",
    "Scenario",
    "get_scenario",
    "list_scenarios",
    "SimResult",
    "SimulationRunner",
    "run_scenario",
    "sweep",
    "SessionSpec",
    "SessionWalk",
    "TilePopularity",
]
