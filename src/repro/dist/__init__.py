"""Fault-tolerant sharded KDV rendering across worker processes.

The distributed tier of the stack: a :mod:`deterministic shard planner
<repro.dist.plan>`, a :mod:`framed socket protocol <repro.dist.proto>`,
:mod:`worker processes <repro.dist.worker>`, the fault-tolerant
:mod:`coordinator <repro.dist.coordinator>`, the :mod:`cost-model scheduler
<repro.dist.sched>` (refined shard plans, work stealing, capacity weights),
and :mod:`local launch helpers <repro.dist.launch>`.  Reached from the
public API as ``compute_kdv(..., backend="dist")`` and from the CLI as
``repro dist`` / ``repro dist-worker``; ``docs/distributed.md`` and
``docs/scheduling.md`` are the narrative guides.
"""

from .coordinator import (
    Coordinator,
    get_default_coordinator,
    parse_worker_addrs,
    resolve_coordinator,
    set_default_coordinator,
)
from .errors import (
    ConnectionClosed,
    DistError,
    DistTimeout,
    ProtocolError,
    WorkerLaunchError,
)
from .launch import LocalWorker, LocalWorkerPool, launch_local_workers
from .plan import Shard, ShardPlan, plan_shards
from .sched import CostModel, RenderReport, plan_shards_cost
from .worker import WorkerServer, compute_shard, engine_spec, resolve_engine

__all__ = [
    "Coordinator",
    "set_default_coordinator",
    "get_default_coordinator",
    "resolve_coordinator",
    "parse_worker_addrs",
    "DistError",
    "ProtocolError",
    "ConnectionClosed",
    "DistTimeout",
    "WorkerLaunchError",
    "LocalWorker",
    "LocalWorkerPool",
    "launch_local_workers",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "CostModel",
    "RenderReport",
    "plan_shards_cost",
    "WorkerServer",
    "compute_shard",
    "engine_spec",
    "resolve_engine",
]
