"""Online per-shard cost model and per-worker capacity weights.

The sweep's work for one row band decomposes into a per-row term (raster
setup, envelope probing) and a per-pair term (every (row, envelope point)
pair contributes one kernel evaluation or bucket update).  So a shard's wall
time is modelled as::

    seconds  ~=  c0  +  c1 * rows  +  c2 * pairs

with one coefficient vector per *engine key* — the engine's registry name,
plus its OpenMP width when it runs more than one thread
(``slam_bucket.numpy``, ``slam_sort.numpy``, ``slam_bucket.native@4``):
engines have wildly different per-pair costs (native is 8-28x cheaper
than the per-row numpy sweep).  ``pairs`` is the band's envelope-pair count
``sum_j |envelope(row_j)|``, computed exactly in O(Y log n) by the planner
(:func:`repro.dist.sched.envelope_profile`) — the same quantity the
``sweep.envelope_points`` counter reports after the fact.

Calibration is online: every completed shard attempt contributes one
``(rows, pairs, seconds)`` sample tagged with its engine and worker.  Until
an engine has enough samples for a least-squares fit, predictions fall back
to a throughput estimate (work units per second, exponentially weighted), so
the very first completed shard of a render already prices the remaining
ones — that is what lets work stealing trigger on a cold coordinator.

Per-worker **capacity** is the worker's observed throughput relative to the
pool median (1.0 = typical, 0.25 = a 4x-throttled straggler).  Before any
sample lands, HELLO-reported CPU counts seed a prior.  Capacities feed the
refinement planner (faster workers get proportionally wider bands) and the
steal trigger (a straggler is "late" relative to pool-normal time, not its
own slow clock).

The model is plain data and persists as JSON (:meth:`CostModel.save` /
:meth:`CostModel.load`), so a coordinator warm-starts from the previous
run's calibration via ``Coordinator(sched_state=...)``.  All methods are
thread-safe; predictions are cheap enough to call from dispatch loops.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque

import numpy as np

__all__ = ["CostModel", "engine_key"]

#: Samples required before a least-squares fit replaces the throughput
#: fallback for an engine.
MIN_FIT_SAMPLES = 8

#: Ring-buffer size per engine: old samples age out so the model tracks
#: machine load drift instead of averaging over it forever.
MAX_SAMPLES = 256

#: EWMA weight for new throughput observations (workers and engines).
EWMA_ALPHA = 0.3

_SCHEMA = 1


def engine_key(spec: dict) -> str:
    """The calibration pool key of an engine wire spec
    (:func:`repro.dist.worker.engine_spec`): the registry name, suffixed
    ``@<threads>`` for a multi-threaded engine.  Distinct keys get distinct
    coefficient vectors.  A malformed spec still gets a key; the worker that
    resolves it reports the error."""
    name, threads = spec.get("name"), spec.get("threads", 1)
    return str(name) if threads == 1 else f"{name}@{threads}"


def _work_units(rows: float, pairs: float) -> float:
    """Scalar work proxy for throughput bookkeeping: one unit per envelope
    pair plus one per row (a row costs at least its setup)."""
    return float(pairs) + float(rows)


class _EngineFit:
    """Per-engine sample ring plus a lazily refitted linear model."""

    __slots__ = ("samples", "coef", "_dirty", "unit_seconds")

    def __init__(self) -> None:
        self.samples: deque[tuple[float, float, float]] = deque(
            maxlen=MAX_SAMPLES
        )
        self.coef: "np.ndarray | None" = None
        self._dirty = False
        # EWMA of seconds per work unit — the pre-fit fallback.
        self.unit_seconds: "float | None" = None

    def observe(self, rows: float, pairs: float, seconds: float) -> None:
        self.samples.append((rows, pairs, seconds))
        self._dirty = True
        units = _work_units(rows, pairs)
        if units > 0 and seconds > 0:
            per_unit = seconds / units
            if self.unit_seconds is None:
                self.unit_seconds = per_unit
            else:
                self.unit_seconds += EWMA_ALPHA * (
                    per_unit - self.unit_seconds
                )

    def _refit(self) -> None:
        self._dirty = False
        if len(self.samples) < MIN_FIT_SAMPLES:
            self.coef = None
            return
        data = np.asarray(self.samples, dtype=np.float64)
        a = np.column_stack(
            [np.ones(len(data)), data[:, 0], data[:, 1]]
        )
        try:
            coef, *_ = np.linalg.lstsq(a, data[:, 2], rcond=None)
        except np.linalg.LinAlgError:
            self.coef = None
            return
        # Negative marginal costs are fit noise (collinear samples); clamp
        # so predictions stay monotone in band size — refinement needs that.
        self.coef = np.maximum(coef, 0.0)

    def predict(self, rows: float, pairs: float) -> "float | None":
        if self._dirty:
            self._refit()
        if self.coef is not None:
            return float(
                self.coef[0] + self.coef[1] * rows + self.coef[2] * pairs
            )
        if self.unit_seconds is not None:
            return self.unit_seconds * _work_units(rows, pairs)
        return None

    def to_dict(self) -> dict:
        if self._dirty:
            self._refit()
        return {
            "samples": [list(s) for s in self.samples],
            "unit_seconds": self.unit_seconds,
            "coef": None if self.coef is None else [float(c) for c in self.coef],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_EngineFit":
        fit = cls()
        for row in data.get("samples", []) or []:
            if isinstance(row, (list, tuple)) and len(row) == 3:
                fit.samples.append(tuple(float(v) for v in row))
        unit = data.get("unit_seconds")
        fit.unit_seconds = float(unit) if unit is not None else None
        fit._dirty = bool(fit.samples)
        return fit


class _WorkerStats:
    """Observed throughput (work units / second) for one worker address."""

    __slots__ = ("throughput", "samples", "cpus")

    def __init__(self) -> None:
        self.throughput: "float | None" = None
        self.samples = 0
        self.cpus: "int | None" = None

    def observe(self, units: float, seconds: float) -> None:
        if seconds <= 0 or units <= 0:
            return
        rate = units / seconds
        self.samples += 1
        if self.throughput is None:
            self.throughput = rate
        else:
            self.throughput += EWMA_ALPHA * (rate - self.throughput)

    def to_dict(self) -> dict:
        return {
            "throughput": self.throughput,
            "samples": self.samples,
            "cpus": self.cpus,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "_WorkerStats":
        stats = cls()
        thr = data.get("throughput")
        stats.throughput = float(thr) if thr is not None else None
        stats.samples = int(data.get("samples", 0) or 0)
        cpus = data.get("cpus")
        stats.cpus = int(cpus) if cpus else None
        return stats


class CostModel:
    """Thread-safe, persistable shard-cost and worker-capacity model."""

    def __init__(self, path: "str | None" = None) -> None:
        self._lock = threading.Lock()
        self._engines: dict[str, _EngineFit] = {}
        self._workers: dict[str, _WorkerStats] = {}
        if path is not None:
            self.load(path)

    # -- calibration -----------------------------------------------------

    def hello(self, worker: str, cpus: "int | None") -> None:
        """Record a worker's HELLO-reported specs (capacity prior)."""
        with self._lock:
            stats = self._workers.setdefault(worker, _WorkerStats())
            if cpus:
                stats.cpus = int(cpus)

    def observe(
        self,
        engine: str,
        worker: str,
        rows: float,
        pairs: float,
        seconds: float,
    ) -> None:
        """Feed one completed shard attempt into the model."""
        if rows <= 0 or seconds <= 0:
            return
        with self._lock:
            self._engines.setdefault(engine, _EngineFit()).observe(
                rows, pairs, seconds
            )
            self._workers.setdefault(worker, _WorkerStats()).observe(
                _work_units(rows, pairs), seconds
            )

    # -- prediction ------------------------------------------------------

    def predict_seconds(
        self,
        engine: str,
        rows: float,
        pairs: float,
        worker: "str | None" = None,
    ) -> "float | None":
        """Predicted wall seconds for a band, or ``None`` when the model has
        no samples for the engine yet.  Without ``worker`` the prediction is
        *pool-normal* (a typical worker's time); with one, it is scaled by
        that worker's capacity."""
        with self._lock:
            fit = self._engines.get(engine)
            if fit is None:
                return None
            base = fit.predict(rows, pairs)
            if base is None:
                return None
            if worker is not None:
                base /= self._capacity_locked(worker)
            return max(base, 0.0)

    def row_cost_units(
        self, engine: str, profile: np.ndarray
    ) -> np.ndarray:
        """Relative per-row cost for refinement, from the per-row envelope
        counts ``profile``.  Uses the fitted marginal coefficients when
        available; otherwise each row costs its envelope size plus one (the
        same rows+pairs proxy the throughput fallback prices)."""
        profile = np.asarray(profile, dtype=np.float64)
        with self._lock:
            fit = self._engines.get(engine)
            if fit is not None:
                if fit._dirty:
                    fit._refit()
                if fit.coef is not None and (
                    fit.coef[1] > 0 or fit.coef[2] > 0
                ):
                    return fit.coef[1] + fit.coef[2] * profile
        return profile + 1.0

    # -- capacities ------------------------------------------------------

    def _capacity_locked(self, worker: str) -> float:
        stats = self._workers.get(worker)
        if stats is None:
            return 1.0
        observed = [
            s.throughput
            for s in self._workers.values()
            if s.throughput is not None
        ]
        if stats.throughput is not None and observed:
            median = float(np.median(observed))
            if median > 0:
                return max(stats.throughput / median, 1e-3)
        # No throughput sample yet: fall back to the HELLO cpu-count prior
        # relative to the pool median.
        cpus = [s.cpus for s in self._workers.values() if s.cpus]
        if stats.cpus and cpus:
            median = float(np.median(cpus))
            if median > 0:
                return max(stats.cpus / median, 1e-3)
        return 1.0

    def capacity(self, worker: str) -> float:
        """Relative speed of ``worker`` (pool median = 1.0)."""
        with self._lock:
            return self._capacity_locked(worker)

    def capacities(self, workers: list[str]) -> list[float]:
        with self._lock:
            return [self._capacity_locked(w) for w in workers]

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "schema": _SCHEMA,
                "engines": {
                    k: f.to_dict() for k, f in self._engines.items()
                },
                "workers": {
                    k: s.to_dict() for k, s in self._workers.items()
                },
            }

    def from_dict(self, data: dict) -> None:
        if not isinstance(data, dict) or data.get("schema") != _SCHEMA:
            return
        engines = {
            str(k): _EngineFit.from_dict(v)
            for k, v in (data.get("engines") or {}).items()
            if isinstance(v, dict)
        }
        workers = {
            str(k): _WorkerStats.from_dict(v)
            for k, v in (data.get("workers") or {}).items()
            if isinstance(v, dict)
        }
        with self._lock:
            self._engines = engines
            self._workers = workers

    def save(self, path: str) -> None:
        """Atomically persist calibration state as JSON."""
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def load(self, path: str) -> bool:
        """Warm-start from a previous :meth:`save`.  Missing or corrupt
        files are ignored (a cold model is always a valid state)."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return False
        self.from_dict(data)
        return True
