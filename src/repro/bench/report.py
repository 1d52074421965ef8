"""Machine-readable benchmark reports.

Every benchmark module writes, next to its paper-shaped ``.txt`` table, a
schema-versioned ``BENCH_<name>.json`` so results can be diffed across
commits, plotted, or checked in CI without scraping text.  The JSON carries
enough provenance to reproduce the run: git SHA, host info, the
``REPRO_BENCH_*`` knobs in effect, wall-clock per cell, and (when the run
attached a :class:`~repro.obs.Recorder`) the full per-phase recorder dump.

Timeout cells (the paper's "> 14400" entries, represented in memory by the
:data:`~repro.bench.harness.TIMEOUT` infinity sentinel) are encoded as
``{"value": null, "timeout": true}`` — the files stay strict JSON, which has
no infinity literal.

See ``docs/benchmarks.md`` for the full schema reference.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Mapping

from .harness import TIMEOUT

__all__ = [
    "BENCH_REPORT_SCHEMA",
    "BENCH_REPORT_VERSION",
    "BenchReport",
    "git_revision",
    "host_info",
    "bench_env",
    "validate_report",
    "load_report",
]

#: Schema identifier embedded in every report file.
BENCH_REPORT_SCHEMA = "repro.bench.report"
#: Bump when the report layout changes incompatibly.
BENCH_REPORT_VERSION = 1

#: The environment knobs that shape a benchmark run; recorded verbatim so a
#: report is interpretable without the shell history that produced it.
_ENV_KNOBS = (
    "REPRO_BENCH_SCALE",
    "REPRO_BENCH_RESOLUTION",
    "REPRO_BENCH_BUDGET",
    "REPRO_BENCH_MAX_CELL",
    "REPRO_BENCH_PARALLEL_RESOLUTION",
    "REPRO_BENCH_PARALLEL_N",
    "REPRO_BENCH_SERVE_N",
    "REPRO_BENCH_SERVE_REQUESTS",
    "REPRO_BENCH_SERVE_CLIENTS",
    "REPRO_BENCH_SERVE_TILE",
    "REPRO_BENCH_SERVE_SEED",
    "REPRO_BENCH_SIMLOAD_SCENARIO",
    "REPRO_BENCH_SIMLOAD_SEED",
    "REPRO_BENCH_SIMLOAD_DURATION",
)


def git_revision(cwd: "str | Path | None" = None) -> dict[str, Any]:
    """``{"sha": ..., "dirty": ...}`` of the enclosing checkout.

    Benchmarks may run outside a git checkout (an sdist, a container);
    both fields are ``None`` then rather than failing the report.
    """
    base = str(cwd) if cwd is not None else str(Path(__file__).resolve().parent)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=base, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=base, capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"sha": sha.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def host_info() -> dict[str, Any]:
    """Hardware/interpreter context a timing is meaningless without."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def bench_env() -> dict[str, str]:
    """The ``REPRO_BENCH_*`` knobs currently set (only those that are)."""
    return {k: os.environ[k] for k in _ENV_KNOBS if k in os.environ}


def _json_cell_value(value: Any) -> tuple[Any, bool]:
    """Map a cell value to (JSON value, timed-out?)."""
    if isinstance(value, float) and value == TIMEOUT:
        return None, True
    return value, False


class BenchReport:
    """Accumulates one benchmark module's results and writes the JSON file.

    Parameters
    ----------
    name:
        Report name; the file is ``BENCH_<name>.json``.
    title:
        Human-readable one-liner (same string as the text table's title).
    unit:
        What cell values measure: ``"seconds"`` (default) or e.g. ``"MiB"``
        for the space experiment.
    key_fields:
        Names of the cell-key components, in order (e.g.
        ``["method", "dataset"]``), so consumers can interpret keys without
        guessing.
    """

    def __init__(
        self,
        name: str,
        title: str = "",
        unit: str = "seconds",
        key_fields: "list[str] | None" = None,
    ):
        self.name = name
        self.title = title
        self.unit = unit
        self.key_fields = list(key_fields) if key_fields else []
        self.cells: list[dict[str, Any]] = []
        self.meta: dict[str, Any] = {}
        self.recorder_snapshot: "dict | None" = None
        self.peak_memory_bytes: "int | None" = None
        self._start = time.perf_counter()

    def add_cell(self, key, value, **extra: Any) -> None:
        """Record one cell.  ``key`` is a tuple (or scalar) identifying the
        cell; ``value`` is the measurement (:data:`TIMEOUT` for skips);
        ``extra`` fields (e.g. ``peak_memory_bytes=...``) ride along."""
        if not isinstance(key, (tuple, list)):
            key = (key,)
        json_value, timed_out = _json_cell_value(value)
        cell: dict[str, Any] = {
            "key": list(key),
            "value": json_value,
            "timeout": timed_out,
        }
        for k, v in extra.items():
            v2, _ = _json_cell_value(v)
            cell[k] = v2
        self.cells.append(cell)

    def add_cells(self, cells: Mapping) -> None:
        """Record a whole ``{key: value}`` dict (the benches' ``_cells``)."""

        def sort_key(k):
            parts = k if isinstance(k, (tuple, list)) else (k,)
            return [str(p) for p in parts]

        for key in sorted(cells, key=sort_key):
            self.add_cell(key, cells[key])

    def attach_recorder(self, recorder) -> None:
        """Embed a recorder's snapshot (phase timings + counters + spans)."""
        self.recorder_snapshot = recorder.snapshot() if recorder is not None else None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": BENCH_REPORT_SCHEMA,
            "version": BENCH_REPORT_VERSION,
            "name": self.name,
            "title": self.title,
            "unit": self.unit,
            "key_fields": self.key_fields,
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "git": git_revision(),
            "host": host_info(),
            "env": bench_env(),
            "wall_clock_s": time.perf_counter() - self._start,
            "peak_memory_bytes": self.peak_memory_bytes,
            "meta": self.meta,
            "cells": self.cells,
            "recorder": self.recorder_snapshot,
        }

    def write(self, out_dir: "str | Path") -> Path:
        """Write ``BENCH_<name>.json`` into ``out_dir``; returns the path."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"BENCH_{self.name}.json"
        payload = self.to_dict()
        validate_report(payload)  # never write a file our own reader rejects
        path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        return path


def validate_report(obj: Any) -> dict[str, Any]:
    """Check an object against the report schema; returns it or raises
    ``ValueError`` naming the first violation.  Used by the tests, the CI
    smoke job, and :meth:`BenchReport.write` itself."""
    if not isinstance(obj, dict):
        raise ValueError("report must be a JSON object")
    if obj.get("schema") != BENCH_REPORT_SCHEMA:
        raise ValueError(
            f"schema must be {BENCH_REPORT_SCHEMA!r}, got {obj.get('schema')!r}"
        )
    version = obj.get("version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"version must be a positive int, got {version!r}")
    if version > BENCH_REPORT_VERSION:
        raise ValueError(
            f"report version {version} is newer than supported "
            f"{BENCH_REPORT_VERSION}"
        )
    for field, types in (
        ("name", str), ("unit", str), ("git", dict), ("host", dict),
        ("cells", list),
    ):
        if not isinstance(obj.get(field), types):
            raise ValueError(f"field {field!r} missing or mistyped")
    if not obj["name"]:
        raise ValueError("name must be non-empty")
    for i, cell in enumerate(obj["cells"]):
        if not isinstance(cell, dict):
            raise ValueError(f"cells[{i}] must be an object")
        if not isinstance(cell.get("key"), list) or not cell["key"]:
            raise ValueError(f"cells[{i}].key must be a non-empty list")
        value = cell.get("value")
        if value is not None and not isinstance(value, (int, float)):
            raise ValueError(f"cells[{i}].value must be a number or null")
        if not isinstance(cell.get("timeout"), bool):
            raise ValueError(f"cells[{i}].timeout must be a bool")
        if value is None and not cell["timeout"]:
            raise ValueError(f"cells[{i}] has no value but is not a timeout")
    recorder = obj.get("recorder")
    if recorder is not None:
        if not isinstance(recorder, dict) or "phases" not in recorder:
            raise ValueError("recorder must be null or a recorder snapshot")
    return obj


def load_report(path: "str | Path") -> dict[str, Any]:
    """Read and validate a ``BENCH_*.json`` file."""
    with open(path) as fh:
        return validate_report(json.load(fh))
