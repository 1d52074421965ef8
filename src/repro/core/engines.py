"""The sweep-engine registry: which SLAM engines exist, and their names.

Every engine has the shape of :mod:`repro.core.sweep`: a ``name`` (its wire
name ``<method>.<engine>``), a ``threads`` count, and a ``sweep_block``
method.  :data:`ENGINES` maps each wire name to its engine, and everything
that names an engine reads it: ``compute_kdv``'s method tables below, the
dist wire specs (:func:`repro.dist.worker.engine_spec` /
:func:`~repro.dist.worker.resolve_engine`), and the scheduler's calibration
pool keys (:func:`repro.dist.sched.engine_key`).  A new engine is wired
everywhere by registering it here.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .native import NATIVE_AVAILABLE, NativeEngine, native_grid
from .slam_bucket import slam_bucket_row_numpy, slam_bucket_row_python
from .slam_sort import slam_sort_row_numpy, slam_sort_row_python
from .sweep import RowSweep, make_grid_function

__all__ = ["ENGINES", "NATIVE", "get_engine", "slam_sort_grid", "slam_bucket_grid"]

#: Wire name of the compiled engine, registered only when it imported.
NATIVE = NativeEngine.name

#: Wire name -> engine.  ``slam_bucket.numpy`` is the per-row vectorized
#: Algorithm 2, the oracle the compiled engine is pinned to bit for bit.
ENGINES = {
    engine.name: engine
    for engine in (
        RowSweep("slam_sort.python", slam_sort_row_python),
        RowSweep("slam_sort.numpy", slam_sort_row_numpy),
        RowSweep("slam_bucket.python", slam_bucket_row_python),
        RowSweep("slam_bucket.numpy", slam_bucket_row_numpy),
    )
}
if NATIVE_AVAILABLE:
    ENGINES[NATIVE] = NativeEngine()


def get_engine(name: str, threads: int = 1):
    """The engine registered as ``name``, running ``threads`` OpenMP threads
    if it has any.  Raises ``KeyError`` for an unregistered name.

    ``slam_bucket.native`` resolves even where the extension is not
    compiled: it gets the per-row ``numpy`` engine, which computes the same
    bits.
    """
    if name == NATIVE and not NATIVE_AVAILABLE:
        return ENGINES["slam_bucket.numpy"]
    return NativeEngine(threads) if name == NATIVE else ENGINES[name]


def _method_table(method: str) -> "dict[str, Callable[..., np.ndarray]]":
    """``{engine: grid function}`` for one SLAM method's registered engines."""
    prefix = f"{method}."
    return {
        name[len(prefix):]: make_grid_function(engine)
        for name, engine in ENGINES.items()
        if name.startswith(prefix)
    }


#: Grid-level SLAM_SORT (Algorithm 1) by engine.  ``auto``, the default
#: everywhere, is the per-row ``numpy`` sort.
slam_sort_grid = _method_table("slam_sort")
slam_sort_grid["auto"] = slam_sort_grid["numpy"]

#: Grid-level SLAM_BUCKET (Algorithm 2) by engine.  The ``native`` entry
#: maps ``workers`` to OpenMP threads (see
#: :func:`repro.core.native.native_grid`).  ``auto``, the default
#: everywhere, is ``native`` where the extension loaded and the
#: bit-identical per-row ``numpy`` engine otherwise.
slam_bucket_grid = _method_table("slam_bucket")
# perfbench/inproc.py's reference renders name it: the per-row oracle.
slam_bucket_grid["numpy_batch"] = slam_bucket_grid["numpy"]
if NATIVE_AVAILABLE:
    slam_bucket_grid["native"] = native_grid
slam_bucket_grid["auto"] = slam_bucket_grid.get("native", slam_bucket_grid["numpy"])
