"""Tests for the block-vectorized bucket sweep — SLAM_BUCKET's ``numpy``
engine (``numpy_batch`` is its alias).

The engine's contract (repro.core.batch) has two halves:

* **bit-identity** — it returns grids that are ``np.array_equal`` to
  :func:`repro.core.sweep.sweep_kdv` driving the per-row oracle
  ``slam_bucket_row_numpy``, for every kernel, bandwidth, weighting, worker
  count, backend, RAO orientation, raster sub-region, and
  ``MAX_BLOCK_BYTES`` chunk budget (the python engine agrees to float
  tolerance).  The block engines bucket, so they are registered under the
  bucket methods only; ``slam_sort`` rejects them;
* **serial-equal observability** — recorder counters and phase-timer call
  counts match the per-row serial sweep exactly, so dashboards cannot tell
  the engines apart except by the seconds.

Since ``compute_kdv(engine="numpy")`` *is* this engine, every exactness
check below compares against the per-row oracle, never against the alias.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Raster, Region, compute_kdv
from repro.core import batch
from repro.core.batch import MAX_BLOCK_BYTES, NumpyBatchEngine
from repro.core.bounds import bucket_indices
from repro.core.engines import slam_bucket_grid
from repro.core.envelope import YSortedIndex
from repro.core.kernels import get_kernel
from repro.core.native import NATIVE_AVAILABLE, NativeEngine, native_grid
from repro.core.parallel import BACKENDS
from repro.core.rao import with_rao
from repro.core.slam_bucket import slam_bucket_row_numpy
from repro.core.sweep import RowSweep, make_grid_function, sweep_kdv
from repro.obs import Recorder
from repro.viz.bandwidth import resolve_bandwidth

KERNEL_NAMES = ("uniform", "epanechnikov", "quartic")

#: The per-row oracle (the loop the default engine replaced) and the
#: default engine's grid function.
ORACLE = RowSweep("slam_bucket_row_numpy", slam_bucket_row_numpy)
_oracle_grid = make_grid_function(ORACLE)
numpy_grid = slam_bucket_grid["numpy"]


@pytest.fixture(scope="module")
def cluster_xy() -> np.ndarray:
    rng = np.random.default_rng(20220613)
    centers = rng.uniform([0.0, 0.0], [100.0, 80.0], size=(8, 2))
    return centers[rng.integers(0, 8, 3000)] + rng.normal(0.0, 6.0, (3000, 2))


@pytest.fixture(scope="module")
def cluster_weights(cluster_xy) -> np.ndarray:
    return np.random.default_rng(99).uniform(0.5, 2.0, len(cluster_xy))


def _grids(xy, raster, kernel_name, bandwidth, engine, **kwargs):
    """``engine="rows"`` is the per-row oracle; ``"numpy"`` the default
    block engine."""
    kernel = get_kernel(kernel_name)
    if engine == "numpy":
        return numpy_grid(xy, raster, kernel, bandwidth, **kwargs)
    assert engine == "rows", engine
    return _oracle_grid(xy, raster, kernel, bandwidth, **kwargs)


class TestBitIdentity:
    """The default block engine == the per-row oracle, bit for bit."""

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("weighted", (False, True))
    def test_kernels_and_weights(
        self, kernel_name, weighted, cluster_xy, cluster_weights
    ):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 64, 48)
        w = cluster_weights if weighted else None
        a = _grids(cluster_xy, raster, kernel_name, 9.0, "rows", weights=w)
        b = _grids(cluster_xy, raster, kernel_name, 9.0, "numpy", weights=w)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_workers(self, backend, cluster_xy):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 48, 40)
        serial = _grids(cluster_xy, raster, "epanechnikov", 9.0, "rows")
        parallel = _grids(
            cluster_xy, raster, "epanechnikov", 9.0, "numpy",
            workers=3, backend=backend,
        )
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("size", ((48, 36), (36, 48)))
    def test_rao_both_orientations(self, size, cluster_xy):
        """Through the public API, under RAO, for both sweep orientations:
        the default engine and its ``numpy_batch`` alias against the
        per-row oracle."""
        region = Region(0.0, 0.0, 100.0, 80.0)
        kw = dict(
            region=region, size=size, bandwidth=9.0,
            method="slam_bucket_rao", normalization="none",
        )
        oracle = with_rao(_oracle_grid)(
            cluster_xy, Raster(region, *size), get_kernel("epanechnikov"), 9.0
        )
        for engine in ("numpy", "numpy_batch"):
            got = compute_kdv(cluster_xy, engine=engine, **kw).grid
            assert np.array_equal(oracle, got), engine

    @pytest.mark.parametrize(
        "max_block_bytes",
        (1, 4096, 64 * 1024, MAX_BLOCK_BYTES, 1 << 30),
    )
    def test_chunking_invariance(self, max_block_bytes, cluster_xy, monkeypatch):
        """Every chunk boundary placement — from one row per chunk to the
        whole block in one chunk — produces the same bits."""
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 40, 30)
        reference = _grids(cluster_xy, raster, "quartic", 9.0, "rows")
        monkeypatch.setattr(batch, "MAX_BLOCK_BYTES", max_block_bytes)
        got = _grids(cluster_xy, raster, "quartic", 9.0, "numpy")
        assert np.array_equal(reference, got)

    def test_python_engine_close(self, cluster_xy):
        from repro.core.slam_bucket import slam_bucket_row_python

        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 24, 18)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(
            cluster_xy, raster, kernel, 9.0,
            RowSweep("slam_bucket.python", slam_bucket_row_python),
        )
        b = numpy_grid(cluster_xy, raster, kernel, 9.0)
        scale = max(a.max(), 1.0)
        np.testing.assert_allclose(b / scale, a / scale, atol=1e-12)


class TestScratchReuse:
    """The chunk loop runs in per-block scratch: more chunks must not mean
    more allocation (the hoisted-buffer contract in the chunking comment)."""

    @staticmethod
    def _sweep_peak(
        monkeypatch, xy, weights, height: int, max_block_bytes: int
    ) -> int:
        """tracemalloc peak (bytes) of one warmed sweep_block call."""
        import tracemalloc

        monkeypatch.setattr(batch, "MAX_BLOCK_BYTES", max_block_bytes)
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 64, height)
        kernel = get_kernel("quartic")  # most channels -> most scratch
        idx = YSortedIndex(xy)
        sw = weights[idx.order]
        engine = NumpyBatchEngine()
        args = (
            0, height, raster.y_centers(),
            (raster.x_centers() - 50.0) / 9.0, idx, 50.0, 9.0, kernel,
        )
        engine.sweep_block(*args, sorted_weights=sw)  # warm caches/imports
        tracemalloc.start()
        try:
            engine.sweep_block(*args, sorted_weights=sw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_chunking_adds_no_allocation_growth(
        self, cluster_xy, cluster_weights, monkeypatch
    ):
        """Doubling the row count (and therefore the chunk count, at a fixed
        ``MAX_BLOCK_BYTES``) may grow the peak by the extra output rows and
        envelope bookkeeping — never by per-chunk scratch accumulation."""
        args = (monkeypatch, cluster_xy, cluster_weights)
        few = self._sweep_peak(*args, 48, 16 * 1024)
        many = self._sweep_peak(*args, 96, 16 * 1024)
        # Outputs are (height, 64) float64; row-proportional bookkeeping
        # (envelope bounds, cumsums) gets a generous 64 KiB of slack.
        out_delta = (96 - 48) * 64 * 8
        assert many <= few + out_delta + 64 * 1024

    def test_small_chunks_bound_the_working_set(
        self, cluster_xy, cluster_weights, monkeypatch
    ):
        """A chunked sweep must peak well below the single-chunk sweep: the
        whole point of ``MAX_BLOCK_BYTES`` is a bounded working set, and the
        hoisted scratch is sized to the largest chunk, not the block."""
        args = (monkeypatch, cluster_xy, cluster_weights)
        chunked = self._sweep_peak(*args, 96, 16 * 1024)
        single = self._sweep_peak(*args, 96, 1 << 30)
        assert chunked < single


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 120),
    b=st.floats(0.5, 40.0, allow_nan=False),
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    kernel_name=st.sampled_from(KERNEL_NAMES),
    weighted=st.booleans(),
    threads=st.integers(1, 4),
)
def test_batch_parity_property(
    seed, n, b, width, height, kernel_name, weighted, threads
):
    """Hypothesis sweep of the bit-identity contract, including degenerate
    rasters (1-pixel rows/columns) and empty/tiny datasets.  When the
    compiled ``native`` engine is present it joins the matrix: same bits as
    the per-row numpy engine for every drawn case and OpenMP thread count."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform((0.0, 0.0), (50.0, 40.0), (n, 2))
    weights = rng.uniform(0.1, 3.0, n) if weighted else None
    raster = Raster(Region(0.0, 0.0, 50.0, 40.0), width, height)
    kernel = get_kernel(kernel_name)
    a = sweep_kdv(xy, raster, kernel, b, ORACLE, weights=weights)
    c = numpy_grid(xy, raster, kernel, b, weights=weights)
    assert np.array_equal(a, c)
    if NATIVE_AVAILABLE:
        d = native_grid(xy, raster, kernel, b, weights=weights, workers=threads)
        assert np.array_equal(a, d)


#: Bandwidths of the parity matrix: a fraction of the pixel pitch (every
#: envelope a sliver, most intervals between two pixel centres) and
#: multiples of Scott's rule.
_BANDWIDTHS = ("subpixel", 0.25, 1.0, 3.0)


class TestDefaultEngineParityMatrix:
    """``compute_kdv``'s default engine against the per-row oracle through
    RAO: kernels x bandwidths x weighting x sweep orientation x region."""

    @pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
    @pytest.mark.parametrize("bandwidth", _BANDWIDTHS)
    @pytest.mark.parametrize("weighted", (False, True))
    @pytest.mark.parametrize(
        "size", ((48, 36), (36, 48)), ids=("rao_rows", "rao_columns")
    )
    @pytest.mark.parametrize("where", ("bbox", "tile"))
    def test_default_equals_row_oracle(
        self, kernel_name, bandwidth, weighted, size, where,
        cluster_xy, cluster_weights,
    ):
        region = Region.from_points(cluster_xy)
        if where == "tile":
            # an off-centre sub-region, the way a map tile cuts the data:
            # points outside it still reach in through their envelopes
            x0, y0 = region.xmin, region.ymin
            w, h = region.width, region.height
            region = Region(x0 + 0.55 * w, y0 + 0.15 * h,
                            x0 + 0.80 * w, y0 + 0.45 * h)
        raster = Raster(region, *size)
        if bandwidth == "subpixel":
            b = 0.4 * min(raster.gx, raster.gy)
        else:
            b = bandwidth * resolve_bandwidth("scott", cluster_xy)
        w = cluster_weights if weighted else None
        got = compute_kdv(
            cluster_xy, region=region, size=size, kernel=kernel_name,
            bandwidth=b, weights=w, normalization="none",
        ).grid
        oracle = with_rao(_oracle_grid)(
            cluster_xy, raster, get_kernel(kernel_name), b, weights=w
        )
        assert got.any()
        assert np.array_equal(oracle, got)


def _pixel_centres(draw) -> np.ndarray:
    """Scaled pixel centres exactly as the sweep builds them: a raster's
    x centres shifted to its middle and divided by the bandwidth."""
    width = draw(st.integers(1, 64))
    xmin = draw(st.floats(-1e6, 1e6, allow_nan=False))
    extent = draw(st.floats(1e-3, 1e5, allow_nan=False))
    raster = Raster(Region(xmin, 0.0, xmin + extent, 1.0), width, 1)
    b = extent * draw(st.floats(1e-3, 10.0, allow_nan=False))
    cx = (raster.region.xmin + raster.region.xmax) / 2.0
    return (raster.x_centers() - cx) / b


@st.composite
def _centres_and_endpoints(draw):
    xs = _pixel_centres(draw)
    gap = xs[1] - xs[0] if len(xs) > 1 else 1.0
    endpoint = st.one_of(
        # on a pixel centre, or one ulp either side of it
        st.tuples(
            st.integers(0, len(xs) - 1),
            st.sampled_from((0, -1, 1)),
        ).map(
            lambda t: float(
                xs[t[0]] if t[1] == 0
                else np.nextafter(xs[t[0]], t[1] * np.inf)
            )
        ),
        # anywhere near the row, including between centres
        st.floats(-2.0, 2.0).map(
            lambda f: float(xs[0] + f * (xs[-1] - xs[0] + gap))
        ),
        # far outside the raster on either side
        st.floats(1.0, 1e9).flatmap(
            lambda d: st.sampled_from((xs[0] - d * gap, xs[-1] + d * gap))
        ),
    )
    lb = draw(st.lists(endpoint, min_size=1, max_size=40))
    ub = draw(st.lists(endpoint, min_size=len(lb), max_size=len(lb)))
    return xs, np.array(lb), np.array(ub)


@settings(max_examples=300, deadline=None)
@given(case=_centres_and_endpoints())
def test_bucket_indices_match_searchsorted(case):
    """The O(1) bucket assignment (padded one-gather corrections) equals the
    binary search it replaces, on the edges where the arithmetic index is
    off by one: endpoints on pixel centres and one ulp either side, endpoints
    far outside the raster, and one-pixel rows."""
    xs, lb, ub = case
    enter, leave = bucket_indices(xs, lb, ub)
    np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, "left"))
    np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, "right"))


@st.composite
def _dyadic_row(draw):
    """One pixel row and points whose interval endpoints land exactly on
    pixel centres, one ulp either side of one, or 1-1e9 pixel gaps outside
    the row.  Dyadic pixel centres, a power-of-two bandwidth, a dyadic row
    and ``cx = 0`` make every scaled coordinate the sweep computes exact:
    a point at scaled offset ``v`` in {0, +-1} from the row has half-width
    1 or 0, so its endpoints are ``u - 1``/``u + 1`` or ``u`` itself."""
    width = draw(st.integers(1, 64))
    gap = 2.0 ** draw(st.integers(-4, 4))
    xs = gap * (draw(st.integers(-64, 64)) + np.arange(width, dtype=np.float64))
    b = 2.0 ** draw(st.integers(-3, 3))
    k = b * draw(st.integers(-16, 16)) / 4.0
    centre = st.integers(0, width - 1).map(lambda i: float(xs[i]))
    point = st.one_of(
        # an endpoint on a centre: lb (u - 1), ub (u + 1) or both (v = +-1)
        st.tuples(centre, st.sampled_from(((1.0, 0.0), (-1.0, 0.0),
                                           (0.0, 1.0), (0.0, -1.0)))).map(
            lambda t: (t[0] + t[1][0], t[1][1])
        ),
        # a zero-width interval one ulp either side of a centre
        st.tuples(centre, st.sampled_from((-1.0, 1.0)),
                  st.sampled_from((-1.0, 1.0))).map(
            lambda t: (float(np.nextafter(t[0], t[1] * np.inf)), t[2])
        ),
        # 1 to 1e9 pixel gaps outside either end of the row
        st.tuples(st.floats(1.0, 1e9), st.booleans(),
                  st.sampled_from((0.0, 1.0, -1.0))).map(
            lambda t: (float(xs[0] - t[0] * gap if t[1]
                             else xs[-1] + t[0] * gap), t[2])
        ),
        # anywhere near the row, at any offset inside the envelope
        st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)).map(
            lambda t: (float(xs[0] + t[0] * (xs[-1] - xs[0] + gap)), t[1])
        ),
    )
    uv = np.array(draw(st.lists(point, min_size=1, max_size=40)))
    xy = np.column_stack([uv[:, 0] * b, k + uv[:, 1] * b])
    weighted = draw(st.booleans())
    weights = (np.random.default_rng(len(xy)).uniform(0.5, 2.0, len(xy))
               if weighted else None)
    return xs, xy, k, b, weights


@st.composite
def _raster_row(draw):
    """One pixel row scaled the way ``sweep_kdv`` scales it,
    ``(x_centers - cx) / b``, over a region with a non-dyadic origin,
    width and bandwidth, so the bucket quotients of ``_quotient_slips``
    slip off ``i`` at some centres ``xs[i]``.  The row is swept at
    ``k = 0`` with ``cx = 0`` and bandwidth 1, so a point's scaled x is
    its own x.  Points at ``y = +-1`` have zero half-width: both interval
    endpoints sit exactly on a slipped centre, or one ulp either side of
    it.  Points at ``y = 0`` sit one unit from such a place, so one
    endpoint lands on it up to rounding, and the rest land anywhere near
    the row."""
    width = draw(st.integers(2, 300))
    xmin = draw(st.floats(-1e6, 1e6))
    extent = draw(st.floats(1e-2, 1e5))
    b = draw(st.floats(1e-2, 1e4))
    raster = Raster(Region(xmin, 0.0, xmin + extent, 1.0), width, 1)
    cx = (raster.region.xmin + raster.region.xmax) / 2.0
    xs = (raster.x_centers() - cx) / b
    slipped = np.flatnonzero(_quotient_slips(xs).any(axis=0))
    centre = st.sampled_from(slipped if len(slipped) else range(width)).map(
        lambda i: float(xs[i])
    )
    on_centre = st.tuples(centre, st.sampled_from((-1, 0, 1))).map(
        lambda t: float(t[0] if t[1] == 0
                        else np.nextafter(t[0], t[1] * np.inf))
    )
    point = st.one_of(
        st.tuples(on_centre, st.sampled_from((-1.0, 1.0))),
        on_centre.map(lambda x: (x + 1.0, 0.0)),
        on_centre.map(lambda x: (x - 1.0, 0.0)),
        st.tuples(
            st.floats(-2.0, 2.0).map(
                lambda f: float(xs[0] + f * (xs[-1] - xs[0]))
            ),
            st.floats(-1.0, 1.0),
        ),
    )
    xy = np.array(draw(st.lists(point, min_size=1, max_size=40)))
    weights = (np.random.default_rng(len(xy)).uniform(0.5, 2.0, len(xy))
               if draw(st.booleans()) else None)
    return xs, xy, 0.0, 1.0, weights


def _quotient_slips(xs: np.ndarray) -> np.ndarray:
    """``phi(xs[i]) - i`` for the C loop's two bucket quotients, as a
    ``(2, X)`` array: the reference's ``(x - xs[0]) / gx``, which the slow
    pairs recompute, and the product ``(x - xs[0]) * (1 / gx)``, which the
    fast-pair test measures.  Zero on a dyadic row, and each pixel
    centre's rounding slip on any other."""
    gx = xs[1] - xs[0]
    i = np.arange(len(xs))
    return np.stack([(xs - xs[0]) / gx - i, (xs - xs[0]) * (1.0 / gx) - i])


def _ulp_neighbours(a: float) -> list:
    """``a`` and the floats one ulp either side of it."""
    return [float(np.nextafter(a, -np.inf)), a, float(np.nextafter(a, np.inf))]


def _assert_native_matches_oracle(xs, xy, k, b, weights):
    """``NativeEngine`` sweeps the row at ``k`` byte-equal to ``ORACLE``,
    for every kernel."""
    ysorted = YSortedIndex(xy)
    sorted_weights = None if weights is None else weights[ysorted.order]
    args = (0, 1, np.array([k]), xs, ysorted, 0.0, b)
    for kernel_name in KERNEL_NAMES:
        kernel = get_kernel(kernel_name)
        expected = ORACLE.sweep_block(*args, kernel, sorted_weights)
        got = NativeEngine().sweep_block(*args, kernel, sorted_weights)
        assert got.tobytes() == expected.tobytes(), kernel_name


@pytest.mark.skipif(not NATIVE_AVAILABLE, reason="native extension did not load")
@settings(max_examples=600, deadline=None)
@given(case=st.one_of(_dyadic_row(), _raster_row()))
def test_native_bucket_edges_match_oracle(case):
    """The C loop's bucket arithmetic (a truncating cast plus one compare,
    then the clamp, and the one-step corrections for the pairs that need
    them) equals the oracle's on the edges where the arithmetic index is
    off by one, bit for bit, for every kernel.  The corrections repair a
    rounding slip of one index, so this pins the rounding and the
    corrections together.  A pair skips the corrections when its quotients
    are further from an integer than the row's largest slip
    ``max |phi(xs[i]) - i|``; that slip is zero on dyadic rows and not on
    real raster rows, where an endpoint on a slipped centre, or one ulp off
    it, is exactly where a margin that ignored it would skip a correction
    the oracle makes."""
    _assert_native_matches_oracle(*case)


@pytest.mark.skipif(not NATIVE_AVAILABLE, reason="native extension did not load")
def test_native_bucket_edges_match_oracle_on_uneven_centres():
    """Centres far from uniform (a slip of a quarter pixel or more) send
    every pair through the corrections; the bits still equal the
    oracle's, with endpoints on every centre and one ulp either side."""
    rng = np.random.default_rng(5)
    xs = np.cumsum(rng.uniform(0.2, 3.0, 40))
    assert (np.abs(_quotient_slips(xs)).max(axis=1) >= 0.25).all()
    ends = [x for centre in xs for x in _ulp_neighbours(float(centre))]
    points = [(x, y) for x in ends for y in (-1.0, 1.0)]
    points += [(x, 0.0) for x in rng.uniform(xs[0] - 2.0, xs[-1] + 2.0, 50)]
    xy = np.array(points)
    for weights in (None, rng.uniform(0.5, 2.0, len(xy))):
        _assert_native_matches_oracle(xs, xy, 0.0, 1.0, weights)


def _quotient_disagreements(gx: float, ns) -> list:
    """The ``a`` at ``n * gx`` or one ulp either side whose ceil or floor
    differs between the division ``a / gx`` and the product
    ``a * (1 / gx)``."""
    rgx = 1.0 / gx
    return [a for n in ns for a in _ulp_neighbours(n * gx)
            if np.ceil(a / gx) != np.ceil(a * rgx)
            or np.floor(a / gx) != np.floor(a * rgx)]


@pytest.mark.skipif(not NATIVE_AVAILABLE, reason="native extension did not load")
def test_native_slow_pass_keeps_the_oracle_division():
    """Slow pairs take the reference's quotient ``(lb - x0) / gx``, not
    the product the fast-pair test uses, because the one-step corrections
    start from its rounding.  Centres ``[0, gx, 20 gx, 21 gx, ...]`` slip
    by far more than a quarter pixel, so every pair is slow, and a
    zero-width interval at ``a = n * gx`` for ``3 <= n < 20`` lies between
    ``xs[1]`` and ``xs[2]``.  Where ``a / gx`` rounds up past ``n`` and
    ``a * (1 / gx)`` does not (or the other way round), the corrections
    land on different indices, so a slow pass on the product returns
    other bits than the oracle."""
    pinned = 0.1938352466451458
    a = 0.5815057399354374  # one ulp above 3 * pinned
    assert (a / pinned, a * (1.0 / pinned)) == (3.0000000000000004, 3.0)
    rng = np.random.default_rng(19)
    gaps = [pinned, *rng.uniform(0.05, 0.5, 400)]
    rows = [(gx, ends) for gx in gaps
            if (ends := _quotient_disagreements(gx, range(3, 20)))][:12]
    assert rows[0][0] == pinned and a in rows[0][1] and len(rows) == 12
    for gx, ends in rows:
        xs = gx * np.concatenate([[0.0, 1.0], np.arange(20.0, 42.0)])
        assert xs[1] == gx
        assert (np.abs(_quotient_slips(xs)).max(axis=1) >= 0.25).all()
        near = [x for end in ends for x in _ulp_neighbours(end)]
        xy = np.array([(x, y) for x in near for y in (-1.0, 1.0)])
        for weights in (None, rng.uniform(0.5, 2.0, len(xy))):
            _assert_native_matches_oracle(xs, xy, 0.0, 1.0, weights)


class TestBatchEdgeCases:
    def test_single_pixel_rows(self):
        """X = 1 exercises the bucket grid's gx -> 1.0 fallback inside the
        batched scatter (num_pixels == 1 has no pixel spacing)."""
        xy = np.array([[5.0, 5.0], [5.0, 6.0], [4.0, 5.5]])
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 1, 8)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(xy, raster, kernel, 4.0, ORACLE)
        b = numpy_grid(xy, raster, kernel, 4.0)
        assert np.array_equal(a, b)
        assert b.shape == (8, 1)

    def test_all_rows_empty(self):
        """Every envelope empty (points far above the raster): the batch
        driver's zero-pair early path must return the all-zeros block."""
        xy = np.full((10, 2), 1000.0)
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 6, 5)
        grid = numpy_grid(xy, raster, get_kernel("quartic"), 2.0)
        assert grid.shape == (5, 6)
        assert not grid.any()

    def test_some_rows_empty_scatter_back(self):
        """A band of points leaves leading/trailing rows empty; the
        compressed scatter must place non-empty rows correctly."""
        rng = np.random.default_rng(3)
        xy = np.column_stack(
            [rng.uniform(0, 10, 40), rng.uniform(4.8, 5.2, 40)]
        )
        raster = Raster(Region(0.0, 0.0, 10.0, 10.0), 12, 20)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(xy, raster, kernel, 0.4, ORACLE)
        b = numpy_grid(xy, raster, kernel, 0.4)
        assert np.array_equal(a, b)
        assert not b[0].any() and not b[-1].any() and b.any()

    def test_endpoints_exactly_on_pixel_centers(self):
        """Integer coordinates + integer bandwidth put interval endpoints
        exactly on pixel centers; the closed-interval tie rule must survive
        batching (same correction arithmetic, just vectorized over pairs)."""
        xs = np.arange(11, dtype=np.float64)  # pixel centers 0..10
        lb = np.array([2.0, 0.0, 10.0, -1.0])
        ub = np.array([5.0, 0.0, 12.0, -0.5])
        enter, leave = bucket_indices(xs, lb, ub)
        np.testing.assert_array_equal(enter, np.searchsorted(xs, lb, "left"))
        np.testing.assert_array_equal(leave, np.searchsorted(xs, ub, "right"))
        # and end-to-end: a crafted dataset whose lb/ub land on centers
        xy = np.array([[3.0, 2.0], [7.0, 2.0], [5.0, 2.0]])
        raster = Raster(Region(-0.5, -0.5, 10.5, 4.5), 11, 5)
        kernel = get_kernel("uniform")
        a = sweep_kdv(xy, raster, kernel, 2.0, ORACLE)
        b = numpy_grid(xy, raster, kernel, 2.0)
        assert np.array_equal(a, b)

    def test_zero_pixel_intervals(self):
        """Intervals entirely between two pixel centers (enter == leave)
        contribute nothing — but their pairs still flow through the scatter
        (dropping them would reorder bincount sums for other pairs)."""
        xs = np.arange(5, dtype=np.float64)
        enter, leave = bucket_indices(
            xs, np.array([1.25, 3.1]), np.array([1.75, 3.9])
        )
        np.testing.assert_array_equal(enter, leave)
        xy = np.array([[1.5, 1.0], [1.5, 1.2]])
        raster = Raster(Region(-0.5, -0.5, 4.5, 2.5), 5, 3)
        kernel = get_kernel("epanechnikov")
        a = sweep_kdv(xy, raster, kernel, 0.4, ORACLE)
        b = numpy_grid(xy, raster, kernel, 0.4)
        assert np.array_equal(a, b)

    def test_empty_block_request(self):
        engine = NumpyBatchEngine()
        out = engine.sweep_block(
            3, 3, np.arange(5.0), np.arange(4.0), YSortedIndex(np.zeros((0, 2))),
            0.0, 1.0, get_kernel("uniform"),
        )
        assert out.shape == (0, 4)

    def test_unknown_kernel_rejected(self, cluster_xy):
        class FakeKernel:
            name = "gaussianish"
            num_channels = 4

        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 8, 8)
        with pytest.raises(ValueError, match="numpy_batch.*gaussianish"):
            numpy_grid(cluster_xy, raster, FakeKernel(), 5.0)


class TestRecorderParity:
    """Counters and timer call counts are serial-equal (batch phases merge
    to the per-row loop's accounting; docs/observability.md)."""

    def _snapshot(self, engine, cluster_xy, **kwargs):
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 32, 40)
        rec = Recorder()
        _grids(
            cluster_xy, raster, "epanechnikov", 6.0, engine,
            recorder=rec, **kwargs,
        )
        return rec.snapshot()

    def test_counters_and_calls_match_serial_rowwise(self, cluster_xy):
        serial = self._snapshot("rows", cluster_xy)
        batch = self._snapshot("numpy", cluster_xy)
        assert batch["counters"] == serial["counters"]
        for phase in ("sweep.envelope_update", "sweep.endpoint_bucket",
                      "sweep.prefix_sweep"):
            assert batch["phases"][phase]["calls"] == \
                serial["phases"][phase]["calls"], phase

    def test_parallel_merge_equals_serial(self, cluster_xy):
        serial = self._snapshot("numpy", cluster_xy)
        merged = self._snapshot(
            "numpy", cluster_xy, workers=3, backend="process"
        )
        # sweep.blocks legitimately reflects the partitioning; every
        # row/envelope count must still merge to the serial totals.
        drop = "sweep.blocks"
        assert {k: v for k, v in merged["counters"].items() if k != drop} == \
            {k: v for k, v in serial["counters"].items() if k != drop}
        for phase, data in serial["phases"].items():
            assert merged["phases"][phase]["calls"] == data["calls"], phase


class TestYSortedReuse:
    def test_transposed_twin_cached_and_backlinked(self, cluster_xy):
        idx = YSortedIndex(cluster_xy)
        twin = idx.transposed()
        assert twin is idx.transposed()  # cached
        assert twin.transposed() is idx  # back-linked
        fresh = YSortedIndex(cluster_xy[:, ::-1])
        np.testing.assert_array_equal(twin.order, fresh.order)
        np.testing.assert_array_equal(twin.sorted_xy, fresh.sorted_xy)

    @pytest.mark.parametrize("size", ((40, 30), (30, 40)))
    def test_caller_index_honored_under_rao(self, size, cluster_xy):
        """compute_kdv(ysorted=...) returns the same bits in both RAO
        orientations — the column sweep consumes the cached transposed twin
        instead of dropping the index."""
        kw = dict(
            region=Region(0.0, 0.0, 100.0, 80.0), size=size, bandwidth=9.0,
            method="slam_bucket_rao", normalization="none",
        )
        idx = YSortedIndex(cluster_xy)
        without = compute_kdv(cluster_xy, engine="numpy_batch", **kw).grid
        with_idx = compute_kdv(
            cluster_xy, engine="numpy_batch", ysorted=idx, **kw
        ).grid
        assert np.array_equal(without, with_idx)
        if size[0] < size[1]:  # columns orientation ran: twin was built
            assert idx._transposed is not None

    def test_index_skips_rebuild(self, cluster_xy):
        """With a caller index, no ``index_build`` span is recorded."""
        raster = Raster(Region(0.0, 0.0, 100.0, 80.0), 24, 18)
        kernel = get_kernel("epanechnikov")
        idx = YSortedIndex(cluster_xy)
        rec = Recorder()
        numpy_grid(cluster_xy, raster, kernel, 9.0, ysorted=idx,
                         recorder=rec)
        assert "index_build" not in rec.snapshot()["phases"]

    def test_api_rejects_mismatched_index(self, cluster_xy):
        idx = YSortedIndex(cluster_xy[:10])
        with pytest.raises(ValueError, match="10 points"):
            compute_kdv(cluster_xy, size=(8, 8), bandwidth=5.0,
                        method="slam_bucket", ysorted=idx)

    def test_api_rejects_index_over_other_points(self):
        """Same length, other coordinates: the index is refused rather than
        rendering the other points' density."""
        rng = np.random.default_rng(500)
        a = rng.uniform((0.0, 0.0), (100.0, 80.0), (500, 2))
        b = rng.uniform((0.0, 0.0), (100.0, 80.0), (500, 2))
        with pytest.raises(ValueError, match="other coordinates than these 500"):
            compute_kdv(b, size=(64, 48), bandwidth=9.0, ysorted=YSortedIndex(a))

    def test_api_accepts_index_over_an_equal_copy(self, cluster_xy):
        kw = dict(size=(24, 18), bandwidth=9.0, method="slam_bucket")
        idx = YSortedIndex(cluster_xy.copy())
        assert np.array_equal(
            compute_kdv(cluster_xy, ysorted=idx, **kw).grid,
            compute_kdv(cluster_xy, **kw).grid,
        )

    def test_caller_index_twin_sort_is_recorded_once(self, cluster_xy):
        """The column sweep that sorts a caller index's twin records the
        sort as ``index_build``; the next column sweep records none."""
        idx = YSortedIndex(cluster_xy)
        kw = dict(size=(30, 40), bandwidth=9.0, ysorted=idx, collect_stats=True)
        first = compute_kdv(cluster_xy, **kw)
        assert first.stats.orientation == "columns"
        assert "index_build" in first.stats.phases
        assert "index_build" not in compute_kdv(cluster_xy, **kw).stats.phases

    def test_pickle_leaves_the_twin_behind(self, cluster_xy):
        """A pickled index ships ``xy``, ``order`` and ``sorted_xy`` only:
        not the transposed twin, which the far side rebuilds on demand."""
        import pickle

        idx = YSortedIndex(cluster_xy)
        size = len(pickle.dumps(idx))
        assert size < 2.5 * cluster_xy.nbytes + 1024
        idx.transposed().sort()
        assert len(pickle.dumps(idx)) == size
        clone = pickle.loads(pickle.dumps(idx))
        assert clone._transposed is None
        assert clone.transposed().transposed() is clone
        np.testing.assert_array_equal(clone.sorted_y, idx.sorted_y)
        np.testing.assert_array_equal(
            clone.transposed().sorted_xy, idx.transposed().sorted_xy
        )
        deferred = YSortedIndex.deferred(cluster_xy)
        assert len(pickle.dumps(deferred)) < cluster_xy.nbytes + 1024
        np.testing.assert_array_equal(
            pickle.loads(pickle.dumps(deferred)).order, idx.order
        )

    def test_api_rejects_index_for_non_slam_method(self, cluster_xy):
        idx = YSortedIndex(cluster_xy)
        with pytest.raises(ValueError, match="SLAM methods"):
            compute_kdv(cluster_xy, size=(8, 8), bandwidth=5.0,
                        method="scan", ysorted=idx)
