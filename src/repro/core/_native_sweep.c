/* Fused native bucket sweep (the "native" engine).
 *
 * One C loop per pixel row performs what the Python engines spread across
 * many NumPy passes: binary-search envelope extraction over the y-sorted
 * points, arithmetic bucket assignment (repro.core.bounds.bucket_indices),
 * accumulation of the live aggregate channels into a thread-local difference
 * row, and the prefix sweep + kernel recombination -- with no intermediate
 * tensors.  Rows are independent, so the loop parallelizes across rows with
 * OpenMP when the toolchain provides it.
 *
 * Bit-identity contract
 * ---------------------
 * The output must equal slam_bucket_row_numpy's bit for bit (pinned by
 * tests/test_batch.py and tests/test_native.py).  Everything below is
 * arranged around that:
 *
 *  - every floating-point expression replicates the reference operand order
 *    (bincount semantics: enter-sums and leave-sums accumulate separately
 *    and are subtracted per bucket; cumsum assigns net[0] directly at i=0);
 *  - pairs are visited in ascending sorted-point order, matching the order
 *    in which bincount accumulates its weights;
 *  - the extension must be compiled with -ffp-contract=off so the compiler
 *    cannot fuse a*b+c into an FMA (which rounds differently);
 *  - C's sqrt/ceil/floor are IEEE-754 correctly rounded, matching NumPy's,
 *    and the float->int64 conversion matches NumPy's astype (both lower to
 *    the same truncating conversion).  The SIMD forms of all of these are
 *    correctly rounded too, so auto-vectorization cannot change a bit.
 *
 * The module is optional: repro.core.native compiles it on first import
 * and degrades to the bit-identical numpy engine when the build or the load
 * fails.  Only python-side-validated, C-contiguous float64 buffers reach
 * this code (see repro/core/native.py).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(_MSC_VER)
#include <malloc.h>
#define ALIGNED_ALLOC(align, size) _aligned_malloc((size), (align))
#define ALIGNED_FREE _aligned_free
#else
#define ALIGNED_ALLOC(align, size) aligned_alloc((align), (size))
#define ALIGNED_FREE free
#endif

/* Kernel ids (mirrored by repro.core.native._KERNEL_IDS). */
#define KERNEL_UNIFORM 0
#define KERNEL_EPANECHNIKOV 1
#define KERNEL_QUARTIC 2

/* Live aggregate channels at qy = 0 per kernel (the scaled local frame
 * evaluates every row at y = 0, so the qy-weighted channels are dead). */
#define NLIVE_UNIFORM 1      /* count */
#define NLIVE_EPANECHNIKOV 3 /* count, A.x, S */
#define NLIVE_QUARTIC 6      /* count, A.x, S, C.x, Q, M.xx */
#define NLIVE_MAX 6

/* Difference-row scratch layout: one interleaved block per bucket,
 * [enter channels | pad | leave channels | pad], padded so the prefix loop
 * reads/zeroes each bucket with whole aligned vectors and touches one (or
 * for quartic two adjacent) cache lines per pixel instead of two distant
 * ones.  STRIDE is doubles per bucket, HALF the offset of the leave half. */
#define STRIDE_UNIFORM 2
#define HALF_UNIFORM 1
#define STRIDE_EPANECHNIKOV 8
#define HALF_EPANECHNIKOV 4
/* Quartic's six live channels do not fit a cache line alongside their
 * leave twin, so it keeps the classic split layout instead: enter rows at
 * scratch[0:], leave rows at scratch[qoff:], 6 doubles per bucket each
 * (measured faster than a 96/128-byte interleaved stride). */
#define STRIDE_MAX 16

/* searchsorted(sorted_y, key, side="left") over the y column of (x, y)
 * pairs: first index whose y is >= key. */
static Py_ssize_t
search_left(const double *xy, Py_ssize_t n, double key)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (xy[2 * mid + 1] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* searchsorted(sorted_y, key, side="right"): first index whose y is > key. */
static Py_ssize_t
search_right(const double *xy, Py_ssize_t n, double key)
{
    Py_ssize_t lo = 0, hi = n;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (xy[2 * mid + 1] <= key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Per-row state shared by the kernel-specialized row functions. */
typedef struct {
    const double *xs;   /* (X,) scaled pixel centers */
    int64_t num_pixels; /* X */
    double x0;          /* xs[0] */
    double gx;          /* pixel gap (1.0 when X == 1) */
    const double *xy;   /* (n, 2) y-ascending sorted points */
    Py_ssize_t n;
    const double *weights; /* (n,) in sorted order, or NULL */
    const double *point_u; /* (n,) precomputed (p.x - cx) / bandwidth */
    const double *point_y; /* (n,) contiguous copy of the y column */
    const double *xs2;     /* (X,) precomputed xs[i] * xs[i] */
    const double *x2;      /* (X,) precomputed 2.0 * xs[i] */
    double cx;
    double bandwidth;
} sweep_ctx;

/* Pairs are processed in cache-sized tiles through two phases: a branchless
 * index phase that the compiler can auto-vectorize (all the divisions,
 * sqrt, ceil/floor, and float->int casts -- correctly rounded in both
 * scalar and SIMD form, so vectorization cannot change a bit), then a
 * scalar scatter phase that accumulates the live channels into the
 * enter/leave difference rows.  Ascending pair order is preserved, which
 * the bit-identity contract requires (bincount accumulates in input
 * order). */
#define TILE 512

/* Phase one: bucket indices + the cached v^2 for a tile of pairs.  This is
 * a transcription of repro.core.bounds.bucket_indices, split into an
 * all-FP sub-loop over contiguous inputs (divisions, sqrt, ceil/floor --
 * the compiler vectorizes it) and a scalar index sub-loop for the casts,
 * clamps, and one-step corrections.  The corrections are written
 * branch-free in the reference's own masked form (`(e < X) &
 * (xs[min(e, X-1)] < lb)`), applied sequentially on the updated index. */
static void
tile_indices(const sweep_ctx *ctx, double k, Py_ssize_t t0, Py_ssize_t m,
             int64_t *eidx, int64_t *lidx, double *vsq)
{
    const double *xs = ctx->xs;
    const int64_t X = ctx->num_pixels;
    const double x0 = ctx->x0, gx = ctx->gx, bw = ctx->bandwidth;
    const double *py = ctx->point_y + t0;
    const double *pu = ctx->point_u + t0;
    double lbv[TILE], ubv[TILE], efv[TILE], lfv[TILE];
    for (Py_ssize_t q = 0; q < m; q++) {
        double v = (py[q] - k) / bw;
        double v2 = v * v;
        double radicand = 1.0 - v2;
        if (radicand < 0.0)
            radicand = 0.0;
        double half = sqrt(radicand);
        double lb = pu[q] - half;
        double ub = pu[q] + half;
        vsq[q] = v2;
        lbv[q] = lb;
        ubv[q] = ub;
        efv[q] = ceil((lb - x0) / gx);
        lfv[q] = floor((ub - x0) / gx);
    }
    for (Py_ssize_t q = 0; q < m; q++) {
        double lb = lbv[q], ub = ubv[q];
        int64_t e = (int64_t)efv[q];
        e = e < 0 ? 0 : (e > X ? X : e);
        e += (int64_t)((e < X) & (xs[e < X ? e : X - 1] < lb));
        e -= (int64_t)((e > 0) & (xs[e > 0 ? e - 1 : 0] >= lb));
        eidx[q] = e;
        int64_t l = (int64_t)((uint64_t)(int64_t)lfv[q] + 1);
        l = l < 0 ? 0 : (l > X ? X : l);
        l += (int64_t)((l < X) & (xs[l < X ? l : X - 1] <= ub));
        l -= (int64_t)((l > 0) & (xs[l > 0 ? l - 1 : 0] > ub));
        lidx[q] = l;
    }
}

/* Phase two: scatter one pair's live channels into the difference rows.
 * `half` is the offset of the leave half within the bucket's block (for
 * the interleaved layouts) or within the scratch (for the split quartic
 * layout, which passes precomputed base pointers). */
#define SCATTER(stride, half, nlive, CHANNELS)                                \
    do {                                                                      \
        double ch[NLIVE_MAX];                                                 \
        CHANNELS;                                                             \
        double *ap = scratch + eidx[q] * (stride);                            \
        double *sp = scratch + lidx[q] * (stride) + (half);                   \
        for (int c = 0; c < (nlive); c++) {                                   \
            ap[c] += ch[c];                                                   \
            sp[c] += ch[c];                                                   \
        }                                                                     \
    } while (0)

/* Tile loop shared by the row functions: PAIRS is the phase-two body run
 * for q in [0, m) with `t0 + q` the global pair index. */
#define FOR_TILES(PAIRS)                                                      \
    do {                                                                      \
        int64_t eidx[TILE];                                                   \
        int64_t lidx[TILE];                                                   \
        double vsq[TILE];                                                     \
        for (Py_ssize_t t0 = lo; t0 < hi; t0 += TILE) {                       \
            Py_ssize_t m = (hi - t0) < TILE ? (hi - t0) : TILE;               \
            tile_indices(ctx, k, t0, m, eidx, lidx, vsq);                     \
            PAIRS;                                                            \
        }                                                                     \
    } while (0)

/* The prefix/density loops fold the scratch reset into the sweep itself
 * (each bucket block is zeroed right after it is read, in the same cache
 * line touch), so only the past-the-end bucket X -- which the prefix never
 * visits -- needs explicit clearing afterwards.  The first pixel is peeled
 * out of each loop: cumsum *assigns* net[0], it does not add it to 0.0,
 * and peeling keeps the running aggregates in registers branch-free. */
#define CLEAR_PAST_END(stride)                                                \
    do {                                                                      \
        double *bp = scratch + ctx->num_pixels * (stride);                    \
        for (int c = 0; c < (stride); c++)                                    \
            bp[c] = 0.0;                                                      \
    } while (0)

/* Uniform: density = count (channels[0] / bandwidth with bandwidth 1). */
static void
row_uniform(const sweep_ctx *ctx, double k, Py_ssize_t lo, Py_ssize_t hi,
            double *out_row, double *scratch)
{
    if (ctx->weights == NULL) {
        FOR_TILES({
            for (Py_ssize_t q = 0; q < m; q++)
                SCATTER(STRIDE_UNIFORM, HALF_UNIFORM, NLIVE_UNIFORM,
                        { ch[0] = 1.0; });
        });
    } else {
        FOR_TILES({
            for (Py_ssize_t q = 0; q < m; q++) {
                Py_ssize_t p = t0 + q;
                SCATTER(STRIDE_UNIFORM, HALF_UNIFORM, NLIVE_UNIFORM,
                        { ch[0] = ctx->weights[p]; });
            }
        });
    }
    double run = scratch[0] - scratch[1];
    scratch[0] = scratch[1] = 0.0;
    out_row[0] = run;
    for (int64_t i = 1; i < ctx->num_pixels; i++) {
        double *bp = scratch + i * STRIDE_UNIFORM;
        run += bp[0] - bp[1];
        bp[0] = bp[1] = 0.0;
        out_row[i] = run;
    }
    CLEAR_PAST_END(STRIDE_UNIFORM);
}

/* Epanechnikov at qy = 0 (kernels.py fast path, b2 == 1):
 *   inner = cnt*(qx*qx); inner -= (2*qx)*ax; inner += s; out = cnt - inner */
static void
row_epanechnikov(const sweep_ctx *ctx, double k, Py_ssize_t lo, Py_ssize_t hi,
                 double *out_row, double *scratch)
{
    if (ctx->weights == NULL) {
        FOR_TILES({
            for (Py_ssize_t q = 0; q < m; q++) {
                Py_ssize_t p = t0 + q;
                double u = ctx->point_u[p];
                double v2 = vsq[q];
                SCATTER(STRIDE_EPANECHNIKOV, HALF_EPANECHNIKOV,
                        NLIVE_EPANECHNIKOV, {
                    double u2 = u * u;
                    ch[0] = 1.0;
                    ch[1] = u;
                    ch[2] = u2 + v2;
                });
            }
        });
    } else {
        FOR_TILES({
            for (Py_ssize_t q = 0; q < m; q++) {
                Py_ssize_t p = t0 + q;
                double u = ctx->point_u[p];
                double v2 = vsq[q];
                SCATTER(STRIDE_EPANECHNIKOV, HALF_EPANECHNIKOV,
                        NLIVE_EPANECHNIKOV, {
                    double w = ctx->weights[p];
                    double u2 = u * u;
                    ch[0] = w;
                    ch[1] = u * w;
                    ch[2] = (u2 + v2) * w;
                });
            }
        });
    }
    double cnt = scratch[0] - scratch[4];
    double ax = scratch[1] - scratch[5];
    double s = scratch[2] - scratch[6];
    for (int c = 0; c < STRIDE_EPANECHNIKOV; c++)
        scratch[c] = 0.0;
    double inner = cnt * ctx->xs2[0];
    inner -= ctx->x2[0] * ax;
    inner += s;
    out_row[0] = cnt - inner;
    for (int64_t i = 1; i < ctx->num_pixels; i++) {
        double *bp = scratch + i * STRIDE_EPANECHNIKOV;
        cnt += bp[0] - bp[4];
        ax += bp[1] - bp[5];
        s += bp[2] - bp[6];
        for (int c = 0; c < STRIDE_EPANECHNIKOV; c++)
            bp[c] = 0.0;
        inner = cnt * ctx->xs2[i];
        inner -= ctx->x2[i] * ax;
        inner += s;
        out_row[i] = cnt - inner;
    }
    CLEAR_PAST_END(STRIDE_EPANECHNIKOV);
}

/* Quartic at qy = 0 (kernels.py fast path, b2 == b4 == 1). */
static void
row_quartic(const sweep_ctx *ctx, double k, Py_ssize_t lo, Py_ssize_t hi,
            double *out_row, double *scratch)
{
    const int64_t qoff = (ctx->num_pixels + 1) * NLIVE_QUARTIC;
    if (ctx->weights == NULL) {
        FOR_TILES({
            for (Py_ssize_t q = 0; q < m; q++) {
                Py_ssize_t p = t0 + q;
                double u = ctx->point_u[p];
                double v2 = vsq[q];
                SCATTER(NLIVE_QUARTIC, qoff, NLIVE_QUARTIC, {
                    double u2 = u * u;
                    double s = u2 + v2;
                    ch[0] = 1.0;
                    ch[1] = u;
                    ch[2] = s;
                    ch[3] = s * u;
                    ch[4] = s * s;
                    ch[5] = u2;
                });
            }
        });
    } else {
        FOR_TILES({
            for (Py_ssize_t q = 0; q < m; q++) {
                Py_ssize_t p = t0 + q;
                double u = ctx->point_u[p];
                double v2 = vsq[q];
                SCATTER(NLIVE_QUARTIC, qoff, NLIVE_QUARTIC, {
                    double w = ctx->weights[p];
                    double u2 = u * u;
                    double s = u2 + v2;
                    ch[0] = w;
                    ch[1] = u * w;
                    ch[2] = s * w;
                    ch[3] = (s * u) * w;
                    ch[4] = (s * s) * w;
                    ch[5] = u2 * w;
                });
            }
        });
    }
    double *ap = scratch;
    double *sp = scratch + qoff;
    double cnt = ap[0] - sp[0];
    double ax = ap[1] - sp[1];
    double s = ap[2] - sp[2];
    double cxa = ap[3] - sp[3];
    double qq = ap[4] - sp[4];
    double mxx = ap[5] - sp[5];
    for (int c = 0; c < NLIVE_QUARTIC; c++)
        ap[c] = sp[c] = 0.0;
    for (int64_t i = 0; i < ctx->num_pixels; i++) {
        if (i > 0) {
            ap = scratch + i * NLIVE_QUARTIC;
            sp = scratch + qoff + i * NLIVE_QUARTIC;
            cnt += ap[0] - sp[0];
            ax += ap[1] - sp[1];
            s += ap[2] - sp[2];
            cxa += ap[3] - sp[3];
            qq += ap[4] - sp[4];
            mxx += ap[5] - sp[5];
            for (int c = 0; c < NLIVE_QUARTIC; c++)
                ap[c] = sp[c] = 0.0;
        }
        double qx = ctx->xs[i];
        double qx2 = ctx->xs2[i];
        double q_dot_a = qx * ax;
        double sum_d2 = cnt * qx2;
        sum_d2 -= 2.0 * q_dot_a;
        sum_d2 += s;
        double sum_d4 = (cnt * qx2) * qx2;
        sum_d4 += 4.0 * (qx2 * mxx);
        sum_d4 += qq;
        sum_d4 += (2.0 * qx2) * s;
        sum_d4 -= (4.0 * qx2) * q_dot_a;
        sum_d4 -= 4.0 * (qx * cxa);
        out_row[i] = (cnt - 2.0 * sum_d2) + sum_d4;
    }
    ap = scratch + ctx->num_pixels * NLIVE_QUARTIC;
    sp = scratch + qoff + ctx->num_pixels * NLIVE_QUARTIC;
    for (int c = 0; c < NLIVE_QUARTIC; c++)
        ap[c] = sp[c] = 0.0;
}

static void
process_row(const sweep_ctx *ctx, int kernel_id, double k, double *out_row,
            double *scratch)
{
    Py_ssize_t lo = search_left(ctx->xy, ctx->n, k - ctx->bandwidth);
    Py_ssize_t hi = search_right(ctx->xy, ctx->n, k + ctx->bandwidth);
    if (hi <= lo) {
        /* Empty envelope: the serial loop's `continue` leaves the row
         * zero; `out` arrives uninitialized (np.empty), so write it.
         * Non-empty rows need no pre-zeroing -- the prefix loop stores
         * every pixel. */
        memset(out_row, 0, (size_t)ctx->num_pixels * sizeof(double));
        return;
    }
    switch (kernel_id) {
    case KERNEL_UNIFORM:
        row_uniform(ctx, k, lo, hi, out_row, scratch);
        break;
    case KERNEL_EPANECHNIKOV:
        row_epanechnikov(ctx, k, lo, hi, out_row, scratch);
        break;
    default:
        row_quartic(ctx, k, lo, hi, out_row, scratch);
        break;
    }
}

/* Returns 0 on success, -1 on scratch allocation failure. */
static int
sweep_impl(double *out, const double *ks, Py_ssize_t num_rows,
           sweep_ctx *ctx, int kernel_id, int threads)
{
    /* (X+1) interleaved bucket blocks, 64-aligned so the prefix loop's
     * whole-block loads/stores are single aligned vectors. */
    size_t scratch_bytes =
        (size_t)(ctx->num_pixels + 1) * STRIDE_MAX * sizeof(double);
    scratch_bytes = (scratch_bytes + 63) & ~(size_t)63;
    int oom = 0;

    /* Hoist the per-pair x normalization: u depends only on the point, not
     * the row, and each point participates in O(bandwidth / row gap) rows.
     * Same expression as the per-pair form, so the bits are unchanged.
     * The y column is deinterleaved alongside it so the hot tile loop
     * reads contiguous (vectorizable) streams. */
    size_t ncap = (size_t)(ctx->n > 0 ? ctx->n : 1);
    double *pu = malloc((2 * ncap + 2 * (size_t)ctx->num_pixels)
                        * sizeof(double));
    if (pu == NULL)
        return -1;
    double *py = pu + ncap;
    for (Py_ssize_t p = 0; p < ctx->n; p++) {
        pu[p] = (ctx->xy[2 * p] - ctx->cx) / ctx->bandwidth;
        py[p] = ctx->xy[2 * p + 1];
    }
    ctx->point_u = pu;
    ctx->point_y = py;
    /* Per-pixel constants shared by every row's density loop; the products
     * are the same single multiplications the reference performs per
     * pixel, hoisted out of the row loop. */
    double *xs2 = py + ncap;
    double *x2 = xs2 + ctx->num_pixels;
    for (int64_t i = 0; i < ctx->num_pixels; i++) {
        xs2[i] = ctx->xs[i] * ctx->xs[i];
        x2[i] = 2.0 * ctx->xs[i];
    }
    ctx->xs2 = xs2;
    ctx->x2 = x2;

#ifdef _OPENMP
#pragma omp parallel num_threads(threads)
    {
        double *scratch = ALIGNED_ALLOC(64, scratch_bytes);
        if (scratch == NULL) {
#pragma omp atomic write
            oom = 1;
        }
        else
            memset(scratch, 0, scratch_bytes);
#pragma omp for schedule(dynamic, 16)
        for (Py_ssize_t j = 0; j < num_rows; j++) {
            if (scratch != NULL && !oom)
                process_row(ctx, kernel_id, ks[j],
                            out + (size_t)j * ctx->num_pixels, scratch);
        }
        ALIGNED_FREE(scratch);
    }
#else
    (void)threads;
    double *scratch = ALIGNED_ALLOC(64, scratch_bytes);
    if (scratch == NULL)
        oom = 1;
    else {
        memset(scratch, 0, scratch_bytes);
        for (Py_ssize_t j = 0; j < num_rows; j++)
            process_row(ctx, kernel_id, ks[j],
                        out + (size_t)j * ctx->num_pixels, scratch);
        ALIGNED_FREE(scratch);
    }
#endif
    free(pu);
    return oom ? -1 : 0;
}

static PyObject *
py_sweep(PyObject *self, PyObject *args)
{
    Py_buffer out_b, ks_b, xs_b, xy_b, w_b;
    PyObject *w_obj;
    double cx, bandwidth;
    int kernel_id, threads;

    if (!PyArg_ParseTuple(args, "w*y*y*y*Oddii:sweep", &out_b, &ks_b, &xs_b,
                          &xy_b, &w_obj, &cx, &bandwidth, &kernel_id,
                          &threads))
        return NULL;

    const double *weights = NULL;
    int have_w = 0;
    if (w_obj != Py_None) {
        if (PyObject_GetBuffer(w_obj, &w_b, PyBUF_C_CONTIGUOUS) < 0)
            goto fail;
        have_w = 1;
        weights = (const double *)w_b.buf;
    }

    Py_ssize_t num_rows = ks_b.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t num_pixels = xs_b.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t n = xy_b.len / (Py_ssize_t)(2 * sizeof(double));
    if (out_b.len != num_rows * num_pixels * (Py_ssize_t)sizeof(double)
        || xy_b.len != n * (Py_ssize_t)(2 * sizeof(double))
        || (have_w && w_b.len != n * (Py_ssize_t)sizeof(double))) {
        PyErr_SetString(PyExc_ValueError, "inconsistent buffer sizes");
        goto fail;
    }
    if (kernel_id < KERNEL_UNIFORM || kernel_id > KERNEL_QUARTIC) {
        PyErr_Format(PyExc_ValueError, "unknown kernel id %d", kernel_id);
        goto fail;
    }
    if (threads < 1)
        threads = 1;

    int status = 0;
    if (num_rows > 0 && num_pixels > 0) {
        sweep_ctx ctx;
        ctx.xs = (const double *)xs_b.buf;
        ctx.num_pixels = (int64_t)num_pixels;
        ctx.x0 = ctx.xs[0];
        ctx.gx = num_pixels > 1 ? ctx.xs[1] - ctx.xs[0] : 1.0;
        ctx.xy = (const double *)xy_b.buf;
        ctx.n = n;
        ctx.weights = weights;
        ctx.cx = cx;
        ctx.bandwidth = bandwidth;

        double *out = (double *)out_b.buf;
        const double *ks = (const double *)ks_b.buf;
        Py_BEGIN_ALLOW_THREADS
        status = sweep_impl(out, ks, num_rows, &ctx, kernel_id, threads);
        Py_END_ALLOW_THREADS
    }

    if (have_w)
        PyBuffer_Release(&w_b);
    PyBuffer_Release(&out_b);
    PyBuffer_Release(&ks_b);
    PyBuffer_Release(&xs_b);
    PyBuffer_Release(&xy_b);
    if (status != 0)
        return PyErr_NoMemory();
    Py_RETURN_NONE;

fail:
    if (have_w)
        PyBuffer_Release(&w_b);
    PyBuffer_Release(&out_b);
    PyBuffer_Release(&ks_b);
    PyBuffer_Release(&xs_b);
    PyBuffer_Release(&xy_b);
    return NULL;
}

static PyObject *
py_max_threads(PyObject *self, PyObject *noargs)
{
#ifdef _OPENMP
    return PyLong_FromLong(omp_get_max_threads());
#else
    return PyLong_FromLong(1);
#endif
}

static PyMethodDef native_methods[] = {
    {"sweep", py_sweep, METH_VARARGS,
     "sweep(out, ks, xs, sorted_xy, weights_or_None, cx, bandwidth, "
     "kernel_id, threads)\n\n"
     "Fill the (rows, X) float64 grid `out` (which may be uninitialized --\n"
     "every pixel is stored) with the unscaled bucket-sweep densities,\n"
     "bit-identical to slam_bucket_row_numpy.\n"
     "All array arguments must be C-contiguous float64 buffers."},
    {"max_threads", py_max_threads, METH_NOARGS,
     "OpenMP thread budget (1 when compiled without OpenMP)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "_native_sweep",
    "Fused C bucket-sweep core; see repro.core.native for the engine API.",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native_sweep(void)
{
    PyObject *m = PyModule_Create(&native_module);
    if (m == NULL)
        return NULL;
#ifdef _OPENMP
    if (PyModule_AddIntConstant(m, "OPENMP", 1) < 0)
#else
    if (PyModule_AddIntConstant(m, "OPENMP", 0) < 0)
#endif
    {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
