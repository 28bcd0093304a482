"""Optional compiled fast paths: packed-ensemble traversal and boosting fits.

Two kernels live in one C source, compiled once per machine with the
system C compiler via cffi's ABI mode (no Python headers needed) and
cached under the temp directory, keyed by a hash of the source *and*
the compile command:

* ``repro_packed_predict`` walks a packed ensemble per row.  Branchy
  pointer chasing over a node table that fits in L1 is the worst shape
  for numpy and the best for a short C loop.
* ``repro_gbt_fit`` runs every boosting round of one
  :class:`~repro.ml.boosting.GradientBoostedTrees` fit: gradients,
  exact greedy tree growth over the presorted ranks, and the prediction
  update.  Small fits otherwise spend nearly all their time in Python
  and numpy call overhead, a few dozen calls per tree node.

Both are numerically *identical* to their numpy counterparts, which
stay as fallback and test oracle.  The traversal uses the same float64
``x <= threshold`` comparisons (NaN goes right) and the same
left-associated per-row accumulation ``((base + v_0) + v_1) + ...`` in
tree order.  The fit reproduces numpy's pairwise summation for node
gradient sums, sequential prefix sums in stable (rank, node position)
order for the split scan, ``argmax``'s first-maximum and NaN rules, the
strictly-greater-than-γ scan across features, and depth-first node
numbering.  The fit multiplies and adds, so the source is compiled with
``-ffp-contract=off``: no fused multiply-add may change a rounding.

The kernels keep no global state and cffi releases the GIL around each
call, so threads can fit and predict concurrently.

Everything is gated: no cffi, no compiler, a failed compile, or
``REPRO_NO_NATIVE=1`` all make :func:`packed_predict` and
:func:`gbt_fit` return ``None``, and callers use the pure-numpy paths.
Tests exercise both paths against each other.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile

import numpy as np

__all__ = ["available", "gbt_fit", "packed_predict"]

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One level of descent; leaves self-loop (threshold = +inf, left =
   self), so walking a fixed max_depth levels parks every row on its
   leaf.  NaN features compare false and go right, as in numpy. */
#define STEP(nd) \
    (x_row[feature[nd]] <= threshold[nd] ? left[nd] : right[nd])

void repro_packed_predict(
    const double *x, long long n, long long d,
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    const double *value,
    const int32_t *roots, long long n_trees, long long max_depth,
    double base, double *out)
{
    for (long long i = 0; i < n; ++i) {
        const double *x_row = x + i * d;
        double acc = base;
        long long t = 0;
        /* Four independent walks in flight per row to overlap the
           dependent-load latency of single-tree descent.  The leaf
           values are still accumulated one at a time in tree order —
           separate statements, so the compiler cannot reassociate the
           float additions. */
        for (; t + 4 <= n_trees; t += 4) {
            int32_t n0 = roots[t];
            int32_t n1 = roots[t + 1];
            int32_t n2 = roots[t + 2];
            int32_t n3 = roots[t + 3];
            for (long long l = 0; l < max_depth; ++l) {
                n0 = STEP(n0);
                n1 = STEP(n1);
                n2 = STEP(n2);
                n3 = STEP(n3);
            }
            acc += value[n0];
            acc += value[n1];
            acc += value[n2];
            acc += value[n3];
        }
        for (; t < n_trees; ++t) {
            int32_t nd = roots[t];
            for (long long l = 0; l < max_depth; ++l)
                nd = STEP(nd);
            acc += value[nd];
        }
        out[i] = acc;
    }
}

/* numpy's pairwise summation of a contiguous float64 array: 8
   accumulators over blocks of up to 128 elements, longer runs split in
   half at a multiple of 8.  The reduction starts from the additive
   identity, hence the 0.0 + in the caller. */
static double pairwise_sum(const double *a, long long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long long i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long long i;
        for (int k = 0; k < 8; ++k)
            r[k] = a[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; ++k)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    long long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Nodes up to this many rows sort by insertion; larger ones by LSD
   radix on the rank bytes.  Both are stable, so either yields numpy's
   stable argsort order: by rank, ties by node position. */
#define INSERTION_MAX 32

typedef struct {
    const double *x;       /* n x d, row-major */
    const int32_t *rank;   /* d x n, column-major presorted ranks */
    const double *grad;    /* n */
    long long n, d;
    const int64_t *cols;   /* this round's n_cols feature columns */
    long long n_cols;
    long long max_depth, min_leaf;
    double min_child_weight, lam, gamma;
    /* scratch, n_rows entries each */
    int64_t *tmp_rows;
    int32_t *key, *ord, *ord_tmp, *best_ord;
    double *gbuf;
    /* this tree's node arrays */
    int64_t *feature, *left, *right;
    double *threshold, *value;
    long long n_nodes;
} Fit;

static void stable_argsort(Fit *f, long long m, int32_t **ord_io)
{
    const int32_t *key = f->key;
    int32_t *ord = *ord_io;
    if (m <= INSERTION_MAX) {
        for (long long i = 0; i < m; ++i) {
            int32_t v = (int32_t)i;
            int32_t k = key[i];
            long long j = i;
            while (j > 0 && key[ord[j - 1]] > k) {
                ord[j] = ord[j - 1];
                --j;
            }
            ord[j] = v;
        }
        return;
    }
    int32_t lo = key[0], hi = key[0];
    for (long long i = 1; i < m; ++i) {
        if (key[i] < lo) lo = key[i];
        if (key[i] > hi) hi = key[i];
    }
    for (long long i = 0; i < m; ++i)
        ord[i] = (int32_t)i;
    uint32_t span = (uint32_t)(hi - lo);
    int32_t *src = ord, *dst = f->ord_tmp;
    for (int shift = 0; shift < 32 && (span >> shift) != 0; shift += 8) {
        long long count[257];
        memset(count, 0, sizeof count);
        for (long long i = 0; i < m; ++i)
            ++count[(((uint32_t)(key[src[i]] - lo)) >> shift & 255) + 1];
        for (int b = 0; b < 256; ++b)
            count[b + 1] += count[b];
        for (long long i = 0; i < m; ++i) {
            int32_t p = src[i];
            dst[count[((uint32_t)(key[p] - lo)) >> shift & 255]++] = p;
        }
        int32_t *t = src;
        src = dst;
        dst = t;
    }
    /* The result lives in src; hand the other buffer back as scratch. */
    if (src != ord) {
        f->ord_tmp = ord;
        *ord_io = src;
    }
}

static long long new_node(Fit *f)
{
    long long id = f->n_nodes++;
    f->feature[id] = -1;
    f->threshold[id] = NAN;
    f->left[id] = -1;
    f->right[id] = -1;
    f->value[id] = 0.0;
    return id;
}

static void build(Fit *f, int64_t *seg, long long m, long long depth,
                  long long node)
{
    double *g = f->gbuf;
    for (long long p = 0; p < m; ++p)
        g[p] = f->grad[seg[p]];
    const double G = 0.0 + pairwise_sum(g, m);
    const double H = (double)m;
    const double lam = f->lam;
    f->value[node] = (H + lam) > 0 ? -G / (H + lam) : 0.0;
    if (depth >= f->max_depth || m < 2 * f->min_leaf)
        return;

    const double parent = G * G / (H + lam);
    const double mcw = f->min_child_weight;
    const long long lo = f->min_leaf - 1, hi = m - f->min_leaf;
    double best_gain = f->gamma;
    long long best_c = -1, best_b = 0;
    for (long long c = 0; c < f->n_cols; ++c) {
        const int32_t *rank = f->rank + f->cols[c] * f->n;
        int32_t *key = f->key;
        for (long long p = 0; p < m; ++p)
            key[p] = rank[seg[p]];
        stable_argsort(f, m, &f->ord);
        const int32_t *ord = f->ord;
        /* First maximum over the boundaries [lo, hi), as argmax.  A NaN
           gain is argmax's pick, and then fails the > comparison below,
           so its feature drops out. */
        double GL = g[ord[0]];
        double col_best = -INFINITY;
        long long col_arg = -1;
        for (long long i = 0; i < hi; ++i) {
            if (i > 0)
                GL += g[ord[i]];
            if (i < lo)
                continue;
            const double HL = (double)(i + 1);
            const double GR = G - GL;
            const double HR = H - HL;
            double gain = -INFINITY;
            if (key[ord[i + 1]] != key[ord[i]] && HL >= mcw && H - HL >= mcw)
                gain = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam)
                              - parent);
            if (isnan(gain)) {
                col_best = gain;
                break;
            }
            if (col_arg < 0 || gain > col_best) {
                col_best = gain;
                col_arg = i;
            }
        }
        if (col_best > best_gain) {
            best_gain = col_best;
            best_c = c;
            best_b = col_arg;
            int32_t *t = f->best_ord;
            f->best_ord = f->ord;
            f->ord = t;
        }
    }
    if (best_c < 0)
        return;

    for (long long p = 0; p < m; ++p)
        f->tmp_rows[p] = seg[f->best_ord[p]];
    memcpy(seg, f->tmp_rows, (size_t)m * sizeof *seg);
    const long long j = f->cols[best_c];
    f->feature[node] = best_c;
    f->threshold[node] =
        0.5 * (f->x[seg[best_b] * f->d + j] + f->x[seg[best_b + 1] * f->d + j]);
    const long long left_id = new_node(f);
    const long long right_id = new_node(f);
    f->left[node] = left_id;
    f->right[node] = right_id;
    build(f, seg, best_b + 1, depth + 1, left_id);
    build(f, seg + best_b + 1, m - best_b - 1, depth + 1, right_id);
}

int repro_gbt_fit(
    const double *x, const int32_t *rank, const double *target,
    long long n, long long d,
    const int64_t *rows, long long n_rows,
    const int64_t *cols, long long n_cols,
    long long n_rounds, double base, double learning_rate,
    long long max_depth, long long min_samples_leaf,
    double min_child_weight, double reg_lambda, double gamma,
    long long capacity,
    int64_t *feature, double *threshold, int64_t *left, int64_t *right,
    double *value, int64_t *n_nodes)
{
    Fit f;
    f.x = x;
    f.rank = rank;
    f.n = n;
    f.d = d;
    f.n_cols = n_cols;
    f.max_depth = max_depth;
    f.min_leaf = min_samples_leaf;
    f.min_child_weight = min_child_weight;
    f.lam = reg_lambda;
    f.gamma = gamma;
    double *pred = malloc((size_t)n * sizeof *pred);
    double *grad = malloc((size_t)n * sizeof *grad);
    int64_t *seg = malloc((size_t)n_rows * sizeof *seg);
    f.tmp_rows = malloc((size_t)n_rows * sizeof *f.tmp_rows);
    f.gbuf = malloc((size_t)n_rows * sizeof *f.gbuf);
    int32_t *ibuf = malloc((size_t)n_rows * 4 * sizeof *ibuf);
    int status = -1;
    if (!pred || !grad || !seg || !f.tmp_rows || !f.gbuf || !ibuf)
        goto done;
    f.grad = grad;
    f.key = ibuf;
    f.ord = ibuf + n_rows;
    f.ord_tmp = ibuf + 2 * n_rows;
    f.best_ord = ibuf + 3 * n_rows;
    for (long long i = 0; i < n; ++i)
        pred[i] = base;
    for (long long r = 0; r < n_rounds; ++r) {
        for (long long i = 0; i < n; ++i)
            grad[i] = pred[i] - target[i];
        for (long long k = 0; k < n_rows; ++k)
            seg[k] = rows ? rows[r * n_rows + k] : k;
        f.cols = cols + r * n_cols;
        f.feature = feature + r * capacity;
        f.threshold = threshold + r * capacity;
        f.left = left + r * capacity;
        f.right = right + r * capacity;
        f.value = value + r * capacity;
        f.n_nodes = 0;
        build(&f, seg, n_rows, 0, new_node(&f));
        n_nodes[r] = f.n_nodes;
        /* pred + learning_rate * tree.predict(X[:, cols]) */
        for (long long i = 0; i < n; ++i) {
            const double *x_row = x + i * d;
            long long nd = 0;
            while (f.left[nd] != -1)
                nd = x_row[f.cols[f.feature[nd]]] <= f.threshold[nd]
                         ? f.left[nd] : f.right[nd];
            pred[i] = pred[i] + learning_rate * f.value[nd];
        }
    }
    status = 0;
done:
    free(pred);
    free(grad);
    free(seg);
    free(f.tmp_rows);
    free(f.gbuf);
    free(ibuf);
    return status;
}
"""

_CDEF = """
void repro_packed_predict(
    const double *x, long long n, long long d,
    const int32_t *feature, const double *threshold,
    const int32_t *left, const int32_t *right,
    const double *value,
    const int32_t *roots, long long n_trees, long long max_depth,
    double base, double *out);

int repro_gbt_fit(
    const double *x, const int32_t *rank, const double *target,
    long long n, long long d,
    const int64_t *rows, long long n_rows,
    const int64_t *cols, long long n_cols,
    long long n_rounds, double base, double learning_rate,
    long long max_depth, long long min_samples_leaf,
    double min_child_weight, double reg_lambda, double gamma,
    long long capacity,
    int64_t *feature, double *threshold, int64_t *left, int64_t *right,
    double *value, int64_t *n_nodes);
"""

#: The compile command, part of the cached object's tag so a flag change
#: rebuilds.  ``-ffp-contract=off`` keeps ``a * b + c`` two roundings, as
#: in numpy.
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: ``None`` = not attempted yet; ``False`` = unavailable; else (ffi, lib).
_state: object = None


def _build() -> object:
    if os.environ.get("REPRO_NO_NATIVE"):
        return False
    try:
        import cffi
    except ImportError:
        return False
    tag = hashlib.sha256(
        "\0".join([_SOURCE, *_COMPILE]).encode()
    ).hexdigest()[:16]
    so_path = os.path.join(
        tempfile.gettempdir(), f"repro-ml-{tag}-{os.getuid()}.so"
    )
    try:
        if not os.path.exists(so_path):
            build_dir = tempfile.mkdtemp(prefix="repro-ml-build-")
            src = os.path.join(build_dir, "kernels.c")
            tmp_so = os.path.join(build_dir, "kernels.so")
            with open(src, "w") as fh:
                fh.write(_SOURCE)
            subprocess.run(
                [*_COMPILE, "-o", tmp_so, src],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_so, so_path)  # atomic: racers converge on one file
        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        lib = ffi.dlopen(so_path)
    except (OSError, subprocess.SubprocessError, cffi.FFIError):
        return False
    return (ffi, lib)


def _get() -> object:
    global _state
    if _state is None:
        _state = _build()
    return _state


def available() -> bool:
    """Whether the compiled kernel can be used in this process."""
    return _get() is not False


def packed_predict(packed, X: np.ndarray, base_score: float):
    """Compiled ensemble prediction, or ``None`` if unavailable.

    ``X`` must already be validated, float64 and 2-D; node arrays are
    normalised to the contiguous int32/float64 layout the kernel expects
    (a no-op for ensembles packed by current code).
    """
    state = _get()
    if state is False:
        return None
    ffi, lib = state
    X = np.ascontiguousarray(X)
    feature = np.ascontiguousarray(packed.feature, dtype=np.int32)
    left = np.ascontiguousarray(packed.left, dtype=np.int32)
    right = np.ascontiguousarray(packed.right, dtype=np.int32)
    roots = np.ascontiguousarray(packed.roots, dtype=np.int32)
    threshold = np.ascontiguousarray(packed.threshold, dtype=np.float64)
    value = np.ascontiguousarray(packed.value, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    lib.repro_packed_predict(
        ffi.from_buffer("double[]", X),
        X.shape[0],
        X.shape[1],
        ffi.from_buffer("int32_t[]", feature),
        ffi.from_buffer("double[]", threshold),
        ffi.from_buffer("int32_t[]", left),
        ffi.from_buffer("int32_t[]", right),
        ffi.from_buffer("double[]", value),
        ffi.from_buffer("int32_t[]", roots),
        roots.size,
        packed.max_depth,
        float(base_score),
        ffi.from_buffer("double[]", out),
    )
    return out


def gbt_fit(
    X: np.ndarray,
    ranks: np.ndarray,
    target: np.ndarray,
    rows,
    cols,
    *,
    base: float,
    learning_rate: float,
    max_depth: int,
    min_samples_leaf: int,
    min_child_weight: float,
    reg_lambda: float,
    gamma: float,
):
    """Every boosting round of one fit in one compiled call, or ``None``.

    ``ranks`` are ``X``'s presorted per-feature ranks
    (:func:`repro.ml.tree._feature_group_ids`).  ``rows`` holds each
    round's row subset, or is ``None`` when every round uses all rows in
    order; ``cols`` holds each round's sorted column subset.  Returns one
    ``(feature, threshold, left, right, value)`` tuple per tree, in the
    int64/float64 node layout of :class:`~repro.ml.tree.RegressionTree`.
    Raises ``ValueError`` on inputs the kernel would index out of bounds.
    """
    state = _get()
    if state is False:
        return None
    ffi, lib = state
    n, d = X.shape
    X = np.ascontiguousarray(X, dtype=np.float64)
    rank = np.ascontiguousarray(ranks.T, dtype=np.int32)
    target = np.ascontiguousarray(target, dtype=np.float64)
    cols = np.ascontiguousarray(np.stack(cols), dtype=np.int64)
    n_rounds, n_cols = cols.shape
    if rows is None:
        n_rows, rows_ptr = n, ffi.NULL
    else:
        rows = np.ascontiguousarray(np.stack(rows), dtype=np.int64)
        n_rows, rows_ptr = rows.shape[1], ffi.from_buffer("int64_t[]", rows)
        if rows.shape[0] != n_rounds or rows.min() < 0 or rows.max() >= n:
            raise ValueError("row subsets do not index X's rows")
    if rank.shape != (d, n) or target.shape != (n,):
        raise ValueError("ranks and target must match X")
    if n_cols < 1 or cols.min() < 0 or cols.max() >= d:
        raise ValueError("column subsets do not index X's columns")
    if max_depth < 0 or min_samples_leaf < 1:
        raise ValueError("max_depth must be >= 0 and min_samples_leaf >= 1")
    # Every leaf holds at least one row, and a depth-k tree at most
    # 2^(k+1) - 1 nodes.
    capacity = min(2 * n_rows - 1, 2 ** (max_depth + 1) - 1)
    feature = np.empty((n_rounds, capacity), dtype=np.int64)
    threshold = np.empty((n_rounds, capacity), dtype=np.float64)
    left = np.empty((n_rounds, capacity), dtype=np.int64)
    right = np.empty((n_rounds, capacity), dtype=np.int64)
    value = np.empty((n_rounds, capacity), dtype=np.float64)
    n_nodes = np.empty(n_rounds, dtype=np.int64)
    status = lib.repro_gbt_fit(
        ffi.from_buffer("double[]", X),
        ffi.from_buffer("int32_t[]", rank),
        ffi.from_buffer("double[]", target),
        n,
        d,
        rows_ptr,
        n_rows,
        ffi.from_buffer("int64_t[]", cols),
        n_cols,
        n_rounds,
        float(base),
        float(learning_rate),
        max_depth,
        min_samples_leaf,
        float(min_child_weight),
        float(reg_lambda),
        float(gamma),
        capacity,
        ffi.from_buffer("int64_t[]", feature),
        ffi.from_buffer("double[]", threshold),
        ffi.from_buffer("int64_t[]", left),
        ffi.from_buffer("int64_t[]", right),
        ffi.from_buffer("double[]", value),
        ffi.from_buffer("int64_t[]", n_nodes),
    )
    if status != 0:  # out of memory: let the numpy loop try
        return None
    return [
        tuple(a[t, :k].copy() for a in (feature, threshold, left, right, value))
        for t, k in enumerate(n_nodes.tolist())
    ]
