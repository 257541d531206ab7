"""Popcount kernels behind the bit-packed similarity engine.

Two interchangeable backends compute the ``(n, m)`` pair matrix of
``popcount(q AND r)`` (binary dot similarity) or ``popcount(q XOR r)``
(Hamming distance) over ``uint64``-packed hypervectors:

``numpy``
    A cache-blocked pure-numpy kernel built on :func:`numpy.bitwise_count`.
    Always available; used as the correctness reference.

``native``
    A small C kernel compiled on first use with the system C compiler
    (``cc``/``gcc``) and loaded through :mod:`ctypes`.  On a typical x86-64
    host the hardware ``popcnt`` path is an order of magnitude faster than
    the blocked numpy kernel because the ``(n, m, W)`` AND/XOR intermediate
    never materializes.  The build probes a ladder of compiler-flag tiers
    (``-march=native`` then ``-mavx2`` then portable ``-O3``), scores the
    AM in cache-blocked tiles so a reference tile stays resident across
    query rows.  It runs on the calling thread: ctypes releases the GIL
    for the call, so ``InferencePipeline(workers=)`` shards large batches.
    Compilation happens once per machine into a content-addressed cache
    directory under the system temp dir; any failure (no compiler,
    sandboxed filesystem, exotic platform) silently falls back to the
    numpy backend.

Two more kernels serve associative search and training.
:class:`RowSearch` is the fused search: for each query, the first best row
(``np.argmax``'s tie rule), and optionally the first best row of the
query's own class, without the ``(n, m)`` score matrix.  It sweeps a
word-major copy of the references, built once per reference set.
:func:`ordered_accumulate` is the Eq. (6) update, added in
``np.add.at``'s order.  The library is built with ``-ffp-contract=off``,
so every product and sum is rounded as numpy rounds it.  The numpy
backend reduces the pair counts for the search; ``ordered_accumulate``
is native only, and its callers keep a numpy path.

The same library carries the exact-sign encoder's ``sign_pack`` kernel
(:class:`SignPacker`): one pass over a row of float32 projection sums
that certifies each sign against an error bound, recomputes the
uncertified ones in float64 from the projection's bits and packs the
sign and "still open" bits.  Its numpy twin gives the same words and the
same open bits.  ``sign_encode`` computes those float32 sums itself, by
table lookup from the bits, before the same certification; it is native
only, and the numpy backend keeps the GEMM.

The k-means initialization's certified assignment is
:func:`certified_argmax`: each row's first best cluster of exact integer
scores over cluster sizes, kept only when every other cluster is clear of
it by a caller-given ratio (``hdc/clustering.py`` sizes it to float64's
error bound), else a fallback.  Its numpy twin makes the same decisions.
The same k-means scores its seeding, its first iteration and its
moved-row score updates with :func:`and_popcount` over a class's packed
samples.

Environment knobs
-----------------
``REPRO_PACKED_BACKEND``
    ``auto`` (default) / ``native`` / ``numpy``: backend selection.
``REPRO_PACKED_TIER``
    ``auto`` (default) probes ``native`` -> ``avx2`` -> ``portable`` in
    order; naming a tier pins it (falling back to numpy if that tier does
    not compile).

Both are read once per process, when the first kernel call resolves the
backend and binds the native entry points; later calls read only that
resolved state.  :func:`set_backend` pins a backend at runtime (the
equivalence tests compare backends this way), and
:func:`reset_native_cache` drops the resolved state so a changed
environment or ``CC`` is honoured by the next call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from typing import Dict, Optional, Tuple

import numpy as np

#: Words of the numpy kernel's blocked AND/XOR intermediate (block * m * W):
#: 2 MB, cache-resident.  A 128-row, 128-word AM takes 16 query rows per
#: block; one reference row of a few words takes every query at once.
_NUMPY_BLOCK_WORDS = 16 * 128 * 128

#: Compiler-flag tiers probed in order under ``REPRO_PACKED_TIER=auto``.
TIERS = ("native", "avx2", "portable")

#: Flags of every tier.  ``-ffp-contract=off`` keeps each product and
#: sum separately rounded, as numpy rounds them: ``ordered_accumulate``
#: must not fuse ``t += scale * v`` into an FMA.
_COMMON_FLAGS = ["-O3", "-funroll-loops", "-ffp-contract=off", "-shared", "-fPIC"]

_TIER_FLAGS = {
    "native": ["-march=native"],
    "avx2": ["-mavx2"],
    "portable": [],
}

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>
#include <string.h>
#include <math.h>

/* AM rows per tile: one tile of reference vectors stays hot in L1/L2
 * while every query row streams over it. */
#define TILE_ROWS 16

enum { OP_AND = 0, OP_XOR = 1 };

void pair_popcount(const uint64_t* q, const uint64_t* r, int64_t* out,
                   size_t n, size_t m, size_t words, int op) {
    for (size_t j0 = 0; j0 < m; j0 += TILE_ROWS) {
        size_t j1 = j0 + TILE_ROWS < m ? j0 + TILE_ROWS : m;
        for (size_t i = 0; i < n; ++i) {
            const uint64_t* qi = q + i * words;
            int64_t* oi = out + i * m;
            for (size_t j = j0; j < j1; ++j) {
                const uint64_t* rj = r + j * words;
                uint64_t acc = 0;
                if (op == OP_AND) {
                    for (size_t w = 0; w < words; ++w)
                        acc += (uint64_t)__builtin_popcountll(qi[w] & rj[w]);
                } else {
                    for (size_t w = 0; w < words; ++w)
                        acc += (uint64_t)__builtin_popcountll(qi[w] ^ rj[w]);
                }
                oi[j] = (int64_t)acc;
            }
        }
    }
}

/* Fused associative search over word-major references: word w of row j
 * sits at rt[w * m + j], so each query word meets every row in one
 * contiguous, vectorizable sweep over the query's m counts.  best[i] is
 * the first row with the highest popcount(q AND r) (OP_AND) or the lowest
 * popcount(q XOR r) (OP_XOR): np.argmax's tie rule on the score matrix,
 * which is never built.  One reduction finds it, over keys that order by
 * count and then by lower row: the largest (count << 32) | ~row for
 * OP_AND, the smallest (count << 32) | row for OP_XOR.  When labels is
 * not NULL, own[i] is the same search over the rows of class labels[i],
 * listed ascending in class_rows[class_start[c] .. class_start[c + 1]];
 * it is -1 when labels[i] is not in [0, classes) or owns no row.  counts
 * is caller scratch for m entries. */
static void query_counts(const uint64_t* restrict qi, const uint64_t* restrict rt,
                         uint64_t* restrict counts, size_t m, size_t words, int op) {
    if (op == OP_AND) {
        for (size_t j = 0; j < m; ++j)
            counts[j] = (uint64_t)__builtin_popcountll(qi[0] & rt[j]);
        for (size_t w = 1; w < words; ++w)
            for (size_t j = 0; j < m; ++j)
                counts[j] += (uint64_t)__builtin_popcountll(qi[w] & rt[w * m + j]);
    } else {
        for (size_t j = 0; j < m; ++j)
            counts[j] = (uint64_t)__builtin_popcountll(qi[0] ^ rt[j]);
        for (size_t w = 1; w < words; ++w)
            for (size_t j = 0; j < m; ++j)
                counts[j] += (uint64_t)__builtin_popcountll(qi[w] ^ rt[w * m + j]);
    }
}

static int64_t first_best(const uint64_t* counts, size_t m, int op) {
    if (op == OP_AND) {
        uint64_t top = 0;
        for (size_t j = 0; j < m; ++j) {
            const uint64_t key = (counts[j] << 32) | (uint32_t)~(uint32_t)j;
            top = key > top ? key : top;
        }
        return (int64_t)(uint32_t)~(uint32_t)top;
    }
    uint64_t low = ~(uint64_t)0;
    for (size_t j = 0; j < m; ++j) {
        const uint64_t key = (counts[j] << 32) | (uint32_t)j;
        low = key < low ? key : low;
    }
    return (int64_t)(uint32_t)low;
}

void best_rows(const uint64_t* q, const uint64_t* rt, uint64_t* counts,
               const int64_t* class_start, const int64_t* class_rows,
               const int64_t* labels, int64_t* best, int64_t* own,
               size_t n, size_t m, size_t words, size_t classes, int op) {
    for (size_t i = 0; i < n; ++i) {
        query_counts(q + i * words, rt, counts, m, words, op);
        best[i] = first_best(counts, m, op);
        if (labels == NULL)
            continue;
        const int64_t c = labels[i];
        int64_t pick = -1;
        if (c >= 0 && (size_t)c < classes) {
            for (int64_t p = class_start[c]; p < class_start[c + 1]; ++p) {
                const int64_t j = class_rows[p];
                if (pick < 0 || (op == OP_AND ? counts[j] > counts[pick]
                                              : counts[j] < counts[pick]))
                    pick = j;
            }
        }
        own[i] = pick;
    }
}

/* Eq. (6) accumulate in np.add.at's order: target row rows[i] (length
 * dim) += scale * vectors[i], strictly for i = 0, 1, ..., one rounding
 * per product and one per sum (the build disables FMA contraction).
 * elem names the vectors' type: 0 double, 1 int8. */
void ordered_accumulate(double* target, const int64_t* rows, const void* vectors,
                        size_t n, size_t dim, double scale, int elem) {
    for (size_t i = 0; i < n; ++i) {
        double* t = target + (size_t)rows[i] * dim;
        if (elem == 0) {
            const double* v = (const double*)vectors + i * dim;
            for (size_t d = 0; d < dim; ++d)
                t[d] += scale * v[d];
        } else {
            const int8_t* v = (const int8_t*)vectors + i * dim;
            for (size_t d = 0; d < dim; ++d)
                t[d] += scale * (double)v[d];
        }
    }
}

/* Certified k-means assignment over the (n, k) scores p (float32 when
 * elem is 1, else double) and the k positive cluster sizes.  best[i] is
 * the first largest p_ij * inv_j, with inv_j = 1 / sizes[j] (rounded
 * once per cluster); the row is certified when that score is 0 (every
 * score is then 0) or p_ij * sizes[best] < (p_i,best * sizes[j]) * ratio
 * for every other j: no division in the sweep.  Returns 1 when every row
 * is certified, else 0 at the first row that is not.  scratch holds 2k
 * doubles. */
int64_t certified_argmax(const void* p, const double* sizes, double* scratch,
                         int64_t* best, size_t n, size_t k, double ratio, int elem) {
    double* inv = scratch;
    double* row = scratch + k;
    for (size_t j = 0; j < k; ++j)
        inv[j] = 1.0 / sizes[j];
    for (size_t i = 0; i < n; ++i) {
        if (elem) {
            const float* pi = (const float*)p + i * k;
            for (size_t j = 0; j < k; ++j)
                row[j] = (double)pi[j];
        } else {
            memcpy(row, (const double*)p + i * k, k * sizeof(double));
        }
        double top = row[0] * inv[0];
        size_t pick = 0;
        for (size_t j = 1; j < k; ++j) {
            const double score = row[j] * inv[j];
            const int better = score > top;
            top = better ? score : top;
            pick = better ? j : pick;
        }
        best[i] = (int64_t)pick;
        const double mine = row[pick], size = sizes[pick];
        if (mine == 0.0)
            continue;
        int open = 0;
        for (size_t j = 0; j < k; ++j)
            open |= (j != pick) & !(row[j] * size < (mine * sizes[j]) * ratio);
        if (open)
            return 0;
    }
    return 1;
}

/* Shortlist re-rank for the pruned engine: each query scores only the row
 * groups named by its CSR candidate list and keeps the running best
 * (metric, original row) pair.  The metric is popcount(q AND r) for OP_AND
 * and -popcount(q XOR r) for OP_XOR, so "bigger metric wins, equal metric
 * and lower original row wins" reproduces the full scan's argmax tie rule
 * in both alphabets. */
void sparse_scan(const uint64_t* q, const uint64_t* r,
                 const int64_t* group_start, const int64_t* orig_row,
                 const int64_t* list_start, const int64_t* list_groups,
                 int64_t* best_metric, int64_t* best_row,
                 size_t n, size_t words, int op) {
    for (size_t i = 0; i < n; ++i) {
        const uint64_t* qi = q + i * words;
        int64_t bm = best_metric[i];
        int64_t br = best_row[i];
        for (int64_t p = list_start[i]; p < list_start[i + 1]; ++p) {
            int64_t g = list_groups[p];
            for (int64_t j = group_start[g]; j < group_start[g + 1]; ++j) {
                const uint64_t* rj = r + (size_t)j * words;
                uint64_t acc = 0;
                if (op == OP_AND) {
                    for (size_t w = 0; w < words; ++w)
                        acc += (uint64_t)__builtin_popcountll(qi[w] & rj[w]);
                } else {
                    for (size_t w = 0; w < words; ++w)
                        acc += (uint64_t)__builtin_popcountll(qi[w] ^ rj[w]);
                }
                int64_t metric = (op == OP_AND) ? (int64_t)acc : -(int64_t)acc;
                int64_t row = orig_row[j];
                if (metric > bm || (metric == bm && row < br)) {
                    bm = metric;
                    br = row;
                }
            }
        }
        best_metric[i] = bm;
        best_row[i] = br;
    }
}

/* Certified sign packing for the exact-sign encoder.  Row i of the
 * float64 features x has float32 sums s_j of the terms M_kj * float32(x_k).
 * The +-1 projection M is held as bits, column-major: byte g of column j,
 * bits[j * groups + g], has bit k set when M_(8g+k),j = +1 (pad bits are
 * 0).  With the row's norm ||x||_1 (in float64):
 *   - a row whose norm is not below `limit` (or is NaN) is left open;
 *   - an all-zero row sums to exactly 0: every bit is 1;
 *   - otherwise an entry with |s| above rel32 * norm + abs32, rounded up
 *     to float32, takes the sign of s (float32 tier); any other entry is
 *     recomputed in float64 from its column's bits and takes the sign of
 *     that sum v when |v| > rel64 * norm + abs64 (float64 tier), or is
 *     open.
 * `out` holds the n x nwords sign words, then the n x nwords open words;
 * tail bits past d stay zero.  Both entry points return the number of
 * open entries.  Sums run in four interleaved partial sums, an order the
 * numpy twin reproduces, and `volatile` keeps the bounds free of FMA
 * contraction. */
static double abs_sum(const double* a, size_t f) {
    double part[4] = {0.0, 0.0, 0.0, 0.0};
    size_t k = 0;
    for (; k + 4 <= f; k += 4)
        for (int j = 0; j < 4; ++j)
            part[j] += fabs(a[k + j]);
    for (; k < f; ++k)
        part[0] += fabs(a[k]);
    return (part[0] + part[1]) + (part[2] + part[3]);
}

/* sign_masks[t][k] flips a double's sign bit unless bit k of byte t is
 * set.  XOR-ing it in negates a term without a branch: the bits are
 * random, and a branch per term mispredicts half the time. */
#define SIGN_MASK(t, k) ((uint64_t)((((t) >> (k)) & 1) ^ 1) << 63)
#define MASKS1(t) {SIGN_MASK(t, 0), SIGN_MASK(t, 1), SIGN_MASK(t, 2), \
    SIGN_MASK(t, 3), SIGN_MASK(t, 4), SIGN_MASK(t, 5), SIGN_MASK(t, 6), \
    SIGN_MASK(t, 7)}
#define MASKS4(t) MASKS1(t), MASKS1(t + 1), MASKS1(t + 2), MASKS1(t + 3)
#define MASKS16(t) MASKS4(t), MASKS4(t + 4), MASKS4(t + 8), MASKS4(t + 12)
#define MASKS64(t) MASKS16(t), MASKS16(t + 16), MASKS16(t + 32), MASKS16(t + 48)
static const uint64_t sign_masks[256][8] = {
    MASKS64(0), MASKS64(64), MASKS64(128), MASKS64(192)};

static inline double flip(double v, uint64_t mask) {
    uint64_t u;
    memcpy(&u, &v, sizeof u);
    u ^= mask;
    memcpy(&v, &u, sizeof v);
    return v;
}

/* The products with +-1 are exact: a term is a_k or -a_k. */
static double signed_sum(const double* a, const uint8_t* col, size_t f) {
    double part[4] = {0.0, 0.0, 0.0, 0.0};
    size_t k = 0;
    for (; k + 4 <= f; k += 4) {
        const uint64_t* m = sign_masks[col[k >> 3]] + (k & 4);
        for (int j = 0; j < 4; ++j)
            part[j] += flip(a[k + j], m[j]);
    }
    for (; k < f; ++k)
        part[0] += flip(a[k], sign_masks[col[k >> 3]][k & 7]);
    return (part[0] + part[1]) + (part[2] + part[3]);
}

static float bound_up(double bound) {
    float hi = (float)bound;
    if ((double)hi < bound) { /* step to the next float32 toward +inf */
        uint32_t u;
        memcpy(&u, &hi, sizeof u);
        ++u;
        memcpy(&hi, &u, sizeof hi);
    }
    return hi;
}

typedef struct {
    double rel32, abs32, rel64, abs64, limit;
} bounds_t;

/* One row of the certified packing; si is read only when 0 < norm < limit. */
static int64_t pack_row(const double* xi, const float* si, double norm,
                        const uint8_t* bits, uint64_t* words, uint64_t* open,
                        size_t f, size_t d, size_t nwords, size_t groups,
                        const bounds_t* b) {
    volatile double scaled32 = norm * b->rel32, scaled64 = norm * b->rel64;
    const float hi = bound_up(scaled32 + b->abs32), lo = -hi;
    const double hi64 = scaled64 + b->abs64;
    int64_t total = 0;
    for (size_t w = 0; w < nwords; ++w) {
        const float* sw = si + w * 64;
        const size_t len = d - w * 64 < 64 ? d - w * 64 : 64;
        const uint64_t mask = len < 64 ? ((uint64_t)1 << len) - 1 : ~(uint64_t)0;
        uint64_t pos = 0, undecided = mask;
        if (norm == 0.0) {
            pos = mask;
            undecided = 0;
        } else if (norm < b->limit) {
            uint64_t neg = 0;
            for (size_t k = 0; k < len; ++k) {
                pos |= (uint64_t)(sw[k] > hi) << k;
                neg |= (uint64_t)(sw[k] < lo) << k;
            }
            undecided = ~(pos | neg) & mask;
            for (uint64_t left = undecided; left; left &= left - 1) {
                const int k = __builtin_ctzll(left);
                const double v = signed_sum(xi, bits + (w * 64 + k) * groups, f);
                const uint64_t bit = (uint64_t)1 << k;
                if (v > hi64)
                    pos |= bit;
                if (v > hi64 || v < -hi64)
                    undecided &= ~bit;
            }
        }
        words[w] = pos;
        open[w] = undecided;
        total += __builtin_popcountll(undecided);
    }
    return total;
}

/* Certifies the n x d float32 sums s of a GEMM. */
int64_t sign_pack(const double* x, const float* s, const uint8_t* bits,
                  uint64_t* out, size_t n, size_t f, size_t d, size_t nwords,
                  size_t groups, double rel32, double abs32, double rel64,
                  double abs64, double limit) {
    const bounds_t b = {rel32, abs32, rel64, abs64, limit};
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += pack_row(x + i * f, s + i * d, abs_sum(x + i * f, f), bits,
                          out + i * nwords, out + (n + i) * nwords,
                          f, d, nwords, groups, &b);
    return total;
}

/* One column's sum over the groups' tables: eight bytes of the column
 * per load, one table entry per byte, into four interleaved partial sums.
 * (Eight partial sums ran slower.) */
static float table_sum(const float* table, const uint8_t* col, size_t groups) {
    float acc[4] = {0.0f, 0.0f, 0.0f, 0.0f};
    size_t g = 0;
    for (; g + 8 <= groups; g += 8) {
        uint64_t w;
        memcpy(&w, col + g, sizeof w);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        w = __builtin_bswap64(w); /* byte g first */
#endif
        const float* t = table + 256 * g;
        acc[0] += t[w & 255];
        acc[1] += t[256 + ((w >> 8) & 255)];
        acc[2] += t[512 + ((w >> 16) & 255)];
        acc[3] += t[768 + ((w >> 24) & 255)];
        acc[0] += t[1024 + ((w >> 32) & 255)];
        acc[1] += t[1280 + ((w >> 40) & 255)];
        acc[2] += t[1536 + ((w >> 48) & 255)];
        acc[3] += t[1792 + (w >> 56)];
    }
    for (; g < groups; ++g)
        acc[0] += table[256 * g + col[g]];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/* The sums straight from the bits, then sign_pack's certification.  Per
 * row, y = float32(x), cast only when 0 < norm < limit (so every entry
 * is finite and in float32's range).  For each group of 8 features the
 * 256 signed partial sums are built by appending one term at a time:
 * entry t of group g is the float32 sum, in feature order, of the terms
 * +-y_(8g+k), + where bit k of t is set.  Column j's sum adds one entry
 * per group, in four interleaved partial sums.  Every entry and every
 * total is a float32 sum of the exact terms +-y_k, so a sum is one
 * summation tree over the f terms (pad terms are exact zeros), and the
 * float32 tier's order-free bound holds for it.  scratch holds
 * 256 * groups + d floats. */
int64_t sign_encode(const double* x, float* scratch, const uint8_t* bits,
                    uint64_t* out, size_t n, size_t f, size_t d, size_t nwords,
                    size_t groups, double rel32, double abs32, double rel64,
                    double abs64, double limit) {
    const bounds_t b = {rel32, abs32, rel64, abs64, limit};
    float* table = scratch;
    float* s = scratch + 256 * groups;
    int64_t total = 0;
    for (size_t i = 0; i < n; ++i) {
        const double* xi = x + i * f;
        const double norm = abs_sum(xi, f);
        if (norm > 0.0 && norm < limit) {
            for (size_t g = 0; g < groups; ++g) {
                float* t = table + 256 * g;
                float y[8];
                for (size_t k = 0; k < 8; ++k)
                    y[k] = 8 * g + k < f ? (float)xi[8 * g + k] : 0.0f;
                t[0] = -y[0];
                t[1] = y[0];
                for (size_t k = 1; k < 8; ++k) {
                    const size_t half = (size_t)1 << k;
                    for (size_t e = 0; e < half; ++e) {
                        t[half + e] = t[e] + y[k];
                        t[e] = t[e] - y[k];
                    }
                }
            }
            for (size_t j = 0; j < d; ++j)
                s[j] = table_sum(table, bits + j * groups, groups);
        }
        total += pack_row(xi, s, norm, bits, out + i * nwords,
                          out + (n + i) * nwords, f, d, nwords, groups, &b);
    }
    return total;
}
"""

#: ``op`` codes shared with the C kernels.
OP_AND = 0
OP_XOR = 1

_lock = threading.Lock()
#: The resolved backend, ``"native"`` or ``"numpy"``: None until the first
#: kernel call resolves it, after which kernel calls read only this (and
#: the library bound with it).
_backend: Optional[str] = None
_native_lib: Optional[ctypes.CDLL] = None
_native_attempted = False
_build_info: Optional[Dict[str, str]] = None


def _env_backend() -> str:
    value = os.environ.get("REPRO_PACKED_BACKEND", "auto").strip().lower()
    if value not in ("auto", "native", "numpy"):
        raise ValueError(
            f"REPRO_PACKED_BACKEND must be auto, native or numpy, got {value!r}"
        )
    return value


def _env_tier() -> str:
    value = os.environ.get("REPRO_PACKED_TIER", "auto").strip().lower()
    if value != "auto" and value not in TIERS:
        choices = ", ".join(("auto",) + TIERS)
        raise ValueError(f"REPRO_PACKED_TIER must be one of {choices}, got {value!r}")
    return value


def set_backend(backend: Optional[str]) -> None:
    """Pin the kernel backend (``"native"`` / ``"numpy"``), or pass None to
    resolve it from ``REPRO_PACKED_BACKEND`` again on the next call.

    Pinning ``"native"`` raises :class:`RuntimeError` when no native kernel
    can be built on this machine; ``"numpy"`` always succeeds.
    """
    global _backend
    if backend not in (None, "native", "numpy"):
        raise ValueError(f"backend must be 'native' or 'numpy', got {backend!r}")
    if backend == "native" and _load_native() is None:
        raise RuntimeError("native popcount kernel is unavailable on this machine")
    _backend = backend


def backend_name() -> str:
    """Name of the backend kernel calls use, resolved on the first call.

    The first call reads ``REPRO_PACKED_BACKEND`` and, unless it says
    ``numpy``, builds and loads the native kernel; the answer holds until
    :func:`set_backend` or :func:`reset_native_cache`.
    """
    global _backend
    if _backend is None:
        env = _env_backend()
        if env != "numpy" and _load_native() is not None:
            _backend = "native"
        elif env == "native":
            raise RuntimeError("REPRO_PACKED_BACKEND=native but no C compiler works")
        else:
            _backend = "numpy"
    return _backend


def native_build_info() -> Optional[Dict[str, str]]:
    """Tier / compiler / library of the loaded native kernel (None if absent).

    Triggers a build attempt if none has happened yet, so callers see the
    same answer the next kernel call would.
    """
    if _load_native() is None:
        return None
    assert _build_info is not None
    return dict(_build_info)


def reset_native_cache() -> None:
    """Forget the resolved backend and the loaded library; the next call
    resolves again.

    The on-disk compile cache is content-addressed and survives; this only
    clears the in-process state, letting tests (and operators) change
    ``REPRO_PACKED_BACKEND`` / ``CC`` / ``REPRO_PACKED_TIER`` and have it
    take effect.
    """
    global _backend, _native_lib, _native_attempted, _build_info
    with _lock:
        _backend = None
        _native_lib = None
        _native_attempted = False
        _build_info = None


# --------------------------------------------------------------- native build
def _cache_dir(digest: str) -> str:
    tag = f"repro-packed-{digest[:16]}-py{sys.version_info[0]}{sys.version_info[1]}"
    return os.path.join(tempfile.gettempdir(), tag)


def _compile_tier(compiler: str, tier: str) -> Optional[str]:
    """Compile one flag tier into its cached shared object; None on failure."""
    flags = [*_COMMON_FLAGS, *_TIER_FLAGS[tier]]
    key = _C_SOURCE + compiler + " ".join(flags)
    digest = hashlib.sha256(key.encode()).hexdigest()
    directory = _cache_dir(digest)
    library = os.path.join(directory, "kernels.so")
    if os.path.exists(library):
        return library
    try:
        os.makedirs(directory, exist_ok=True)
        source = os.path.join(directory, "kernels.c")
        with open(source, "w") as handle:
            handle.write(_C_SOURCE)
        scratch = library + f".tmp{os.getpid()}"
        command = [compiler, *flags, "-o", scratch, source]
        result = subprocess.run(command, capture_output=True, timeout=120, check=False)
        if result.returncode == 0:
            os.replace(scratch, library)  # atomic against concurrent builds
            return library
        return None
    except (OSError, subprocess.SubprocessError):
        return None


def _compile_native() -> Optional[Dict[str, str]]:
    """Compile the first tier that works; returns build info or None."""
    compiler = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    env_tier = _env_tier()
    tiers = TIERS if env_tier == "auto" else (env_tier,)
    for tier in tiers:
        library = _compile_tier(compiler, tier)
        if library is not None:
            return {"tier": tier, "compiler": compiler, "library": library}
    return None


def _load_native() -> Optional[ctypes.CDLL]:
    """Load (building if needed) the native kernel library; None on failure."""
    global _native_lib, _native_attempted, _build_info
    if _native_lib is not None or _native_attempted:
        return _native_lib
    with _lock:
        if _native_lib is not None or _native_attempted:
            return _native_lib
        _native_attempted = True
        info = _compile_native()
        if info is None:
            return None
        try:
            lib = ctypes.CDLL(info["library"])
        except OSError:
            return None
        pointer, size_t, c_int = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
        double = ctypes.c_double
        lib.pair_popcount.argtypes = [pointer] * 3 + [size_t] * 3 + [c_int]
        lib.pair_popcount.restype = None
        lib.best_rows.argtypes = [pointer] * 8 + [size_t] * 4 + [c_int]
        lib.best_rows.restype = None
        lib.ordered_accumulate.argtypes = [pointer] * 3 + [size_t] * 2 + [double, c_int]
        lib.ordered_accumulate.restype = None
        lib.certified_argmax.argtypes = [pointer] * 4 + [size_t] * 2 + [double, c_int]
        lib.certified_argmax.restype = ctypes.c_int64
        lib.sparse_scan.argtypes = [pointer] * 8 + [size_t] * 2 + [c_int]
        lib.sparse_scan.restype = None
        for name in ("sign_pack", "sign_encode"):
            getattr(lib, name).argtypes = [pointer] * 4 + [size_t] * 5 + [double] * 5
            getattr(lib, name).restype = ctypes.c_int64
        _build_info = info
        _native_lib = lib
    return _native_lib


def _address(array: np.ndarray) -> int:
    """Data pointer of a C-contiguous array, cheaply when writable.

    ``c_char.from_buffer`` rejects read-only arrays (such as memory-mapped
    AMs) and empty ones, which take the slower ``ndarray.ctypes`` path.
    """
    if array.flags.writeable and array.size:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


# -------------------------------------------------------------------- kernels
def _check_operands(queries: np.ndarray, references: np.ndarray) -> None:
    if queries.ndim != 2 or references.ndim != 2:
        raise ValueError("packed kernels expect 2-D (count, words) operands")
    if queries.dtype != np.uint64 or references.dtype != np.uint64:
        raise ValueError("packed kernels expect uint64 words")
    if queries.shape[1] != references.shape[1]:
        raise ValueError(
            f"word-count mismatch: {queries.shape[1]} vs {references.shape[1]}"
        )


def _pair_popcount(queries: np.ndarray, references: np.ndarray, op: int) -> np.ndarray:
    _check_operands(queries, references)
    n, m = queries.shape[0], references.shape[0]
    out = np.empty((n, m), dtype=np.int64)
    if backend_name() == "native":
        q = np.ascontiguousarray(queries)
        r = np.ascontiguousarray(references)
        _native_lib.pair_popcount(
            _address(q), _address(r), _address(out), n, m, q.shape[1], op
        )
        return out
    combine = np.bitwise_and if op == OP_AND else np.bitwise_xor
    # Block over queries so the (block, m, W) intermediate stays in cache.
    rows = max(1, _NUMPY_BLOCK_WORDS // max(1, m * queries.shape[1]))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        combined = combine(queries[start:stop, None, :], references[None, :, :])
        out[start:stop] = np.bitwise_count(combined).sum(axis=-1, dtype=np.int64)
    return out


def and_popcount(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """``out[i, j] = popcount(queries[i] AND references[j])`` over words."""
    return _pair_popcount(queries, references, OP_AND)


def xor_popcount(queries: np.ndarray, references: np.ndarray) -> np.ndarray:
    """``out[i, j] = popcount(queries[i] XOR references[j])`` over words."""
    return _pair_popcount(queries, references, OP_XOR)


class RowSearch:
    """Fused associative search over one packed reference set.

    For each packed query, :meth:`__call__` returns the first row with the
    highest ``popcount(q AND r)`` (``op`` :data:`OP_AND`) or the lowest
    ``popcount(q XOR r)`` (:data:`OP_XOR`) -- ``np.argmax``'s tie rule on
    the dot similarities -- and, given labels, the first such row among
    those whose ``classes`` entry equals the query's label.  The native
    kernel never materializes the ``(n, m)`` score matrix; the numpy
    backend reduces the pair counts block by block.

    ``references`` is the ``(m, W)`` row-major word matrix; the word-major
    ``(W, m)`` copy the native kernel sweeps and the rows grouped by class
    are built here, once, so a call only pays for its own queries.
    """

    #: Queries per numpy-backend block: bounds the pair-count block to
    #: ``_SEARCH_BLOCK_ROWS * m`` entries.
    _SEARCH_BLOCK_ROWS = 1024

    def __init__(
        self, references: np.ndarray, classes: np.ndarray, num_classes: int, op: int
    ) -> None:
        if references.shape[0] >= 2**32 or references.shape[1] >= 2**26:
            raise ValueError("the search keys hold rows and counts below 2**32")
        self.references = references
        self.transposed = np.ascontiguousarray(references.T)
        self.classes = np.asarray(classes, dtype=np.int64)
        self.op = op
        #: Rows of class ``c`` in ascending order are
        #: ``class_rows[class_start[c] : class_start[c + 1]]``.
        self.class_rows = np.argsort(self.classes, kind="stable")
        sizes = np.bincount(self.classes, minlength=num_classes)
        self.class_start = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._bind()

    def _bind(self) -> None:
        self._addresses = [
            _address(array)
            for array in (self.transposed, self.class_start, self.class_rows)
        ]

    def __getstate__(self):
        # Addresses name this process's copies of the arrays: a pickled
        # or copied search binds its own.
        return {k: v for k, v in self.__dict__.items() if k != "_addresses"}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._bind()

    def __call__(
        self, queries: np.ndarray, labels: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """``(best, own)`` row indices of ``(n, W)`` packed queries.

        ``own`` is None without ``labels``; a label outside the classes
        or owning no row raises :class:`ValueError`.
        """
        _check_operands(queries, self.references)
        n, m = queries.shape[0], self.references.shape[0]
        if m == 0 and n:
            raise ValueError("cannot search an empty reference set")
        own = None
        if labels is not None:
            labels = np.ascontiguousarray(labels, dtype=np.int64)
            if labels.shape != (n,):
                raise ValueError(f"expected {n} labels, got shape {labels.shape}")
            own = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.int64)
        if n and backend_name() == "native" and queries.shape[1]:
            q = np.ascontiguousarray(queries)
            counts = np.empty(m, dtype=np.uint64)
            _native_lib.best_rows(
                _address(q),
                self._addresses[0],
                _address(counts),
                *self._addresses[1:],
                None if labels is None else _address(labels),
                _address(best),
                None if own is None else _address(own),
                n,
                m,
                q.shape[1],
                self.class_start.size - 1,
                self.op,
            )
        elif n:
            self._numpy_search(queries, labels, best, own)
        if own is not None and (own < 0).any():
            missing = sorted(set(labels[own < 0].tolist()))
            raise ValueError(f"no reference row belongs to label(s) {missing}")
        return best, own

    def _numpy_search(self, queries, labels, best, own) -> None:
        pick = np.argmax if self.op == OP_AND else np.argmin
        # A row outside the label's class never wins the masked search.
        outside = -1 if self.op == OP_AND else np.iinfo(np.int64).max
        for start in range(0, queries.shape[0], self._SEARCH_BLOCK_ROWS):
            block = slice(start, start + self._SEARCH_BLOCK_ROWS)
            counts = _pair_popcount(queries[block], self.references, self.op)
            best[block] = pick(counts, axis=1)
            if own is not None:
                mine = self.classes[None, :] == labels[block, None]
                rows = pick(np.where(mine, counts, outside), axis=1)
                own[block] = np.where(mine.any(axis=1), rows, -1)


def ordered_accumulate(
    target: np.ndarray, rows: np.ndarray, vectors: np.ndarray, scale: float
) -> None:
    """``target[rows[i]] += scale * vectors[i]`` for ``i = 0, 1, ...`` in order.

    Native backend only: every product ``scale * vectors[i]`` is rounded
    to float64 and added in index order, which is ``np.add.at(target,
    rows, scale * vectors)`` bit for bit.  ``target`` is a writable
    C-contiguous float64 ``(C, D)`` matrix and ``rows`` must lie in
    ``[0, C)``; ``vectors`` is ``(len(rows), D)``.  int8 vectors (the
    ``{0, 1}`` encodings) are read as they are, any other dtype is
    converted to float64 first (exactly what numpy's float64 product does).
    """
    if backend_name() != "native":
        raise RuntimeError("ordered_accumulate requires the native kernel backend")
    if not (
        target.dtype == np.float64
        and target.flags.c_contiguous
        and target.flags.writeable
    ):
        raise ValueError("target must be a writable C-contiguous float64 matrix")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    n, dim = rows.size, target.shape[1]
    if vectors.shape != (n, dim):
        raise ValueError(f"vectors must be ({n}, {dim}), got {vectors.shape}")
    if n and (rows.min() < 0 or rows.max() >= target.shape[0]):
        raise IndexError(f"rows must lie in [0, {target.shape[0]})")
    elem = int(vectors.dtype == np.int8)
    v = np.ascontiguousarray(vectors, dtype=np.int8 if elem else np.float64)
    if n and dim:
        _native_lib.ordered_accumulate(
            _address(target), _address(rows), _address(v), n, dim, float(scale), elem
        )


def certified_argmax(
    products: np.ndarray, sizes: np.ndarray, ratio: float
) -> Optional[np.ndarray]:
    """First best cluster of each row of ``products / sizes``, if certified.

    ``products`` is the ``(n, k)`` float32 or float64 score matrix and
    ``sizes`` the ``(k,)`` positive cluster sizes.  Each row's pick is the
    first largest ``p_j * (1 / sizes_j)``; the row is certified when that
    score is 0 (all of them are then 0) or every other cluster has
    ``p_j * sizes_pick < (p_pick * sizes_j) * ratio``, which for ``ratio
    < 1`` and integer scores makes the pick the unique best ratio
    ``p / sizes``.  Returns the ``(n,)``
    int64 picks, or None when some row is not certified.  The native
    kernel stops at the first such row; the numpy twin makes the same
    decisions and picks.
    """
    n, k = products.shape
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    if sizes.shape != (k,):
        raise ValueError(f"expected {k} cluster sizes, got shape {sizes.shape}")
    if k == 0 and n:
        raise ValueError("cannot assign rows to zero clusters")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    elem = int(products.dtype == np.float32)
    p = np.ascontiguousarray(products, dtype=np.float32 if elem else np.float64)
    if backend_name() == "native":
        best = np.empty(n, dtype=np.int64)
        scratch = np.empty(2 * k, dtype=np.float64)
        ok = _native_lib.certified_argmax(
            *map(_address, (p, sizes, scratch, best)), n, k, float(ratio), elem
        )
        return best if ok else None
    rows = np.arange(n)
    best = np.argmax(p * (1.0 / sizes), axis=1)
    mine = p[rows, best].astype(np.float64)
    clear = p * sizes[best][:, None] < (mine[:, None] * sizes) * ratio
    clear[rows, best] = True
    certified = (mine == 0.0) | clear.all(axis=1)
    return best if certified.all() else None


def sparse_scan_available() -> bool:
    """Whether the native CSR shortlist kernel will be used."""
    return backend_name() == "native"


def sparse_scan(
    queries: np.ndarray,
    references: np.ndarray,
    group_start: np.ndarray,
    orig_row: np.ndarray,
    list_start: np.ndarray,
    list_groups: np.ndarray,
    best_metric: np.ndarray,
    best_row: np.ndarray,
    op: int,
) -> None:
    """CSR shortlist re-rank (native backend only; see the C kernel).

    Query ``i`` exactly scores the rows of every group in
    ``list_groups[list_start[i]:list_start[i + 1]]`` (rows of group ``g``
    are ``references[group_start[g]:group_start[g + 1]]``, with original
    row ids in ``orig_row``) and folds the result into the running
    ``(best_metric, best_row)`` pair in place.  The metric is
    ``popcount(q AND r)`` for ``op`` :data:`OP_AND` and
    ``-popcount(q XOR r)`` for :data:`OP_XOR`, so higher metric -- equal
    metric, lower original row -- matches the full scan's argmax.

    Callers must check :func:`sparse_scan_available` first; the numpy
    backend has no CSR kernel (the pruned engine keeps a pure-numpy
    re-rank loop as its correctness reference).
    """
    if backend_name() != "native":
        raise RuntimeError("sparse_scan requires the native kernel backend")
    _check_operands(queries, references)
    # Named, so any contiguous copy outlives the call its address goes to.
    q = np.ascontiguousarray(queries)
    r = np.ascontiguousarray(references)
    index = [
        np.ascontiguousarray(array, dtype=np.int64)
        for array in (group_start, orig_row, list_start, list_groups)
    ]
    operands = (q, r, *index, best_metric, best_row)
    _native_lib.sparse_scan(*map(_address, operands), q.shape[0], q.shape[1], op)


# ------------------------------------------------- exact-sign encode kernel
#: Open entries the numpy twin recomputes per float64 gather.
_GATHER_CHUNK = 256


def _interleaved_sum(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``(m, f)`` float64 terms in the native kernel's order.

    Four interleaved partial sums, the tail added into the first, then
    ``(p0 + p1) + (p2 + p3)``; a reduction over a non-innermost axis adds
    in index order, so numpy reproduces the C loop bit for bit.
    """
    m, f = terms.shape
    head = f - f % 4
    parts = np.add.reduce(terms[:, :head].reshape(m, head // 4, 4), axis=1)
    for k in range(head, f):
        parts[:, 0] += terms[:, k]
    return (parts[:, 0] + parts[:, 1]) + (parts[:, 2] + parts[:, 3])


def _float32_up(bound: np.ndarray) -> np.ndarray:
    """Each non-negative float64 bound rounded up to the nearest float32."""
    with np.errstate(over="ignore"):
        hi = bound.astype(np.float32)
    low = hi.astype(np.float64) < bound
    hi[low] = np.nextafter(hi[low], np.float32(np.inf))
    return hi


def _numpy_sign_pack(features, values, bits, coefficients, limit):
    from repro.hdc.packed import pack_binary  # packed imports this module

    rel32, abs32, rel64, abs64 = coefficients
    with np.errstate(over="ignore"):
        norms = _interleaved_sum(np.abs(features))
    fast = norms < limit  # False on NaN
    zero = norms == 0
    hi = _float32_up(norms * rel32 + abs32)[:, None]
    positive = (values > hi) & fast[:, None]
    undecided = ~(positive | (values < -hi)) | ~fast[:, None]
    positive[zero] = True
    undecided[zero] = False
    rows, cols = np.nonzero(undecided & (fast & ~zero)[:, None])
    num_features = features.shape[1]
    for start in range(0, rows.shape[0], _GATHER_CHUNK):
        r = rows[start : start + _GATHER_CHUNK]
        c = cols[start : start + _GATHER_CHUNK]
        signs = np.unpackbits(bits[c], axis=1, count=num_features, bitorder="little")
        sums = _interleaved_sum(np.where(signs, features[r], -features[r]))
        hi64 = norms[r] * rel64 + abs64
        positive[r, c] = sums > hi64
        undecided[r, c] = ~((sums > hi64) | (sums < -hi64))
    count = int(np.count_nonzero(undecided))
    words = pack_binary(positive, validate=False).words
    return words, pack_binary(undecided, validate=False).words, count


class SignPacker:
    """Certified packed signs of ``features @ M`` for one ``±1`` projection.

    ``columns`` is the ``(D, f)`` matrix ``M^T`` of ``±1`` entries, and
    ``coefficients = (rel32, abs32, rel64, abs64)`` size the two tiers'
    bounds.  The packer keeps ``M`` only as :attr:`bits`, ``D *
    ceil(f / 8)`` bytes, column-major: byte ``g`` of column ``d`` has bit
    ``k`` set when ``M[8g + k, d] = +1``.  Calling the packer with
    ``(n, f)`` float64 ``features`` and the ``(n, D)`` float32 sums
    ``values = float32(features) @ M`` certifies each entry from the row's
    float64 norm ``||x||_1``:

    * a row whose norm is not below ``limit`` (or is NaN) is left open;
    * an all-zero row sums to exactly 0: every bit is 1;
    * otherwise an entry with ``|values|`` above ``rel32 * norm + abs32``,
      rounded up to float32, takes the sign of ``values`` (float32 tier);
      any other entry is recomputed in float64 from its column's bits and
      takes the sign of that sum ``v`` when ``|v| > rel64 * norm + abs64``
      (float64 tier), or is left open.

    The call returns ``(words, open, count)``: two ``(n, ceil(D / 64))``
    uint64 arrays of sign bits and open bits (tail bits past ``D`` zero)
    and the number of open bits.  The native kernel -- one pass over each
    row of ``values``, with the float64 tier inline -- and the numpy twin
    agree bit for bit.  :meth:`encode` computes the float32 sums itself,
    from the bits.
    """

    def __init__(
        self,
        columns: np.ndarray,
        coefficients: Tuple[float, float, float, float],
        limit: float,
    ) -> None:
        columns = np.asarray(columns)
        if columns.ndim != 2:
            raise ValueError("columns must be a 2-D (D, f) matrix")
        self.dimension, self.num_features = columns.shape
        self.bits = np.ascontiguousarray(
            np.packbits(columns > 0, axis=1, bitorder="little")
        )
        self.coefficients = tuple(float(c) for c in coefficients)
        self.limit = float(limit)
        self._bits_address = _address(self.bits)

    def _check(self, features: np.ndarray) -> np.ndarray:
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise ValueError(
                f"shape mismatch: features {features.shape}, columns "
                f"{(self.dimension, self.num_features)}"
            )
        return features

    def _native(self, entry, features: np.ndarray, operand: np.ndarray):
        """Run ``sign_pack`` (``operand``: the sums) or ``sign_encode``
        (``operand``: its scratch)."""
        n, nwords = features.shape[0], (self.dimension + 63) // 64
        out = np.empty((2, n, nwords), dtype=np.uint64)
        count = entry(
            _address(features),
            _address(operand),
            self._bits_address,
            _address(out),
            n,
            self.num_features,
            self.dimension,
            nwords,
            self.bits.shape[1],
            *self.coefficients,
            self.limit,
        )
        return out[0], out[1], int(count)

    def __call__(self, features: np.ndarray, values: np.ndarray):
        features = self._check(features)
        values = np.ascontiguousarray(values, dtype=np.float32)
        if values.shape != (features.shape[0], self.dimension):
            raise ValueError(
                f"shape mismatch: features {features.shape}, values "
                f"{values.shape}, columns {(self.dimension, self.num_features)}"
            )
        if features.size == 0 or backend_name() != "native":
            return _numpy_sign_pack(
                features, values, self.bits, self.coefficients, self.limit
            )
        return self._native(_native_lib.sign_pack, features, values)

    def encode(self, features: np.ndarray):
        """``(words, open, count)`` as from ``self(features, values)``, with
        the float32 sums computed from :attr:`bits` by table lookup.

        Native backend only.  Per row and group of 8 features, the kernel
        builds the 256 signed partial sums of the row's float32 terms, then
        adds one entry per group for each column: each sum is a float32 sum
        of the exact terms in another order than a GEMM's, which the
        float32 tier's bound covers.  A row the tiers skip is never cast.
        """
        if backend_name() != "native":
            raise RuntimeError("SignPacker.encode requires the native kernel backend")
        features = self._check(features)
        scratch = np.empty(256 * self.bits.shape[1] + self.dimension, np.float32)
        return self._native(_native_lib.sign_encode, features, scratch)
