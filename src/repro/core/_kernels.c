/* Native fold kernels for the meta-telescope accumulator.
 *
 * Compiled on demand by repro.core.kernels (cc -O3 -shared -fPIC) and
 * bound through ctypes.  Exports exactly fold_chunk, merge_sorted and
 * merge_k — the ops that earn their C in the layer budget.  Identity
 * contract: every kernel accumulates per-key sums in original row
 * order and merges parts left-to-right, reproducing numpy's np.unique
 * + np.bincount float operation order bit for bit (see
 * docs/architecture.md §12).
 *
 * Grouping algorithm (fold3 / fold1): rows become compact records
 * (key offset + 32-bit values, the TCP flag packed into the sign bit
 * of the packet field), fully sorted by key with a stable LSD radix
 * sort in passes of <= 13 bits, then reduced by a branchless
 * segmented scan that accumulates each key's float64 sums in original
 * row order and emits unique keys ascending, with the per-block
 * regroup as a second branchless scan over the uniques — no hashing,
 * no comparison sort, no random gathers, no data-dependent branches
 * in the hot loops.  Keys are 32-bit (IPv4) or 64-bit (IPv6 /64 ids).
 * The record width follows the chunk's key range, not the key width:
 * a range that fits 32 bits sorts 12-/8-byte records with 32-bit
 * offsets in 1-3 passes; only a wider one (64-bit keys alone get
 * there) sorts 16-byte records with 64-bit offsets in up to 5.
 *
 * merge_k (any number of sorted-unique parts) is the same algorithm
 * over the parts' concatenation: (offset, row) records — 8 bytes when
 * the key range and row ids fit 32 bits, 16 otherwise — sorted by the
 * same stable LSD passes, then one branchless segmented reduce that
 * starts each key at 0.0 and gathers its values from the parts in part
 * order.  That is np.bincount's order over the concatenation by
 * construction, with no part-count limit and no data-dependent branch
 * per part head (a heap or a head scan pays one per part per key).
 * merge_sorted keeps the two-part case, where a linear merge measured
 * faster than the sort.  No kernel allocates: scratch comes from the
 * caller's per-thread pool.
 */

#include <stdint.h>
#include <string.h>

#define MAX_PASS_BITS 13
#define MAX_PASS_SLOTS (1 << MAX_PASS_BITS)
/* Passes a 64-bit key range needs. */
#define MAX_PASSES 5

#define PROTO_TCP 6

/* Row i's key as the reference's astype(np.int64) reads it: 32-bit
 * keys widen, 64-bit keys keep their bits (so keys >= 2**63 turn
 * negative).  Offsets from the signed minimum, taken as uint64
 * differences, then order keys exactly as numpy's signed sort. */
static inline int64_t key_at(const void *keys, int key_bits, int64_t i) {
    return key_bits == 64 ? ((const int64_t *)keys)[i]
                          : (int64_t)((const uint32_t *)keys)[i];
}

/* Width in bits of `range` (0..64).  The loop stops at 64 because
 * shifting a 64-bit value by 64 is undefined behaviour (x86 shifts
 * count mod 64); the 32-bit form of that bug once turned full-range
 * keys into an infinite loop. */
static int bits_of(uint64_t range) {
    int bits = 0;
    while (bits < 64 && range >> bits) bits++;
    return bits;
}

/* Split `bits` into the fewest stable LSD passes of <= MAX_PASS_BITS
 * each (1-3 for a 32-bit range, up to 5 for a 64-bit one) and the bit
 * position of each pass's digit. */
static int pass_plan(int bits, int *widths, int *shifts) {
    int npass = bits <= MAX_PASS_BITS ? 1
                                      : (bits + MAX_PASS_BITS - 1) / MAX_PASS_BITS;
    int shift = 0;
    for (int p = 0; p < npass; p++) {
        widths[p] = bits / npass + (p < bits % npass);
        shifts[p] = shift;
        shift += widths[p];
    }
    return npass;
}

/* Add one key column to every pass histogram in a single read.
 * Inlined per record width so the pass loop unrolls over the constant
 * `maxp`. */
static inline __attribute__((always_inline)) void radix_count(
    const void *keys, int key_bits, int64_t n, uint64_t kmin,
    int npass, const int *widths, const int *shifts, int maxp,
    int64_t (*hist)[MAX_PASS_SLOTS])
{
    uint64_t masks[MAX_PASSES] = {0};
    for (int p = 0; p < npass; p++)
        masks[p] = ((uint64_t)1 << widths[p]) - 1;
    for (int64_t i = 0; i < n; i++) {
        uint64_t u = (uint64_t)key_at(keys, key_bits, i) - kmin;
        for (int p = 0; p < maxp; p++)
            if (p < npass) hist[p][(u >> shifts[p]) & masks[p]]++;
    }
}

/* Counted histograms -> each pass's scatter positions. */
static void radix_starts(int npass, const int *widths,
                         int64_t (*hist)[MAX_PASS_SLOTS])
{
    for (int p = 0; p < npass; p++) {
        int64_t run = 0;
        for (int64_t b = 0; b < (int64_t)1 << widths[p]; b++) {
            int64_t count = hist[p][b];
            hist[p][b] = run;
            run += count;
        }
    }
}

/* All pass histograms in one read of the keys, turned into each
 * pass's scatter positions. */
static inline __attribute__((always_inline)) void radix_positions(
    const void *keys, int key_bits, int64_t n, uint64_t kmin,
    int npass, const int *widths, const int *shifts, int maxp,
    int64_t (*hist)[MAX_PASS_SLOTS])
{
    for (int p = 0; p < npass; p++)
        memset(hist[p], 0, sizeof(int64_t) << widths[p]);
    radix_count(keys, key_bits, n, kmin, npass, widths, shifts, maxp, hist);
    radix_starts(npass, widths, hist);
}

/* The record-typed half of the folds, stamped out once per offset
 * width W (OFF_T offsets, at most MAXP passes).  sort_reduce3 sums
 * (tcp_pkts, tcp_bytes, total_pkts) per key, sort_reduce1 the packets;
 * both unscaled, keys ascending as kmin + offset, each key's sums in
 * original row order.  Pass 1 scatters records straight from the input
 * columns (the TCP flag rides in the sign bit of the packet field);
 * the reduce starts every fresh key's sums from 0.0, as np.bincount
 * does.  n >= 1. */
#define DEFINE_SORT_REDUCE(W, OFF_T, MAXP)                                  \
typedef struct { OFF_T off; int32_t pktcp; int32_t by; } rec3_##W;          \
typedef struct { OFF_T off; int32_t pk; } rec1_##W;                         \
                                                                            \
static int64_t sort_reduce3_##W(                                            \
    const void *keys, int key_bits, const uint8_t *proto,                   \
    const int64_t *packets, const int64_t *bytes_, int64_t n,               \
    uint64_t kmin, int bits,                                                \
    int64_t *out_keys, double *out_a, double *out_b, double *out_c,         \
    rec3_##W *bufa, rec3_##W *bufb)                                         \
{                                                                           \
    int widths[MAXP], shifts[MAXP];                                         \
    int64_t hist[MAXP][MAX_PASS_SLOTS];                                     \
    int npass = pass_plan(bits, widths, shifts);                            \
    radix_positions(keys, key_bits, n, kmin, npass, widths, shifts,        \
                    MAXP, hist);                                            \
    OFF_T mask0 = ((OFF_T)1 << widths[0]) - 1;                              \
    for (int64_t i = 0; i < n; i++) {                                       \
        rec3_##W rec;                                                       \
        rec.off = (OFF_T)((uint64_t)key_at(keys, key_bits, i) - kmin);      \
        rec.pktcp = (int32_t)packets[i]                                     \
            | (proto[i] == PROTO_TCP ? INT32_MIN : 0);                      \
        rec.by = (int32_t)bytes_[i];                                        \
        bufa[hist[0][rec.off & mask0]++] = rec;                             \
    }                                                                       \
    rec3_##W *cur = bufa, *alt = bufb;                                      \
    for (int p = 1; p < npass; p++) {                                       \
        OFF_T mask = ((OFF_T)1 << widths[p]) - 1;                           \
        for (int64_t i = 0; i < n; i++)                                     \
            alt[hist[p][(cur[i].off >> shifts[p]) & mask]++] = cur[i];      \
        rec3_##W *swap = cur; cur = alt; alt = swap;                        \
    }                                                                       \
    OFF_T prev = ~cur[0].off;                                               \
    int64_t nu = 0;                                                         \
    for (int64_t i = 0; i < n; i++) {                                       \
        rec3_##W rec = cur[i];                                              \
        int fresh = rec.off != prev;                                        \
        prev = rec.off;                                                     \
        nu += fresh;                                                        \
        int64_t m = nu - 1;                                                 \
        out_keys[m] = (int64_t)(kmin + rec.off);                            \
        double sum_a = out_a[m], sum_b = out_b[m], sum_c = out_c[m];        \
        sum_a = fresh ? 0.0 : sum_a;                                        \
        sum_b = fresh ? 0.0 : sum_b;                                        \
        sum_c = fresh ? 0.0 : sum_c;                                        \
        double tcp = (double)((uint32_t)rec.pktcp >> 31);                   \
        double pk = (double)(rec.pktcp & INT32_MAX);                        \
        out_a[m] = sum_a + tcp * pk;                                        \
        out_b[m] = sum_b + tcp * (double)rec.by;                            \
        out_c[m] = sum_c + pk;                                              \
    }                                                                       \
    return nu;                                                              \
}                                                                           \
                                                                            \
static int64_t sort_reduce1_##W(                                            \
    const void *keys, int key_bits, const int64_t *packets, int64_t n,      \
    uint64_t kmin, int bits, int64_t *out_keys, double *out_a,              \
    rec1_##W *bufa, rec1_##W *bufb)                                         \
{                                                                           \
    int widths[MAXP], shifts[MAXP];                                         \
    int64_t hist[MAXP][MAX_PASS_SLOTS];                                     \
    int npass = pass_plan(bits, widths, shifts);                            \
    radix_positions(keys, key_bits, n, kmin, npass, widths, shifts,        \
                    MAXP, hist);                                            \
    OFF_T mask0 = ((OFF_T)1 << widths[0]) - 1;                              \
    for (int64_t i = 0; i < n; i++) {                                       \
        rec1_##W rec;                                                       \
        rec.off = (OFF_T)((uint64_t)key_at(keys, key_bits, i) - kmin);      \
        rec.pk = (int32_t)packets[i];                                       \
        bufa[hist[0][rec.off & mask0]++] = rec;                             \
    }                                                                       \
    rec1_##W *cur = bufa, *alt = bufb;                                      \
    for (int p = 1; p < npass; p++) {                                       \
        OFF_T mask = ((OFF_T)1 << widths[p]) - 1;                           \
        for (int64_t i = 0; i < n; i++)                                     \
            alt[hist[p][(cur[i].off >> shifts[p]) & mask]++] = cur[i];      \
        rec1_##W *swap = cur; cur = alt; alt = swap;                        \
    }                                                                       \
    OFF_T prev = ~cur[0].off;                                               \
    int64_t nu = 0;                                                         \
    for (int64_t i = 0; i < n; i++) {                                       \
        rec1_##W rec = cur[i];                                              \
        int fresh = rec.off != prev;                                        \
        prev = rec.off;                                                     \
        nu += fresh;                                                        \
        int64_t m = nu - 1;                                                 \
        out_keys[m] = (int64_t)(kmin + rec.off);                            \
        double sum = out_a[m];                                              \
        sum = fresh ? 0.0 : sum;                                            \
        out_a[m] = sum + (double)rec.pk;                                    \
    }                                                                       \
    return nu;                                                              \
}

DEFINE_SORT_REDUCE(narrow, uint32_t, 3)
DEFINE_SORT_REDUCE(wide, uint64_t, MAX_PASSES)

/* Per-block regroup of sorted-unique keys' (still unscaled) sums with
 * the reference's `key >> block_shift` (arithmetic on int64).  Returns
 * the block count. */
static int64_t regroup_blocks(
    const int64_t *keys, const double *vals, int64_t nu, int64_t block_shift,
    int64_t *blk_keys, double *blk_vals)
{
    int64_t prev_blk = ~(keys[0] >> block_shift);
    int64_t nblk = 0;
    for (int64_t i = 0; i < nu; i++) {
        int64_t blk = keys[i] >> block_shift;
        int fresh = blk != prev_blk;
        prev_blk = blk;
        nblk += fresh;
        int64_t m = nblk - 1;
        blk_keys[m] = blk;
        double sum = blk_vals[m];
        sum = fresh ? 0.0 : sum;
        blk_vals[m] = sum + vals[i];
    }
    return nblk;
}

/* Grouped (tcp_pkts, tcp_bytes, total_pkts) float64 sums per dst key
 * plus the per-block regroup of total packets.  Sums accumulate
 * unscaled (exact for the integer counts involved) and are scaled by
 * `factor` once at the end — the same operation order as the numpy
 * reference.  Returns the unique-key count.  n >= 1. */
static int64_t fold3(
    const void *keys, int key_bits, const uint8_t *proto,
    const int64_t *packets, const int64_t *bytes_, int64_t n,
    int64_t kmin, int64_t kmax, double factor, int64_t block_shift,
    int64_t *out_keys, double *out_a, double *out_b, double *out_c,
    int64_t *blk_keys, double *blk_vals, int64_t *nblk_out,
    void *bufa, void *bufb)
{
    int bits = bits_of((uint64_t)kmax - (uint64_t)kmin);
    int64_t nu = bits <= 32
        ? sort_reduce3_narrow(keys, key_bits, proto, packets, bytes_, n,
                              (uint64_t)kmin, bits,
                              out_keys, out_a, out_b, out_c, bufa, bufb)
        : sort_reduce3_wide(keys, key_bits, proto, packets, bytes_, n,
                            (uint64_t)kmin, bits,
                            out_keys, out_a, out_b, out_c, bufa, bufb);
    int64_t nblk = regroup_blocks(out_keys, out_c, nu, block_shift,
                                  blk_keys, blk_vals);
    for (int64_t i = 0; i < nu; i++) {
        out_a[i] *= factor;
        out_b[i] *= factor;
        out_c[i] *= factor;
    }
    for (int64_t i = 0; i < nblk; i++) blk_vals[i] *= factor;
    *nblk_out = nblk;
    return nu;
}

/* Grouped packet sums per src key plus the per-block regroup
 * (unscaled).  n >= 1. */
static int64_t fold1(
    const void *keys, int key_bits, const int64_t *packets, int64_t n,
    int64_t kmin, int64_t kmax, int64_t block_shift,
    int64_t *out_keys, double *out_a,
    int64_t *blk_keys, double *blk_vals, int64_t *nblk_out,
    void *bufa, void *bufb)
{
    int bits = bits_of((uint64_t)kmax - (uint64_t)kmin);
    int64_t nu = bits <= 32
        ? sort_reduce1_narrow(keys, key_bits, packets, n, (uint64_t)kmin,
                              bits, out_keys, out_a, bufa, bufb)
        : sort_reduce1_wide(keys, key_bits, packets, n, (uint64_t)kmin,
                            bits, out_keys, out_a, bufa, bufb);
    *nblk_out = regroup_blocks(out_keys, out_a, nu, block_shift,
                               blk_keys, blk_vals);
    return nu;
}

/* The fused per-chunk accumulator fold: one call produces all four
 * keyed parts PrefixAccumulator.update() appends for a chunk with no
 * ignored-sender filter.  `src_ip` / `dst_ip` hold `key_bits` (32 or
 * 64) bit keys; `bufa` / `bufb` each hold n records of the widest
 * layout the key width can take (12 bytes for 32-bit keys, 16 for
 * 64-bit ones).  counts = {n_dst, n_vol, n_src, n_raw}; -1 on a count
 * outside the 31-bit record field or another key width (fallback). */
int64_t fold_chunk(
    const void *src_ip, const void *dst_ip, int64_t key_bits,
    const uint8_t *proto, const int64_t *packets, const int64_t *bytes_,
    int64_t n, double factor, int64_t block_shift,
    int64_t *dst_keys, double *dst_tcp_pk, double *dst_tcp_by, double *dst_tot,
    int64_t *vol_keys, double *vol_pk,
    int64_t *src_keys, double *src_pk,
    int64_t *raw_keys, double *raw_pk,
    void *bufa, void *bufb,
    int64_t *counts)
{
    counts[0] = counts[1] = counts[2] = counts[3] = 0;
    if (key_bits != 32 && key_bits != 64) return -1;
    if (n == 0) return 0;
    int kb = (int)key_bits;
    /* Fused scan: both (signed) key ranges plus the 31-bit value guard. */
    int64_t dmin = key_at(dst_ip, kb, 0), dmax = dmin;
    int64_t smin = key_at(src_ip, kb, 0), smax = smin;
    for (int64_t i = 0; i < n; i++) {
        int64_t d = key_at(dst_ip, kb, i), s = key_at(src_ip, kb, i);
        if (d < dmin) dmin = d;
        if (d > dmax) dmax = d;
        if (s < smin) smin = s;
        if (s > smax) smax = s;
        if ((uint64_t)packets[i] >= INT32_MAX
            || (uint64_t)bytes_[i] >= INT32_MAX)
            return -1;
    }
    counts[0] = fold3(dst_ip, kb, proto, packets, bytes_, n,
                      dmin, dmax, factor, block_shift,
                      dst_keys, dst_tcp_pk, dst_tcp_by, dst_tot,
                      vol_keys, vol_pk, &counts[1], bufa, bufb);
    counts[2] = fold1(src_ip, kb, packets, n, smin, smax, block_shift,
                      src_keys, src_pk, raw_keys, raw_pk, &counts[3],
                      bufa, bufb);
    return 0;
}

/* Two-way merge of sorted-unique keyed parts, summing equal keys as
 * 0.0 + left + right — the float operation order np.bincount applies
 * to the concatenated parts (a lone -0.0 comes out +0.0, as there).
 * Returns the merged length. */
int64_t merge_sorted(
    const int64_t *ka, const double *const *va, int64_t na,
    const int64_t *kb, const double *const *vb, int64_t nb,
    int64_t ncols, int64_t *ko, double **vo)
{
    int64_t i = 0, j = 0, m = 0;
    while (i < na && j < nb) {
        int64_t a = ka[i], b = kb[j];
        if (a < b) {
            ko[m] = a;
            for (int64_t c = 0; c < ncols; c++) vo[c][m] = 0.0 + va[c][i];
            i++;
        } else if (b < a) {
            ko[m] = b;
            for (int64_t c = 0; c < ncols; c++) vo[c][m] = 0.0 + vb[c][j];
            j++;
        } else {
            ko[m] = a;
            for (int64_t c = 0; c < ncols; c++)
                vo[c][m] = 0.0 + va[c][i] + vb[c][j];
            i++;
            j++;
        }
        m++;
    }
    while (i < na) {
        ko[m] = ka[i];
        for (int64_t c = 0; c < ncols; c++) vo[c][m] = 0.0 + va[c][i];
        i++;
        m++;
    }
    while (j < nb) {
        ko[m] = kb[j];
        for (int64_t c = 0; c < ncols; c++) vo[c][m] = 0.0 + vb[c][j];
        j++;
        m++;
    }
    return m;
}

/* The k-way merge's sort-reduce, stamped out once per record width W
 * (OFF_T offsets and row ids, at most MAXP passes): the parts' keys,
 * read in part order, become (offset, row) records sorted stably by
 * offset — equal keys keep part order — and a branchless segmented
 * reduce gathers each record's values into sums that start from 0.0.
 * A row id is (part << lbits) | index within the part, so the gather
 * reads the parts' own columns.  total >= 1. */
#define DEFINE_MERGE_REDUCE(W, OFF_T, MAXP)                                 \
typedef struct { OFF_T off; OFF_T row; } mrec_##W;                          \
                                                                            \
static inline __attribute__((always_inline)) int64_t merge_scan_##W(        \
    const mrec_##W *cur, int64_t total, uint64_t kmin, int lbits,           \
    const double *const *part_cols, int64_t ncols, int64_t *ko,             \
    double *const *vo)                                                      \
{                                                                           \
    uint64_t lmask = ((uint64_t)1 << lbits) - 1;                            \
    OFF_T prev = ~cur[0].off;                                               \
    int64_t nu = 0;                                                         \
    for (int64_t i = 0; i < total; i++) {                                   \
        mrec_##W rec = cur[i];                                              \
        int fresh = rec.off != prev;                                        \
        prev = rec.off;                                                     \
        nu += fresh;                                                        \
        int64_t m = nu - 1;                                                 \
        ko[m] = (int64_t)(kmin + rec.off);                                  \
        uint64_t row = rec.row;                                             \
        const double *const *cols = part_cols + (row >> lbits) * ncols;     \
        int64_t at = (int64_t)(row & lmask);                                \
        for (int64_t c = 0; c < ncols; c++) {                               \
            double sum = vo[c][m];                                          \
            sum = fresh ? 0.0 : sum;                                        \
            vo[c][m] = sum + cols[c][at];                                   \
        }                                                                   \
    }                                                                       \
    return nu;                                                              \
}                                                                           \
                                                                            \
static int64_t merge_reduce_##W(                                            \
    const int64_t *const *part_keys, const double *const *part_cols,        \
    const int64_t *part_lens, int64_t nparts, int64_t ncols, int64_t total, \
    uint64_t kmin, int bits, int lbits, int64_t *ko, double *const *vo,     \
    mrec_##W *bufa, mrec_##W *bufb)                                         \
{                                                                           \
    int widths[MAXP], shifts[MAXP];                                         \
    int64_t hist[MAXP][MAX_PASS_SLOTS];                                     \
    int npass = pass_plan(bits, widths, shifts);                            \
    for (int p = 0; p < npass; p++)                                         \
        memset(hist[p], 0, sizeof(int64_t) << widths[p]);                   \
    for (int64_t q = 0; q < nparts; q++)                                    \
        radix_count(part_keys[q], 64, part_lens[q], kmin, npass, widths,   \
                    shifts, MAXP, hist);                                    \
    radix_starts(npass, widths, hist);                                      \
    OFF_T mask0 = ((OFF_T)1 << widths[0]) - 1;                              \
    for (int64_t q = 0; q < nparts; q++) {                                  \
        const int64_t *keys = part_keys[q];                                 \
        for (int64_t i = 0; i < part_lens[q]; i++) {                        \
            mrec_##W rec;                                                   \
            rec.off = (OFF_T)((uint64_t)keys[i] - kmin);                    \
            rec.row = (OFF_T)(((uint64_t)q << lbits) | (uint64_t)i);        \
            bufa[hist[0][rec.off & mask0]++] = rec;                         \
        }                                                                   \
    }                                                                       \
    mrec_##W *cur = bufa, *alt = bufb;                                      \
    for (int p = 1; p < npass; p++) {                                       \
        OFF_T mask = ((OFF_T)1 << widths[p]) - 1;                           \
        for (int64_t i = 0; i < total; i++)                                 \
            alt[hist[p][(cur[i].off >> shifts[p]) & mask]++] = cur[i];      \
        mrec_##W *swap = cur; cur = alt; alt = swap;                        \
    }                                                                       \
    /* A constant column count unrolls the gather: the per-key dst     \
     * sums have 3 columns, the src, day and block families 1. */          \
    if (ncols == 1)                                                         \
        return merge_scan_##W(cur, total, kmin, lbits, part_cols, 1, ko, vo); \
    if (ncols == 3)                                                         \
        return merge_scan_##W(cur, total, kmin, lbits, part_cols, 3, ko, vo); \
    return merge_scan_##W(cur, total, kmin, lbits, part_cols, ncols, ko, vo); \
}

DEFINE_MERGE_REDUCE(narrow, uint32_t, 3)
DEFINE_MERGE_REDUCE(wide, uint64_t, MAX_PASSES)

/* K-way merge of sorted-unique keyed parts: the fold's radix
 * sort-reduce over the parts' concatenation, so each key's sums
 * accumulate over parts in part order starting from 0.0 — the float
 * operation order np.bincount applies to the concatenated parts — for
 * any part count.  `part_cols` holds nparts*ncols column pointers,
 * part-major; `vo` holds ncols output columns and `ko` / `vo` room for
 * every input row.  `scratch` holds 2*total 16-byte records (the
 * caller's pooled buffer: no allocation here).  A key range and row
 * ids that fit 32 bits sort 8-byte records, anything wider 16-byte
 * ones.  Returns the merged length, or -1 on a shape it does not take
 * (the caller falls back). */
int64_t merge_k(
    const int64_t *const *part_keys, const double *const *part_cols,
    const int64_t *part_lens, int64_t nparts, int64_t ncols,
    int64_t *ko, double *const *vo, void *scratch)
{
    if (nparts < 1 || ncols < 1) return -1;
    int64_t total = 0, longest = 0;
    int64_t kmin = 0, kmax = 0;
    for (int64_t q = 0; q < nparts; q++) {
        int64_t len = part_lens[q];
        if (len < 0) return -1;
        if (len == 0) continue;
        /* Sorted parts: the range is read off the ends. */
        int64_t lo = part_keys[q][0], hi = part_keys[q][len - 1];
        if (total == 0 || lo < kmin) kmin = lo;
        if (total == 0 || hi > kmax) kmax = hi;
        if (len > longest) longest = len;
        total += len;
    }
    if (total == 0) return 0;
    int bits = bits_of((uint64_t)kmax - (uint64_t)kmin);
    int lbits = bits_of((uint64_t)longest - 1);
    int row_bits = lbits + bits_of((uint64_t)nparts - 1);
    if (row_bits > 64) return -1;
    char *base = scratch;
    if (bits <= 32 && row_bits <= 32)
        return merge_reduce_narrow(part_keys, part_cols, part_lens, nparts,
                                   ncols, total, (uint64_t)kmin, bits, lbits,
                                   ko, vo, (mrec_narrow *)base,
                                   (mrec_narrow *)(base + 8 * total));
    return merge_reduce_wide(part_keys, part_cols, part_lens, nparts, ncols,
                             total, (uint64_t)kmin, bits, lbits, ko, vo,
                             (mrec_wide *)base,
                             (mrec_wide *)(base + 16 * total));
}
