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
 * sort in 1-3 passes of <= 13 bits, then reduced by a branchless
 * segmented scan that accumulates each key's float64 sums in original
 * row order and emits unique keys ascending, with the per-/24 regroup
 * as a second branchless scan over the uniques — no hashing, no
 * comparison sort, no random gathers, no data-dependent branches in
 * the hot loops.
 */

#include <stdint.h>
#include <string.h>

#define MAX_PASS_BITS 13
#define MAX_PASS_SLOTS (1 << MAX_PASS_BITS)

#define PROTO_TCP 6

typedef struct { uint32_t off; int32_t pktcp; int32_t by; } rec3_t;
typedef struct { uint32_t off; int32_t pk; } rec1_t;

/* Width in bits of `range` (0..32).  The operand must be 64-bit: a
 * 32-bit shift by 32 is undefined behaviour (x86 shifts count mod 32),
 * which turns full-range keys into an infinite loop. */
static int bits_of(uint64_t range) {
    int bits = 0;
    while (range >> bits) bits++;
    return bits;
}

/* Split `bits` into 1-3 stable LSD passes of <= MAX_PASS_BITS each. */
static int pass_plan(int bits, int *widths) {
    int npass = bits <= MAX_PASS_BITS ? 1 : (bits <= 2 * MAX_PASS_BITS ? 2 : 3);
    for (int p = 0; p < npass; p++)
        widths[p] = bits / npass + (p < bits % npass);
    return npass;
}

/* Grouped (tcp_pkts, tcp_bytes, total_pkts) float64 sums per dst IP
 * plus the per-/24 regroup of total packets, via full radix sort and a
 * branchless segmented reduce.  Sums accumulate unscaled (exact for
 * the integer counts involved) and are scaled by `factor` once at the
 * end — the same operation order as the numpy reference.  Returns the
 * unique-key count, or -1 when a value overflows the 31-bit record
 * field (caller falls back to the reference path). */
static int64_t fold3(
    const uint32_t *keys, const uint8_t *proto,
    const int64_t *packets, const int64_t *bytes_, int64_t n,
    uint32_t kmin, int bits, double factor, int64_t block_shift,
    int64_t *out_keys, double *out_a, double *out_b, double *out_c,
    int64_t *blk_keys, double *blk_vals, int64_t *nblk_out,
    rec3_t *bufa, rec3_t *bufb)
{
    *nblk_out = 0;
    if (n == 0) return 0;
    int widths[3];
    int npass = pass_plan(bits, widths);

    /* All pass histograms in one read of the keys. */
    int64_t hist[3][MAX_PASS_SLOTS];
    for (int p = 0; p < npass; p++)
        memset(hist[p], 0, sizeof(int64_t) << widths[p]);
    {
        int w0 = widths[0], w1 = widths[1 % npass];
        uint32_t m0 = (1u << w0) - 1, m1 = (1u << w1) - 1;
        for (int64_t i = 0; i < n; i++) {
            uint32_t u = keys[i] - kmin;
            hist[0][u & m0]++;
            if (npass > 1) hist[1][(u >> w0) & m1]++;
            if (npass > 2) hist[2][u >> (w0 + w1)]++;
        }
    }
    for (int p = 0; p < npass; p++) {
        int64_t run = 0;
        for (int64_t b = 0; b < (int64_t)1 << widths[p]; b++) {
            int64_t count = hist[p][b];
            hist[p][b] = run;
            run += count;
        }
    }

    /* Pass 1 scatters records straight from the input columns; the
     * TCP flag rides in the sign bit of the packet field. */
    {
        uint32_t mask = (1u << widths[0]) - 1;
        for (int64_t i = 0; i < n; i++) {
            uint32_t u = keys[i] - kmin;
            rec3_t rec;
            rec.off = u;
            rec.pktcp = (int32_t)packets[i]
                | (proto[i] == PROTO_TCP ? INT32_MIN : 0);
            rec.by = (int32_t)bytes_[i];
            bufa[hist[0][u & mask]++] = rec;
        }
    }
    rec3_t *cur = bufa, *alt = bufb;
    int shift = widths[0];
    for (int p = 1; p < npass; p++) {
        uint32_t mask = (1u << widths[p]) - 1;
        for (int64_t i = 0; i < n; i++)
            alt[hist[p][(cur[i].off >> shift) & mask]++] = cur[i];
        rec3_t *swap = cur; cur = alt; alt = swap;
        shift += widths[p];
    }
    const rec3_t *recs = cur;

    /* Branchless segmented reduce: records are in full key order with
     * original row order preserved per key. */
    uint32_t prev = recs[0].off;
    double tcp0 = (double)((uint32_t)recs[0].pktcp >> 31);
    double pk0 = (double)(recs[0].pktcp & INT32_MAX);
    out_keys[0] = (int64_t)kmin + prev;
    out_a[0] = tcp0 * pk0;
    out_b[0] = tcp0 * (double)recs[0].by;
    out_c[0] = pk0;
    int64_t nu = 1;
    for (int64_t i = 1; i < n; i++) {
        rec3_t rec = recs[i];
        int fresh = rec.off != prev;
        prev = rec.off;
        nu += fresh;
        int64_t m = nu - 1;
        out_keys[m] = (int64_t)kmin + rec.off;
        double sum_a = out_a[m], sum_b = out_b[m], sum_c = out_c[m];
        sum_a = fresh ? 0.0 : sum_a;
        sum_b = fresh ? 0.0 : sum_b;
        sum_c = fresh ? 0.0 : sum_c;
        double tcp = (double)((uint32_t)rec.pktcp >> 31);
        double pk = (double)(rec.pktcp & INT32_MAX);
        out_a[m] = sum_a + tcp * pk;
        out_b[m] = sum_b + tcp * (double)rec.by;
        out_c[m] = sum_c + pk;
    }

    /* Per-block regroup of the (still unscaled) totals. */
    int64_t prev_blk = out_keys[0] >> block_shift;
    blk_keys[0] = prev_blk;
    blk_vals[0] = out_c[0];
    int64_t nblk = 1;
    for (int64_t i = 1; i < nu; i++) {
        int64_t blk = out_keys[i] >> block_shift;
        int fresh = blk != prev_blk;
        prev_blk = blk;
        nblk += fresh;
        int64_t m = nblk - 1;
        blk_keys[m] = blk;
        double sum = blk_vals[m];
        sum = fresh ? 0.0 : sum;
        blk_vals[m] = sum + out_c[i];
    }
    for (int64_t i = 0; i < nu; i++) {
        out_a[i] *= factor;
        out_b[i] *= factor;
        out_c[i] *= factor;
    }
    for (int64_t i = 0; i < nblk; i++) blk_vals[i] *= factor;
    *nblk_out = nblk;
    return nu;
}

/* Grouped packet sums per src IP plus the per-block regroup (unscaled). */
static int64_t fold1(
    const uint32_t *keys, const int64_t *packets, int64_t n,
    uint32_t kmin, int bits, int64_t block_shift,
    int64_t *out_keys, double *out_a,
    int64_t *blk_keys, double *blk_vals, int64_t *nblk_out,
    rec1_t *bufa, rec1_t *bufb)
{
    *nblk_out = 0;
    if (n == 0) return 0;
    int widths[3];
    int npass = pass_plan(bits, widths);

    int64_t hist[3][MAX_PASS_SLOTS];
    for (int p = 0; p < npass; p++)
        memset(hist[p], 0, sizeof(int64_t) << widths[p]);
    {
        int w0 = widths[0], w1 = widths[1 % npass];
        uint32_t m0 = (1u << w0) - 1, m1 = (1u << w1) - 1;
        for (int64_t i = 0; i < n; i++) {
            uint32_t u = keys[i] - kmin;
            hist[0][u & m0]++;
            if (npass > 1) hist[1][(u >> w0) & m1]++;
            if (npass > 2) hist[2][u >> (w0 + w1)]++;
        }
    }
    for (int p = 0; p < npass; p++) {
        int64_t run = 0;
        for (int64_t b = 0; b < (int64_t)1 << widths[p]; b++) {
            int64_t count = hist[p][b];
            hist[p][b] = run;
            run += count;
        }
    }

    {
        uint32_t mask = (1u << widths[0]) - 1;
        for (int64_t i = 0; i < n; i++) {
            uint32_t u = keys[i] - kmin;
            rec1_t rec;
            rec.off = u;
            rec.pk = (int32_t)packets[i];
            bufa[hist[0][u & mask]++] = rec;
        }
    }
    rec1_t *cur = bufa, *alt = bufb;
    int shift = widths[0];
    for (int p = 1; p < npass; p++) {
        uint32_t mask = (1u << widths[p]) - 1;
        for (int64_t i = 0; i < n; i++)
            alt[hist[p][(cur[i].off >> shift) & mask]++] = cur[i];
        rec1_t *swap = cur; cur = alt; alt = swap;
        shift += widths[p];
    }
    const rec1_t *recs = cur;

    uint32_t prev = recs[0].off;
    out_keys[0] = (int64_t)kmin + prev;
    out_a[0] = (double)recs[0].pk;
    int64_t nu = 1;
    for (int64_t i = 1; i < n; i++) {
        rec1_t rec = recs[i];
        int fresh = rec.off != prev;
        prev = rec.off;
        nu += fresh;
        int64_t m = nu - 1;
        out_keys[m] = (int64_t)kmin + rec.off;
        double sum = out_a[m];
        sum = fresh ? 0.0 : sum;
        out_a[m] = sum + (double)rec.pk;
    }

    int64_t prev_blk = out_keys[0] >> block_shift;
    blk_keys[0] = prev_blk;
    blk_vals[0] = out_a[0];
    int64_t nblk = 1;
    for (int64_t i = 1; i < nu; i++) {
        int64_t blk = out_keys[i] >> block_shift;
        int fresh = blk != prev_blk;
        prev_blk = blk;
        nblk += fresh;
        int64_t m = nblk - 1;
        blk_keys[m] = blk;
        double sum = blk_vals[m];
        sum = fresh ? 0.0 : sum;
        blk_vals[m] = sum + out_a[i];
    }
    *nblk_out = nblk;
    return nu;
}

/* The fused per-chunk accumulator fold: one call produces all four
 * keyed parts PrefixAccumulator.update() appends for a chunk with no
 * ignored-sender filter.  counts = {n_dst, n_vol, n_src, n_raw}; -1 on
 * 31-bit value overflow (fallback). */
int64_t fold_chunk(
    const uint32_t *src_ip, const uint32_t *dst_ip, const uint8_t *proto,
    const int64_t *packets, const int64_t *bytes_, int64_t n, double factor,
    int64_t block_shift,
    int64_t *dst_keys, double *dst_tcp_pk, double *dst_tcp_by, double *dst_tot,
    int64_t *vol_keys, double *vol_pk,
    int64_t *src_keys, double *src_pk,
    int64_t *raw_keys, double *raw_pk,
    void *bufa, void *bufb,
    int64_t *counts)
{
    if (n == 0) {
        counts[0] = counts[1] = counts[2] = counts[3] = 0;
        return 0;
    }
    /* Fused scan: both key ranges plus the 31-bit value guard. */
    uint32_t dmin = dst_ip[0], dmax = dst_ip[0];
    uint32_t smin = src_ip[0], smax = src_ip[0];
    for (int64_t i = 0; i < n; i++) {
        uint32_t d = dst_ip[i], s = src_ip[i];
        if (d < dmin) dmin = d;
        if (d > dmax) dmax = d;
        if (s < smin) smin = s;
        if (s > smax) smax = s;
        if ((uint64_t)packets[i] >= INT32_MAX
            || (uint64_t)bytes_[i] >= INT32_MAX)
            return -1;
    }
    int64_t nvol = 0, nraw = 0;
    int64_t ndst = fold3(dst_ip, proto, packets, bytes_, n,
                         dmin, bits_of(dmax - dmin), factor, block_shift,
                         dst_keys, dst_tcp_pk, dst_tcp_by, dst_tot,
                         vol_keys, vol_pk, &nvol,
                         (rec3_t *)bufa, (rec3_t *)bufb);
    if (ndst < 0) return -1;
    int64_t nsrc = fold1(src_ip, packets, n,
                         smin, bits_of(smax - smin), block_shift,
                         src_keys, src_pk, raw_keys, raw_pk, &nraw,
                         (rec1_t *)bufa, (rec1_t *)bufb);
    if (nsrc < 0) return -1;
    counts[0] = ndst;
    counts[1] = nvol;
    counts[2] = nsrc;
    counts[3] = nraw;
    return 0;
}

/* Two-way merge of sorted-unique keyed parts, summing equal keys as
 * left + right — the float operation order np.bincount applies to the
 * concatenated parts.  Returns the merged length. */
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
            for (int64_t c = 0; c < ncols; c++) vo[c][m] = va[c][i];
            i++;
        } else if (b < a) {
            ko[m] = b;
            for (int64_t c = 0; c < ncols; c++) vo[c][m] = vb[c][j];
            j++;
        } else {
            ko[m] = a;
            for (int64_t c = 0; c < ncols; c++)
                vo[c][m] = va[c][i] + vb[c][j];
            i++;
            j++;
        }
        m++;
    }
    while (i < na) {
        ko[m] = ka[i];
        for (int64_t c = 0; c < ncols; c++) vo[c][m] = va[c][i];
        i++;
        m++;
    }
    while (j < nb) {
        ko[m] = kb[j];
        for (int64_t c = 0; c < ncols; c++) vo[c][m] = vb[c][j];
        j++;
        m++;
    }
    return m;
}

/* K-way merge of sorted-unique keyed parts, accumulating each key's
 * sum over parts in part order starting from 0.0 — the float operation
 * order np.bincount applies to the concatenated parts.  One sequential
 * pass over every part; no sort.  `part_cols` holds nparts*ncols
 * column pointers, part-major.  Returns the merged length, or -1 when
 * nparts exceeds the head-index capacity (caller falls back). */
int64_t merge_k(
    const int64_t *const *part_keys, const double *const *part_cols,
    const int64_t *part_lens, int64_t nparts, int64_t ncols,
    int64_t *ko, double **vo)
{
    int64_t idx[64];
    if (nparts > 64) return -1;
    for (int64_t p = 0; p < nparts; p++) idx[p] = 0;
    int64_t m = 0;
    for (;;) {
        int64_t best = 0;
        int live = 0;
        for (int64_t p = 0; p < nparts; p++) {
            if (idx[p] < part_lens[p]) {
                int64_t k = part_keys[p][idx[p]];
                if (!live || k < best) best = k;
                live = 1;
            }
        }
        if (!live) break;
        ko[m] = best;
        for (int64_t c = 0; c < ncols; c++) vo[c][m] = 0.0;
        for (int64_t p = 0; p < nparts; p++) {
            int64_t i = idx[p];
            if (i < part_lens[p] && part_keys[p][i] == best) {
                const double *const *cols = part_cols + p * ncols;
                for (int64_t c = 0; c < ncols; c++) vo[c][m] += cols[c][i];
                idx[p] = i + 1;
            }
        }
        m++;
    }
    return m;
}
