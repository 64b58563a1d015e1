/* Native fold kernels for the meta-telescope accumulator.
 *
 * A CPython extension module, _kernels, compiled on demand by
 * repro.core.kernels (cc -O3 -shared -fPIC -I<python include>).  Its
 * only exported symbol is PyInit__kernels; the module has exactly six
 * functions, fold_batch, merge_sorted, merge_k, crc32_columns,
 * address_pass and parse_csv_block — the ops that earn their C in the
 * layer budget (crc32_columns checksums flowpack columns, address_pass
 * walks the funnel's address table, parse_csv_block turns a plain flow
 * CSV block into typed columns; see their own comments further down).
 * parse_csv_block reads untrusted bytes: it reads only the block, writes
 * only the rows its outputs hold, and declines (None) every block that
 * is not exactly what repro.io's plain path takes — a byte outside
 * "0-9,-\r\n", a lone CR, a ragged row, an empty field, a misplaced '-',
 * a value out of range — so the per-row reader names the damage.
 * Arrays arrive through the buffer protocol and are checked here (see
 * the binding section at the end of this file) before the GIL is
 * dropped.  Identity
 * contract: every kernel accumulates per-key sums in original row
 * order and merges parts left-to-right, reproducing numpy's np.unique
 * + np.bincount float operation order bit for bit (see
 * docs/architecture.md §12).  A product and the sum it feeds round
 * separately, as numpy's do: the runtime build passes
 * -ffp-contract=off, so no compiler fuses them into one multiply-add.
 *
 * fold_batch folds a batch of row slices from one day — a slice is a
 * run of one vantage's rows with its own sampling factor — in one
 * call: one destination part, one volume part and one source-key set
 * for the whole batch, plus one raw source-block part per slice.  Its
 * semantics are the numpy reference's: each slice folded alone
 * (unscaled per-key sums, then times the slice's factor), the slices'
 * parts then group-summed in slice order.
 *
 * Grouping algorithm: the batch's rows, slice after slice, become
 * compact records (key offset + 32-bit values, the TCP flag packed into
 * the sign bit of the packet field and the slice index into the packet
 * field's top bits), fully sorted by key with a stable LSD radix sort
 * in passes of <= 13 bits — no hashing, no comparison sort, no random
 * gathers — so a key's records keep slice order and, within a slice,
 * row order.  The destination side sorts one record per row.  The
 * source side sorts one record per run of consecutive rows of one
 * slice with one source key: its histogram read counts run heads, its
 * first scatter sums each run's packets into the run's record, and a
 * run whose sum would leave the packet field opens a new record there
 * (a feed that emits each scanner's probes together — the simulated v6
 * one does — sorts a few records per hundred rows; one that does not
 * sorts about one a row, as before).  Every batch, of one slice or
 * fourteen, is then walked run
 * by run: each (key, slice) run summed in row order from 0.0 — the
 * slice's own unscaled per-key sums — and added times the slice's
 * factor to the key's totals, in slice order from 0.0, while each
 * block's per-slice volume subtotals are collected and added times
 * their factors to the block's volume the same way.  A one-slice batch
 * (a CSV chunk, one IPv6 view a day) takes the same walk: its one
 * run per key gives 0.0 + sum x factor, the reference's sum x factor
 * bit for bit, as no sum is negative.  The source side's sums are
 * integer packet counts and are never scaled: below a batch packet
 * total of 2**53 each is exact in any grouping, so summing a run in
 * integers first changes no double.  The fused scan that checks every
 * count also totals them, and a batch at 2**53 or past it declines to
 * the reference.  Keys are 32-bit (IPv4)
 * or 64-bit (IPv6 /64 ids).  The record width follows the batch's key
 * range, not the key width: a range that fits 32 bits sorts 12-/8-byte
 * records with 32-bit offsets in 1-3 passes; only a wider one (64-bit
 * keys alone get there) sorts 16-byte records with 64-bit offsets in
 * up to 5.  The slice index costs no record width: a batch of k slices
 * leaves 31 - bits(k - 1) bits for a row's packets, or a run's packet
 * sum (27 for 14 views), and a larger row count declines the batch
 * like any count past 31 bits.
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
 * faster than the sort.  Both merges decline a call in which a part's
 * keys do not ascend strictly: merge_k checks them as its first pass
 * reads them, merge_sorted checks its output.  No kernel allocates:
 * scratch comes from the caller's per-thread pool, and the binding's
 * per-call tables.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

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
 * each (1-3 for a 32-bit range, up to 5 for a 64-bit one): each pass's
 * digit width and bit position, and its histogram zeroed.
 * Returns the pass count. */
static int radix_plan(int bits, int *widths, int *shifts,
                      int64_t (*hist)[MAX_PASS_SLOTS])
{
    int npass = bits <= MAX_PASS_BITS ? 1
                                      : (bits + MAX_PASS_BITS - 1) / MAX_PASS_BITS;
    int shift = 0;
    for (int p = 0; p < npass; p++) {
        widths[p] = bits / npass + (p < bits % npass);
        shifts[p] = shift;
        memset(hist[p], 0, sizeof(int64_t) << widths[p]);
        shift += widths[p];
    }
    return npass;
}

/* Count key offset `u` in every pass histogram.  Inlined per record
 * width so the pass loop unrolls over the constant `maxp`. */
static inline __attribute__((always_inline)) void hist_add(
    uint64_t u, int npass, const uint64_t *masks, const int *shifts,
    int maxp, int64_t (*hist)[MAX_PASS_SLOTS])
{
    for (int p = 0; p < maxp; p++)
        if (p < npass) hist[p][(u >> shifts[p]) & masks[p]]++;
}

/* Add one key column to every pass histogram in a single read. */
static inline __attribute__((always_inline)) void radix_count(
    const void *keys, int key_bits, int64_t n, uint64_t kmin,
    int npass, const int *widths, const int *shifts, int maxp,
    int64_t (*hist)[MAX_PASS_SLOTS])
{
    uint64_t masks[MAX_PASSES] = {0};
    for (int p = 0; p < npass; p++)
        masks[p] = ((uint64_t)1 << widths[p]) - 1;
    for (int64_t i = 0; i < n; i++)
        hist_add((uint64_t)key_at(keys, key_bits, i) - kmin, npass, masks,
                 shifts, maxp, hist);
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

/* One slice of a batch: `n` rows of src / dst keys (the batch's key
 * width), protocol, packets and bytes. */
typedef struct {
    const void *src, *dst;
    const uint8_t *proto;
    const int64_t *packets, *bytes_;
    int64_t n;
} Slice;

/* Whether a row heads a new source run record: it is its slice's first
 * row (`first`), its key differs from the previous row's, or (`split`
 * 1) its packets would carry the run's sum out of the `pmask` packet
 * field.  `*sum` becomes the record's sum so far, this row's packets
 * included; `*prev` this row's key.  The histogram read and the first
 * scatter call it alike, so they count and fill the same records.
 * The histogram read passes a constant 0 for `split` where the batch's
 * packet total fits the field (no run can split there) and then reads
 * no packets. */
static inline __attribute__((always_inline)) int run_head(
    int64_t key, uint64_t packets, int first, int split, uint64_t pmask,
    int64_t *prev, uint64_t *sum)
{
    int head = first | (key != *prev) | (split && *sum + packets > pmask);
    *sum = head ? packets : *sum + packets;
    *prev = key;
    return head;
}

/* Count slice `sl`'s source run records into every pass histogram;
 * their number.  With `split` 0 it reads no packets. */
static inline __attribute__((always_inline)) int64_t run_count(
    const Slice *sl, int key_bits, uint64_t kmin, uint64_t pmask, int split,
    int npass, const int *widths, const int *shifts, int maxp,
    int64_t (*hist)[MAX_PASS_SLOTS])
{
    uint64_t masks[MAX_PASSES] = {0};
    for (int p = 0; p < npass; p++)
        masks[p] = ((uint64_t)1 << widths[p]) - 1;
    int64_t prev = 0, heads = 0;
    uint64_t sum = 0;
    for (int64_t i = 0; i < sl->n; i++) {
        int64_t key = key_at(sl->src, key_bits, i);
        if (!run_head(key, (uint64_t)sl->packets[i], i == 0, split, pmask,
                      &prev, &sum))
            continue;
        hist_add((uint64_t)key - kmin, npass, masks, shifts, maxp, hist);
        heads++;
    }
    return heads;
}

/* The pass tables of a sort of at most MAXP passes over a `bits`-bit
 * key range (see radix_plan). */
#define RADIX_PLAN(MAXP)                                                    \
    int widths[MAXP], shifts[MAXP];                                         \
    int64_t hist[MAXP][MAX_PASS_SLOTS];                                     \
    int npass = radix_plan(bits, widths, shifts, hist)

/* NAME: passes 2..npass of a stable LSD radix sort of `m` REC records
 * that pass 1 scattered into `bufa`, ping-ponging between the two
 * buffers.  Returns the buffer holding the sorted records. */
#define DEFINE_RADIX_REST(NAME, REC, OFF_T)                                 \
static inline __attribute__((always_inline)) REC *NAME(                     \
    REC *bufa, REC *bufb, int64_t m, int npass, const int *widths,          \
    const int *shifts, int64_t (*hist)[MAX_PASS_SLOTS])                     \
{                                                                           \
    REC *cur = bufa, *alt = bufb;                                           \
    for (int p = 1; p < npass; p++) {                                       \
        OFF_T mask = ((OFF_T)1 << widths[p]) - 1;                           \
        for (int64_t i = 0; i < m; i++)                                     \
            alt[hist[p][(cur[i].off >> shifts[p]) & mask]++] = cur[i];      \
        REC *swap = cur; cur = alt; alt = swap;                             \
    }                                                                       \
    return cur;                                                             \
}

/* NAME: the stable LSD radix sort of every row of `nslices` slices, in
 * slice order, as REC records keyed by the destination key's offset
 * from kmin — all pass histograms in one read of every slice's keys,
 * pass 1 scattering records built straight from the slices' columns:
 * the packets with the slice index above their `pbits` bits (the scan
 * checked every count fits below), the TCP flag in bit 31 of the packet
 * field, the bytes.  Returns the buffer holding the sorted records.
 * n >= 1. */
#define DEFINE_ROW_SORT(NAME, REC, OFF_T, MAXP)                             \
DEFINE_RADIX_REST(NAME##_rest, REC, OFF_T)                                  \
static REC *NAME(const Slice *slices, int64_t nslices, int key_bits,       \
                 int64_t n, uint64_t kmin, int bits, int pbits,             \
                 REC *bufa, REC *bufb)                                      \
{                                                                           \
    RADIX_PLAN(MAXP);                                                       \
    for (int64_t q = 0; q < nslices; q++)                                   \
        radix_count(slices[q].dst, key_bits, slices[q].n, kmin, npass,      \
                    widths, shifts, MAXP, hist);                            \
    radix_starts(npass, widths, hist);                                      \
    OFF_T mask0 = ((OFF_T)1 << widths[0]) - 1;                              \
    for (int64_t q = 0; q < nslices; q++) {                                 \
        const Slice *sl = &slices[q];                                       \
        uint32_t tag = (uint32_t)q << pbits;                                \
        for (int64_t i = 0; i < sl->n; i++) {                               \
            REC rec;                                                        \
            rec.off = (OFF_T)((uint64_t)key_at(sl->dst, key_bits, i)        \
                              - kmin);                                      \
            rec.pktcp = (int32_t)((uint32_t)sl->packets[i] | tag            \
                | (sl->proto[i] == PROTO_TCP ? 0x80000000u : 0u));          \
            rec.by = (int32_t)sl->bytes_[i];                                \
            bufa[hist[0][rec.off & mask0]++] = rec;                         \
        }                                                                   \
    }                                                                       \
    return NAME##_rest(bufa, bufb, n, npass, widths, shifts, hist);         \
}

/* NAME: the stable LSD radix sort of the source side as run records,
 * one per run of rows of one slice with one source key (run_head
 * splits a run whose packet sum would leave the field).  A record holds
 * the key's offset from kmin and the run's packet sum with the slice
 * index above its `pbits` bits.  The histogram read counts run heads
 * (reading the packets only when the batch's packet `total` exceeds the
 * field, the one case a run can split); pass 1 opens a record at each
 * head and sums the run's packets into it as it reads them; later
 * passes move records only.  Sets `*sorted` to the buffer holding the
 * sorted records and returns their count, 1..n. */
#define DEFINE_RUN_SORT(NAME, REC, OFF_T, MAXP)                             \
DEFINE_RADIX_REST(NAME##_rest, REC, OFF_T)                                  \
static int64_t NAME(const Slice *slices, int64_t nslices, int key_bits,    \
                    uint64_t kmin, int bits, int pbits, uint64_t total,     \
                    REC *bufa, REC *bufb, const REC **sorted)               \
{                                                                           \
    RADIX_PLAN(MAXP);                                                       \
    uint64_t pmask = ((uint64_t)1 << pbits) - 1;                            \
    int64_t m = 0;                                                          \
    for (int64_t q = 0; q < nslices; q++)                                   \
        m += total > pmask                                                  \
            ? run_count(&slices[q], key_bits, kmin, pmask, 1, npass,       \
                        widths, shifts, MAXP, hist)                         \
            : run_count(&slices[q], key_bits, kmin, pmask, 0, npass,       \
                        widths, shifts, MAXP, hist);                        \
    radix_starts(npass, widths, hist);                                      \
    OFF_T mask0 = ((OFF_T)1 << widths[0]) - 1;                              \
    for (int64_t q = 0; q < nslices; q++) {                                 \
        const Slice *sl = &slices[q];                                       \
        uint32_t tag = (uint32_t)q << pbits;                                \
        int64_t prev = 0;                                                   \
        uint64_t sum = 0;                                                   \
        REC *rec = bufa;                                                    \
        for (int64_t i = 0; i < sl->n; i++) {                               \
            int64_t key = key_at(sl->src, key_bits, i);                     \
            int head = run_head(key, (uint64_t)sl->packets[i], i == 0, 1,   \
                                pmask, &prev, &sum);                        \
            int32_t pk = (int32_t)(tag | (uint32_t)sum);                    \
            if (head) {                                                     \
                /* One store of the whole record: where runs are short,  \
                 * most rows are heads. */                                  \
                REC open = {(OFF_T)((uint64_t)key - kmin), pk};             \
                rec = &bufa[hist[0][open.off & mask0]++];                   \
                *rec = open;                                                \
            } else {                                                        \
                rec->pk = pk;                                               \
            }                                                               \
        }                                                                   \
    }                                                                       \
    *sorted = NAME##_rest(bufa, bufb, m, npass, widths, shifts, hist);      \
    return m;                                                               \
}

/* The record-typed half of the fold, stamped out once per offset width
 * W (OFF_T offsets, at most MAXP passes).  Each function sorts, then
 * scans; a sum starts from 0.0, as np.bincount's do, and adds in row
 * order.  fold_dst_W / fold_src_W take one slice or many, their
 * records carrying the slice index above `pbits` packet bits (31 for
 * one slice, whose index is 0), and walk each key's (key, slice) runs
 * — slice order within a key — emitting keys ascending as kmin +
 * offset.  fold_dst_W
 * emits the per-key totals 0.0 + (run sums x factor)
 * in slice order and per block 0.0 + (per-slice subtotal x factor) in
 * slice order, each subtotal 0.0 plus the slice's key totals in key
 * order, as the reference regroups each slice's part (`vsub` / `vmark`
 * hold one subtotal and its block's ordinal per slice, so no flag needs
 * clearing).  fold_src_W walks run records (sort1_W), adding their
 * packet sums in row order, and emits the unique keys and each slice's
 * raw per-block packet sums, built in the slice's own region (it starts at
 * the rows of the slices before it, the most blocks they can hold) and
 * then packed slice after slice.  counts = {keys, blocks}.  n >= 1. */
#define DEFINE_FOLD(W, OFF_T, MAXP)                                         \
typedef struct { OFF_T off; int32_t pktcp; int32_t by; } rec3_##W;          \
typedef struct { OFF_T off; int32_t pk; } rec1_##W;                         \
                                                                            \
DEFINE_ROW_SORT(sort3_##W, rec3_##W, OFF_T, MAXP)                           \
DEFINE_RUN_SORT(sort1_##W, rec1_##W, OFF_T, MAXP)                           \
                                                                            \
static void fold_dst_##W(                                                   \
    const Slice *slices, int64_t nslices, int key_bits, int64_t n,          \
    uint64_t kmin, int bits, int pbits, const double *factors,              \
    int64_t block_shift, int64_t *keys, double *tcp_pk, double *tcp_by,     \
    int64_t *vol_keys, double *vol_pk, double *vsub, int64_t *vmark,        \
    int64_t *counts, void *bufa, void *bufb)                                \
{                                                                           \
    const rec3_##W *cur = sort3_##W(slices, nslices, key_bits, n, kmin,    \
                                     bits, pbits, bufa, bufb);              \
    uint32_t pmask = ((uint32_t)1 << pbits) - 1;                            \
    for (int64_t s = 0; s < nslices; s++) {                                 \
        vsub[s] = 0.0;                                                      \
        vmark[s] = -1;                                                      \
    }                                                                       \
    int64_t nu = 0, nblk = 0, lo = nslices, hi = -1, i = 0;                 \
    int64_t block = (int64_t)(kmin + cur[0].off) >> block_shift;            \
    while (i < n) {                                                         \
        OFF_T off = cur[i].off;                                             \
        double sum_pk = 0.0, sum_by = 0.0;                                  \
        do {                                                                \
            uint32_t s = ((uint32_t)cur[i].pktcp & INT32_MAX) >> pbits;     \
            double pk = 0.0, by = 0.0, tot = 0.0;                           \
            do {                                                            \
                rec3_##W rec = cur[i];                                      \
                double tcp = (double)((uint32_t)rec.pktcp >> 31);           \
                double p = (double)((uint32_t)rec.pktcp & pmask);           \
                pk = pk + tcp * p;                                          \
                by = by + tcp * (double)rec.by;                             \
                tot = tot + p;                                              \
                i++;                                                        \
            } while (i < n && cur[i].off == off                             \
                     && ((uint32_t)cur[i].pktcp & INT32_MAX) >> pbits == s); \
            double factor = factors[s];                                     \
            sum_pk = sum_pk + pk * factor;                                  \
            sum_by = sum_by + by * factor;                                  \
            double sub = vsub[s];                                           \
            vsub[s] = (vmark[s] == nblk ? sub : 0.0) + tot;                 \
            vmark[s] = nblk;                                                \
            lo = (int64_t)s < lo ? (int64_t)s : lo;                         \
            hi = (int64_t)s > hi ? (int64_t)s : hi;                         \
        } while (i < n && cur[i].off == off);                               \
        keys[nu] = (int64_t)(kmin + off);                                   \
        tcp_pk[nu] = sum_pk;                                                \
        tcp_by[nu] = sum_by;                                                \
        nu++;                                                               \
        int64_t next = i < n                                                \
            ? (int64_t)(kmin + cur[i].off) >> block_shift : ~block;         \
        if (next != block) {                                                \
            double sum = 0.0;                                               \
            for (int64_t t = lo; t <= hi; t++)                              \
                if (vmark[t] == nblk) sum = sum + vsub[t] * factors[t];     \
            vol_keys[nblk] = block;                                         \
            vol_pk[nblk] = sum;                                             \
            nblk++;                                                         \
            lo = nslices;                                                   \
            hi = -1;                                                        \
            block = next;                                                   \
        }                                                                   \
    }                                                                       \
    counts[0] = nu;                                                         \
    counts[1] = nblk;                                                       \
}                                                                           \
                                                                            \
static void fold_src_##W(                                                   \
    const Slice *slices, int64_t nslices, int key_bits, uint64_t kmin,      \
    int bits, int pbits, uint64_t total, int64_t block_shift,               \
    int64_t *src_keys, int64_t *raw_keys, double *raw_pk,                   \
    int64_t *raw_counts, int64_t *base, int64_t *prev_blk, int64_t *counts, \
    void *bufa, void *bufb)                                                 \
{                                                                           \
    const rec1_##W *cur;                                                    \
    int64_t n = sort1_##W(slices, nslices, key_bits, kmin, bits, pbits,    \
                          total, bufa, bufb, &cur);                         \
    uint32_t pmask = ((uint32_t)1 << pbits) - 1;                            \
    int64_t start = 0;                                                      \
    for (int64_t s = 0; s < nslices; s++) {                                 \
        base[s] = start;                                                    \
        start += slices[s].n;                                               \
        raw_counts[s] = 0;                                                  \
        prev_blk[s] = 0;                                                    \
    }                                                                       \
    int64_t nsrc = 0, i = 0;                                                \
    while (i < n) {                                                         \
        OFF_T off = cur[i].off;                                             \
        int64_t key = (int64_t)(kmin + off);                                \
        int64_t block = key >> block_shift;                                 \
        src_keys[nsrc++] = key;                                             \
        do {                                                                \
            uint32_t s = (uint32_t)cur[i].pk >> pbits;                      \
            double pk = 0.0;                                                \
            do {                                                            \
                pk = pk + (double)((uint32_t)cur[i].pk & pmask);            \
                i++;                                                        \
            } while (i < n && cur[i].off == off                             \
                     && (uint32_t)cur[i].pk >> pbits == s);                 \
            int fresh = (raw_counts[s] == 0) | (block != prev_blk[s]);      \
            prev_blk[s] = block;                                            \
            raw_counts[s] += fresh;                                         \
            int64_t at = base[s] + raw_counts[s] - 1;                       \
            double sum = raw_pk[at];                                        \
            sum = fresh ? 0.0 : sum;                                        \
            raw_keys[at] = block;                                           \
            raw_pk[at] = sum + pk;                                          \
        } while (i < n && cur[i].off == off);                               \
    }                                                                       \
    /* Close the gaps: each slice's blocks follow the previous one's. */   \
    int64_t packed = 0;                                                     \
    for (int64_t s = 0; s < nslices; s++) {                                 \
        memmove(raw_keys + packed, raw_keys + base[s],                      \
                (size_t)raw_counts[s] * sizeof(int64_t));                   \
        memmove(raw_pk + packed, raw_pk + base[s],                          \
                (size_t)raw_counts[s] * sizeof(double));                    \
        packed += raw_counts[s];                                            \
    }                                                                       \
    counts[0] = nsrc;                                                       \
    counts[1] = packed;                                                     \
}

DEFINE_FOLD(narrow, uint32_t, 3)
DEFINE_FOLD(wide, uint64_t, MAX_PASSES)

/* The batched fold: one call produces every keyed part
 * PrefixAccumulator appends for a batch of one day's slices with no
 * ignored-sender filter.  Every slice holds `key_bits` (32 or 64) bit
 * keys; `factors` one sampling factor per slice.  Outputs (room for
 * every row of the batch): the destination part (dst_keys, dst_tcp_pk,
 * dst_tcp_by), the volume part (vol_keys, vol_pk), the source keys
 * (src_keys) and the slices' raw source-block parts packed slice after
 * slice (raw_keys, raw_pk; raw_counts gets each slice's length).
 * `bufa` / `bufb` each hold one record per row (12 bytes for 32-bit
 * keys, 16 for 64-bit ones; the source side's run records are at most
 * one per row); `state` 2 * nslices int64, `vsub` nslices doubles and
 * `raw_counts` nslices int64.  counts = {n_dst, n_vol, n_src}; -1 on a
 * count outside the record's packet or byte field, a packet total of
 * 2**53 or more, or another key width (fallback). */
static int64_t fold_batch(
    const Slice *slices, int64_t nslices, int key_bits,
    const double *factors, int64_t block_shift,
    int64_t *dst_keys, double *dst_tcp_pk, double *dst_tcp_by,
    int64_t *vol_keys, double *vol_pk,
    int64_t *src_keys, int64_t *raw_keys, double *raw_pk,
    int64_t *raw_counts, int64_t *state, double *vsub,
    void *bufa, void *bufb, int64_t *counts)
{
    counts[0] = counts[1] = counts[2] = 0;
    for (int64_t s = 0; s < nslices; s++) raw_counts[s] = 0;
    if (key_bits != 32 && key_bits != 64) return -1;
    /* Fused scan: both (signed) key ranges, the 31-bit value guard and
     * the packet total run records are exact below. */
    int64_t n = 0, dmin = 0, dmax = 0, smin = 0, smax = 0;
    uint64_t most = 0, total = 0;
    for (int64_t q = 0; q < nslices; q++) {
        const Slice *sl = &slices[q];
        if (sl->n == 0) continue;
        if (n == 0) {
            dmin = dmax = key_at(sl->dst, key_bits, 0);
            smin = smax = key_at(sl->src, key_bits, 0);
        }
        for (int64_t i = 0; i < sl->n; i++) {
            int64_t d = key_at(sl->dst, key_bits, i);
            int64_t s = key_at(sl->src, key_bits, i);
            if (d < dmin) dmin = d;
            if (d > dmax) dmax = d;
            if (s < smin) smin = s;
            if (s > smax) smax = s;
            if ((uint64_t)sl->packets[i] >= INT32_MAX
                || (uint64_t)sl->bytes_[i] >= INT32_MAX)
                return -1;
            if ((uint64_t)sl->packets[i] > most) most = sl->packets[i];
            total += (uint64_t)sl->packets[i];
        }
        n += sl->n;
    }
    if (n == 0) return 0;
    int dbits = bits_of((uint64_t)dmax - (uint64_t)dmin);
    int sbits = bits_of((uint64_t)smax - (uint64_t)smin);
    /* The slice index rides in the packet field above `pbits` packet
     * bits (all 31 for one slice): a count that needs more declines. */
    int pbits = 31 - bits_of((uint64_t)nslices - 1);
    if (most >> pbits) return -1;
    /* A run record's sum is exact in integers; below a batch total of
     * 2**53 every source sum the reference adds row by row is exact
     * too, in any grouping.  At or past it the reference takes the
     * batch. */
    if (total >> 53) return -1;
    int64_t side[2];
    if (sbits <= 32)
        fold_src_narrow(slices, nslices, key_bits, (uint64_t)smin, sbits,
                        pbits, total, block_shift, src_keys, raw_keys, raw_pk,
                        raw_counts, state, state + nslices, side, bufa, bufb);
    else
        fold_src_wide(slices, nslices, key_bits, (uint64_t)smin, sbits,
                      pbits, total, block_shift, src_keys, raw_keys, raw_pk,
                      raw_counts, state, state + nslices, side, bufa, bufb);
    counts[2] = side[0];
    if (dbits <= 32)
        fold_dst_narrow(slices, nslices, key_bits, n, (uint64_t)dmin, dbits,
                        pbits, factors, block_shift, dst_keys, dst_tcp_pk,
                        dst_tcp_by, vol_keys, vol_pk, vsub, state, side,
                        bufa, bufb);
    else
        fold_dst_wide(slices, nslices, key_bits, n, (uint64_t)dmin, dbits,
                      pbits, factors, block_shift, dst_keys, dst_tcp_pk,
                      dst_tcp_by, vol_keys, vol_pk, vsub, state, side, bufa,
                      bufb);
    counts[0] = side[0];
    counts[1] = side[1];
    return 0;
}

/* Whether keys[0..n) ascend strictly.  No early exit: the loop stays
 * branch-free. */
static int strictly_ascending(const int64_t *keys, int64_t n) {
    int bad = 0;
    for (int64_t i = 1; i < n; i++) bad |= keys[i] <= keys[i - 1];
    return !bad;
}

/* Two-way merge of sorted-unique keyed parts, summing equal keys as
 * 0.0 + left + right — the float operation order np.bincount applies
 * to the concatenated parts (a lone -0.0 comes out +0.0, as there).
 * Returns the merged length, or -1 for a part whose keys do not ascend
 * strictly (the caller falls back).  Each part's keys reach the output
 * in their own order, so the output ascends strictly exactly when both
 * parts do: one pass over the output checks both (measured cheaper
 * than a pass over each part, or a check inside the merge loop). */
static int64_t merge_sorted(
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
    return strictly_ascending(ko, m) ? m : -1;
}

/* The k-way merge's sort-reduce, stamped out once per record width W
 * (OFF_T offsets and row ids, at most MAXP passes): the parts' keys,
 * read in part order, become (offset, row) records sorted stably by
 * offset — equal keys keep part order — and a branchless segmented
 * reduce gathers each record's values into sums that start from 0.0.
 * A row id is (part << lbits) | index within the part, so the gather
 * reads the parts' own columns.  total >= 1.  Returns -1, after the
 * first pass, when a part's keys do not ascend strictly: every digit
 * is masked, so a key outside the range read off the part's ends
 * still lands inside the histograms and buffers. */
#define DEFINE_MERGE_REDUCE(W, OFF_T, MAXP)                                 \
typedef struct { OFF_T off; OFF_T row; } mrec_##W;                          \
DEFINE_RADIX_REST(merge_rest_##W, mrec_##W, OFF_T)                          \
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
    RADIX_PLAN(MAXP);                                                       \
    for (int64_t q = 0; q < nparts; q++)                                    \
        radix_count(part_keys[q], 64, part_lens[q], kmin, npass, widths,   \
                    shifts, MAXP, hist);                                    \
    radix_starts(npass, widths, hist);                                      \
    OFF_T mask0 = ((OFF_T)1 << widths[0]) - 1;                              \
    int bad = 0;                                                            \
    for (int64_t q = 0; q < nparts; q++) {                                  \
        const int64_t *keys = part_keys[q];                                 \
        int64_t prev = 0;                                                   \
        for (int64_t i = 0; i < part_lens[q]; i++) {                        \
            mrec_##W rec;                                                   \
            bad |= (i > 0) & (keys[i] <= prev);                             \
            prev = keys[i];                                                 \
            rec.off = (OFF_T)((uint64_t)keys[i] - kmin);                    \
            rec.row = (OFF_T)(((uint64_t)q << lbits) | (uint64_t)i);        \
            bufa[hist[0][rec.off & mask0]++] = rec;                         \
        }                                                                   \
    }                                                                       \
    if (bad) return -1;                                                     \
    const mrec_##W *cur = merge_rest_##W(bufa, bufb, total, npass, widths, \
                                         shifts, hist);                     \
    /* A constant column count unrolls the gather: the per-key dst     \
     * and per-vantage source sums have 2 columns, the day volumes 1. */   \
    if (ncols == 1)                                                         \
        return merge_scan_##W(cur, total, kmin, lbits, part_cols, 1, ko, vo); \
    if (ncols == 2)                                                         \
        return merge_scan_##W(cur, total, kmin, lbits, part_cols, 2, ko, vo); \
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
 * ones.  Returns the merged length, or -1 on a shape it does not take,
 * a part whose keys do not ascend strictly among them (the caller falls
 * back). */
static int64_t merge_k(
    const int64_t *const *part_keys, const double *const *part_cols,
    const int64_t *part_lens, int64_t nparts, int64_t ncols,
    int64_t *ko, double *const *vo, void *scratch)
{
    if (nparts < 1 || ncols < 0) return -1;
    int64_t total = 0, longest = 0;
    int64_t kmin = 0, kmax = 0;
    for (int64_t q = 0; q < nparts; q++) {
        int64_t len = part_lens[q];
        if (len < 0) return -1;
        if (len == 0) continue;
        /* Sorted parts: the range is read off the ends (the sort-reduce
         * declines a part that is not sorted). */
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

/* The first index >= lo of sorted `a` (length n) whose key is >= key:
 * a gallop from lo, then a binary search of the last step.  Probes
 * arrive ascending, so each day's cursor only moves forward and a
 * probe costs the log of the distance from the previous one. */
static int64_t gallop(const int64_t *a, int64_t n, int64_t lo, int64_t key) {
    int64_t hi = lo, step = 1;
    while (hi < n && a[hi] < key) {
        lo = hi + 1;
        hi += step;
        step <<= 1;
    }
    if (hi > n) hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a[mid] < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

/* Mean TCP size the reference computes: bytes / max(packets, 1).  Read
 * only where packets > 0, so a NaN count never reaches the max. */
static inline double mean_size(double bytes, double packets) {
    return bytes / (packets > 1.0 ? packets : 1.0);
}

/* The funnel's address axis (paper §4.2 steps 1-3 and 7's evidence)
 * in one walk of the strictly ascending key table: per block, its id,
 * its TCP packet and byte sums (0.0 plus each row in row order, as
 * np.bincount adds them), whether it holds unforgiven sources (a
 * co-scan of the sorted `src_blocks`), whether some address survives
 * (TCP, mean size <= ip_threshold, never a source) and whether some
 * address fails (TCP over ip_threshold).  An address is probed against
 * the per-day source key sets only inside a block that passes steps
 * 1-2 and holds unforgiven sources — elsewhere no verdict reads the
 * answer — and only until the block's first survivor.  `cursors` holds
 * one position per day.  Returns the block count, or -1 for keys not
 * strictly ascending (the caller's reference names the error). */
static int64_t address_pass(
    const int64_t *keys, const double *tcp_pk, const double *tcp_by,
    int64_t n, int64_t block_shift,
    const int64_t *src_blocks, int64_t nsrc,
    const int64_t *const *days, const int64_t *day_lens, int64_t ndays,
    int64_t *cursors, double avg_threshold, double ip_threshold,
    int64_t *blocks, double *blk_pk, double *blk_by,
    uint8_t *sourced, uint8_t *survives, uint8_t *fails)
{
    for (int64_t d = 0; d < ndays; d++) cursors[d] = 0;
    int64_t nb = 0, s = 0, i = 0;
    while (i < n) {
        int64_t block = keys[i] >> block_shift, end = i;
        double pk = 0.0, by = 0.0;
        int small_any = 0, fail_any = 0;
        do {
            if (end > 0 && keys[end] <= keys[end - 1]) return -1;
            double p = tcp_pk[end], b = tcp_by[end];
            pk += p;
            by += b;
            int tcp = p > 0.0, small = mean_size(b, p) <= ip_threshold;
            small_any |= tcp & small;
            fail_any |= tcp & !small;
            end++;
        } while (end < n && (keys[end] >> block_shift) == block);
        while (s < nsrc && src_blocks[s] < block) s++;
        int has_src = s < nsrc && src_blocks[s] == block;
        if (has_src && small_any && pk > 0.0
            && mean_size(by, pk) <= avg_threshold) {
            small_any = 0;
            for (int64_t j = i; j < end && !small_any; j++) {
                double p = tcp_pk[j];
                if (!(p > 0.0 && mean_size(tcp_by[j], p) <= ip_threshold))
                    continue;
                int seen = 0;
                for (int64_t d = 0; d < ndays && !seen; d++) {
                    cursors[d] = gallop(days[d], day_lens[d], cursors[d],
                                        keys[j]);
                    seen = cursors[d] < day_lens[d]
                        && days[d][cursors[d]] == keys[j];
                }
                small_any = !seen;
            }
        }
        blocks[nb] = block;
        blk_pk[nb] = pk;
        blk_by[nb] = by;
        sourced[nb] = (uint8_t)has_src;
        survives[nb] = (uint8_t)small_any;
        fails[nb] = (uint8_t)fail_any;
        nb++;
        i = end;
    }
    return nb;
}

/* CRC-32 of flowpack column buffers: zlib's crc32() values (reflected
 * polynomial 0xEDB88320, register preset and final value inverted), so
 * the stored checksums and every existing archive stay as they are.
 *
 * Each column's length rounded down to 16 bytes (64 at least) goes
 * through a four-stream 128-bit carry-less multiply fold (PCLMULQDQ),
 * then one 128-bit lane, then a Barrett reduction to 32 bits — the
 * constants of Gopal et al., "Fast CRC Computation for Generic
 * Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
 * bit-reflected domain.  The rest (under 16 bytes, or a column under
 * 64) takes one table lookup per byte.  The fold is compiled for
 * SSE4.2+PCLMUL alone and chosen at run time, so the build flags carry
 * no -march; a CPU without it, or not x86-64, declines.  No mutable
 * state: the binding drops the GIL, and threads checksum concurrently. */
#if defined(__x86_64__)
#include <immintrin.h>

static const uint32_t crc_table[256] = {
    0x00000000, 0x77073096, 0xee0e612c, 0x990951ba, 0x076dc419, 0x706af48f,
    0xe963a535, 0x9e6495a3, 0x0edb8832, 0x79dcb8a4, 0xe0d5e91e, 0x97d2d988,
    0x09b64c2b, 0x7eb17cbd, 0xe7b82d07, 0x90bf1d91, 0x1db71064, 0x6ab020f2,
    0xf3b97148, 0x84be41de, 0x1adad47d, 0x6ddde4eb, 0xf4d4b551, 0x83d385c7,
    0x136c9856, 0x646ba8c0, 0xfd62f97a, 0x8a65c9ec, 0x14015c4f, 0x63066cd9,
    0xfa0f3d63, 0x8d080df5, 0x3b6e20c8, 0x4c69105e, 0xd56041e4, 0xa2677172,
    0x3c03e4d1, 0x4b04d447, 0xd20d85fd, 0xa50ab56b, 0x35b5a8fa, 0x42b2986c,
    0xdbbbc9d6, 0xacbcf940, 0x32d86ce3, 0x45df5c75, 0xdcd60dcf, 0xabd13d59,
    0x26d930ac, 0x51de003a, 0xc8d75180, 0xbfd06116, 0x21b4f4b5, 0x56b3c423,
    0xcfba9599, 0xb8bda50f, 0x2802b89e, 0x5f058808, 0xc60cd9b2, 0xb10be924,
    0x2f6f7c87, 0x58684c11, 0xc1611dab, 0xb6662d3d, 0x76dc4190, 0x01db7106,
    0x98d220bc, 0xefd5102a, 0x71b18589, 0x06b6b51f, 0x9fbfe4a5, 0xe8b8d433,
    0x7807c9a2, 0x0f00f934, 0x9609a88e, 0xe10e9818, 0x7f6a0dbb, 0x086d3d2d,
    0x91646c97, 0xe6635c01, 0x6b6b51f4, 0x1c6c6162, 0x856530d8, 0xf262004e,
    0x6c0695ed, 0x1b01a57b, 0x8208f4c1, 0xf50fc457, 0x65b0d9c6, 0x12b7e950,
    0x8bbeb8ea, 0xfcb9887c, 0x62dd1ddf, 0x15da2d49, 0x8cd37cf3, 0xfbd44c65,
    0x4db26158, 0x3ab551ce, 0xa3bc0074, 0xd4bb30e2, 0x4adfa541, 0x3dd895d7,
    0xa4d1c46d, 0xd3d6f4fb, 0x4369e96a, 0x346ed9fc, 0xad678846, 0xda60b8d0,
    0x44042d73, 0x33031de5, 0xaa0a4c5f, 0xdd0d7cc9, 0x5005713c, 0x270241aa,
    0xbe0b1010, 0xc90c2086, 0x5768b525, 0x206f85b3, 0xb966d409, 0xce61e49f,
    0x5edef90e, 0x29d9c998, 0xb0d09822, 0xc7d7a8b4, 0x59b33d17, 0x2eb40d81,
    0xb7bd5c3b, 0xc0ba6cad, 0xedb88320, 0x9abfb3b6, 0x03b6e20c, 0x74b1d29a,
    0xead54739, 0x9dd277af, 0x04db2615, 0x73dc1683, 0xe3630b12, 0x94643b84,
    0x0d6d6a3e, 0x7a6a5aa8, 0xe40ecf0b, 0x9309ff9d, 0x0a00ae27, 0x7d079eb1,
    0xf00f9344, 0x8708a3d2, 0x1e01f268, 0x6906c2fe, 0xf762575d, 0x806567cb,
    0x196c3671, 0x6e6b06e7, 0xfed41b76, 0x89d32be0, 0x10da7a5a, 0x67dd4acc,
    0xf9b9df6f, 0x8ebeeff9, 0x17b7be43, 0x60b08ed5, 0xd6d6a3e8, 0xa1d1937e,
    0x38d8c2c4, 0x4fdff252, 0xd1bb67f1, 0xa6bc5767, 0x3fb506dd, 0x48b2364b,
    0xd80d2bda, 0xaf0a1b4c, 0x36034af6, 0x41047a60, 0xdf60efc3, 0xa867df55,
    0x316e8eef, 0x4669be79, 0xcb61b38c, 0xbc66831a, 0x256fd2a0, 0x5268e236,
    0xcc0c7795, 0xbb0b4703, 0x220216b9, 0x5505262f, 0xc5ba3bbe, 0xb2bd0b28,
    0x2bb45a92, 0x5cb36a04, 0xc2d7ffa7, 0xb5d0cf31, 0x2cd99e8b, 0x5bdeae1d,
    0x9b64c2b0, 0xec63f226, 0x756aa39c, 0x026d930a, 0x9c0906a9, 0xeb0e363f,
    0x72076785, 0x05005713, 0x95bf4a82, 0xe2b87a14, 0x7bb12bae, 0x0cb61b38,
    0x92d28e9b, 0xe5d5be0d, 0x7cdcefb7, 0x0bdbdf21, 0x86d3d2d4, 0xf1d4e242,
    0x68ddb3f8, 0x1fda836e, 0x81be16cd, 0xf6b9265b, 0x6fb077e1, 0x18b74777,
    0x88085ae6, 0xff0f6a70, 0x66063bca, 0x11010b5c, 0x8f659eff, 0xf862ae69,
    0x616bffd3, 0x166ccf45, 0xa00ae278, 0xd70dd2ee, 0x4e048354, 0x3903b3c2,
    0xa7672661, 0xd06016f7, 0x4969474d, 0x3e6e77db, 0xaed16a4a, 0xd9d65adc,
    0x40df0b66, 0x37d83bf0, 0xa9bcae53, 0xdebb9ec5, 0x47b2cf7f, 0x30b5ffe9,
    0xbdbdf21c, 0xcabac28a, 0x53b39330, 0x24b4a3a6, 0xbad03605, 0xcdd70693,
    0x54de5729, 0x23d967bf, 0xb3667a2e, 0xc4614ab8, 0x5d681b02, 0x2a6f2b94,
    0xb40bbe37, 0xc30c8ea1, 0x5a05df1b, 0x2d02ef8d,
};

/* zlib's crc32(crc, buf, len), one byte at a time. */
static uint32_t crc32_bytes(uint32_t crc, const uint8_t *buf, int64_t len) {
    crc = ~crc;
    for (int64_t i = 0; i < len; i++)
        crc = crc_table[(crc ^ buf[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

/* The raw (uninverted) CRC register after `len` bytes of `buf`, from
 * register `crc`; len >= 64 and a multiple of 16. */
__attribute__((target("sse4.2,pclmul")))
static uint32_t crc32_fold(uint32_t crc, const uint8_t *buf, int64_t len) {
    /* x^(4*128+64) and x^(4*128) mod P (fold by four lanes), the same
     * pair at 128 bits (fold by one), x^64 mod P, and P with its
     * Barrett quotient mu, all bit-reflected. */
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_loadu_si128((const __m128i *)(buf + 0x00));
    __m128i x2 = _mm_loadu_si128((const __m128i *)(buf + 0x10));
    __m128i x3 = _mm_loadu_si128((const __m128i *)(buf + 0x20));
    __m128i x4 = _mm_loadu_si128((const __m128i *)(buf + 0x30));
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)crc));
    buf += 64;
    len -= 64;

    /* Four independent lanes, 64 bytes per step. */
    while (len >= 64) {
        __m128i lo1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
        __m128i lo2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
        __m128i lo3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
        __m128i lo4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
        x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
        x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
        x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, lo1),
                           _mm_loadu_si128((const __m128i *)(buf + 0x00)));
        x2 = _mm_xor_si128(_mm_xor_si128(x2, lo2),
                           _mm_loadu_si128((const __m128i *)(buf + 0x10)));
        x3 = _mm_xor_si128(_mm_xor_si128(x3, lo3),
                           _mm_loadu_si128((const __m128i *)(buf + 0x20)));
        x4 = _mm_xor_si128(_mm_xor_si128(x4, lo4),
                           _mm_loadu_si128((const __m128i *)(buf + 0x30)));
        buf += 64;
        len -= 64;
    }

    /* The four lanes into one, then the remaining 16-byte blocks. */
    __m128i lanes[3] = {x2, x3, x4};
    for (int i = 0; i < 3; i++) {
        __m128i lo = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, lo), lanes[i]);
    }
    while (len >= 16) {
        __m128i lo = _mm_clmulepi64_si128(x1, k3k4, 0x00);
        x1 = _mm_clmulepi64_si128(x1, k3k4, 0x11);
        x1 = _mm_xor_si128(_mm_xor_si128(x1, lo),
                           _mm_loadu_si128((const __m128i *)buf));
        buf += 16;
        len -= 16;
    }

    /* The 128-bit remainder folded to 64 bits, then 64 to 32 ... */
    x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
    x2 = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
    x1 = _mm_xor_si128(x1, x2);

    /* ... and Barrett-reduced modulo P to the 32-bit register. */
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
    x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
    x1 = _mm_xor_si128(x1, x2);
    return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* zlib's crc32() of each of `n` columns (`columns[c]`, `lengths[c]`
 * bytes) into crcs[c].  Returns 0, or -1 to decline (no PCLMUL fold on
 * this CPU): the caller then takes zlib. */
static int64_t crc32_columns(
    const uint8_t *const *columns, const int64_t *lengths, int64_t n,
    uint32_t *crcs)
{
#if defined(__x86_64__)
    if (!__builtin_cpu_supports("sse4.2") || !__builtin_cpu_supports("pclmul"))
        return -1;
    for (int64_t c = 0; c < n; c++) {
        const uint8_t *buf = columns[c];
        int64_t len = lengths[c];
        uint32_t crc = 0;
        if (len >= 64) {
            int64_t head = len & ~(int64_t)15;
            crc = ~crc32_fold(~(uint32_t)0, buf, head);
            buf += head;
            len -= head;
        }
        crcs[c] = crc32_bytes(crc, buf, len);
    }
    return 0;
#else
    (void)columns;
    (void)lengths;
    (void)n;
    (void)crcs;
    return -1;
#endif
}

/* A plain flow-CSV block parsed into typed columns: what the np.loadtxt
 * reference in repro.core.kernels does, in one pass over the bytes.
 *
 * A block is whole lines.  A line is either blank (LF or CRLF alone,
 * skipped) or a row of exactly one field per column, separated by
 * commas, ended by LF, CRLF or the end of the block.  A field is an
 * optional '-' and one or more ASCII digits, read with overflow checks
 * against its column's parse type: uint64 for a uint64 column (no '-'
 * at all, "-0" included), int64 for every other (one leading '-';
 * INT64_MIN reads).  The value is then range-checked against the
 * column's own type — the bool flag takes any int64 and stores
 * nonzero — and written straight into the column's output row.
 *
 * The kernel declines (returns -1) on anything else, and the caller
 * hands the block to its per-row reader: a byte outside "0-9,-\r\n"
 * (NUL and bytes >= 0x80 included), a CR that is not the first half of
 * a CRLF, a ragged row, an empty field, a misplaced or doubled '-', a
 * value past its parse type or outside its column's, no row at all (an
 * empty block, or blank lines only), or more rows than the outputs hold.
 * Leading zeros are digits like any other: "00000000000000000007" is 7.
 * On success it returns the rows written and stores the block's LF count
 * in *lines.  It reads only [buf, buf + n) and writes only rows below
 * `room`; the outputs past the last row it returns are left as they
 * were, and a declined call may have written rows it then abandons. */
typedef struct {
    void *out;
    int width;         /* bytes per output value */
    int unsigned64;    /* parsed as uint64: no '-', no range check */
    int flag;          /* the bool flag: stores value != 0 */
    int64_t min, max;  /* the column type's range, for int64 parses */
} CsvColumn;

static int64_t parse_csv_block(const uint8_t *buf, int64_t n,
                               const CsvColumn *cols, int64_t ncols,
                               int64_t room, int64_t *lines)
{
    const uint8_t *p = buf, *end = buf + n;
    int64_t rows = 0, lfs = 0;
    while (p < end) {
        if (*p == '\n') {
            lfs++;
            p++;
            continue;
        }
        if (*p == '\r') {
            if (end - p < 2 || p[1] != '\n') return -1;
            lfs++;
            p += 2;
            continue;
        }
        if (rows == room) return -1;
        for (int64_t c = 0; c < ncols; c++) {
            const CsvColumn *col = &cols[c];
            int neg = p < end && *p == '-';
            if (neg && col->unsigned64) return -1;
            p += neg;
            const uint8_t *digits = p;
            uint64_t v = 0;
            unsigned d;
            while (p < end && (d = (unsigned)*p - '0') <= 9) {
                if (__builtin_mul_overflow(v, 10, &v)
                    || __builtin_add_overflow(v, d, &v))
                    return -1;
                p++;
            }
            if (p == digits) return -1;
            /* A comma between fields; the line's (or block's) end after
             * the last, left for the loop head to count. */
            if (c + 1 < ncols) {
                if (p == end || *p != ',') return -1;
                p++;
            } else if (p != end && *p != '\n' && *p != '\r') {
                return -1;
            }
            if (col->unsigned64) {
                ((uint64_t *)col->out)[rows] = v;
                continue;
            }
            if (v > (uint64_t)INT64_MAX + neg) return -1;
            /* -v without overflow at v = 2**63. */
            int64_t value = !neg ? (int64_t)v
                          : v ? -(int64_t)(v - 1) - 1 : 0;
            if (value < col->min || value > col->max) return -1;
            if (col->flag) value = value != 0;
            /* In range, so the low `width` bytes are the value in the
             * column's own type, signed or not. */
            switch (col->width) {
            case 1: ((uint8_t *)col->out)[rows] = (uint8_t)value; break;
            case 2: ((uint16_t *)col->out)[rows] = (uint16_t)value; break;
            case 4: ((uint32_t *)col->out)[rows] = (uint32_t)value; break;
            default: ((int64_t *)col->out)[rows] = value; break;
            }
        }
        /* The row read a digit at least, so the walk moved on. */
        rows++;
    }
    if (rows == 0) return -1;
    *lines = lfs;
    return rows;
}

/* ------------------------------------------------------------------
 * The Python binding: six METH_FASTCALL functions.
 *
 * Every array arrives through the buffer protocol and is checked here
 * before any kernel reads it: element kind and width, one dimension,
 * C-contiguity, alignment, equal input lengths, output and scratch
 * capacity.  A failed check raises TypeError (wrong kind, width or
 * container) or ValueError (wrong shape, length or capacity); no
 * kernel runs on an argument it has not checked.  The buffers stay
 * held while the kernel runs with the GIL released, so no other
 * thread can free or resize them under it.  Each function returns its
 * counts, or None where the kernel declines (a negative count): the
 * caller then takes the numpy reference.
 * ------------------------------------------------------------------ */

/* 'i' (signed), 'u' (unsigned), 'f' (floating) or 'b' (bool) for a
 * native-order scalar struct format, 0 for anything else (structs,
 * other byte orders). */
static char format_kind(const char *format) {
    static const char native_order = PY_LITTLE_ENDIAN ? '<' : '>';
    if (format == NULL) return 'u'; /* "B" by the protocol */
    if (*format == '@' || *format == '=' || *format == native_order)
        format++;
    if (format[0] == '\0' || format[1] != '\0') return 0;
    if (strchr("bhilqn", format[0])) return 'i';
    if (strchr("BHILQN", format[0])) return 'u';
    if (strchr("efd", format[0])) return 'f';
    if (format[0] == '?') return 'b';
    return 0;
}

static const char *kind_name(char kind) {
    return kind == 'i' ? "int" : kind == 'u' ? "uint"
         : kind == 'f' ? "float" : kind == 'b' ? "bool" : "typed";
}

/* Acquire `obj`'s buffer into `view` as a 1-d, C-contiguous array of
 * `kind` ('i', 'u', 'f', 'b') aligned to its item width, or of any element
 * type (kind 0: read as bytes), with `width` bytes per item (0: any),
 * writable if asked.  On failure raises and leaves
 * view->obj NULL. */
static int get_array(const char *func, const char *arg, PyObject *obj,
                     char kind, Py_ssize_t width, int writable,
                     Py_buffer *view)
{
    int flags = PyBUF_STRIDES | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        view->obj = NULL;
        if (PyErr_ExceptionMatches(PyExc_BufferError)) {
            PyErr_Clear();
            PyErr_Format(PyExc_TypeError, "%s: %s is not a %sarray",
                         func, arg, writable ? "writable " : "");
        }
        return -1;
    }
    char got = format_kind(view->format);
    if ((kind != 0 && got != kind) || (width != 0 && view->itemsize != width)
        || view->itemsize < 1) {
        char want[16] = "";
        if (width != 0) snprintf(want, sizeof want, "%zd", 8 * width);
        PyErr_Format(PyExc_TypeError, "%s: %s must be %s%s, got format '%s'",
                     func, arg, kind_name(kind), want,
                     view->format ? view->format : "B");
        goto fail;
    }
    if (view->ndim != 1) {
        PyErr_Format(PyExc_ValueError, "%s: %s must be 1-d, got %d-d",
                     func, arg, view->ndim);
        goto fail;
    }
    if (!PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_ValueError, "%s: %s must be C-contiguous",
                     func, arg);
        goto fail;
    }
    if (kind != 0 && (uintptr_t)view->buf % (uintptr_t)view->itemsize) {
        PyErr_Format(PyExc_ValueError, "%s: %s is misaligned", func, arg);
        goto fail;
    }
    return 0;
fail:
    PyBuffer_Release(view);
    view->obj = NULL;
    return -1;
}

static Py_ssize_t items(const Py_buffer *view) {
    return view->len / view->itemsize;
}

/* Raise unless `view` holds at least `need` items (`what`: "rows",
 * "bytes") on an `align`-byte boundary. */
static int check_room(const char *func, const char *arg, const Py_buffer *view,
                      Py_ssize_t need, const char *what, uintptr_t align)
{
    if (items(view) < need) {
        PyErr_Format(PyExc_ValueError, "%s: %s holds %zd %s, needs %zd",
                     func, arg, items(view), what, need);
        return -1;
    }
    if ((uintptr_t)view->buf % align) {
        PyErr_Format(PyExc_ValueError, "%s: %s is not %d-byte aligned",
                     func, arg, (int)align);
        return -1;
    }
    return 0;
}

static void release_all(Py_buffer *views, Py_ssize_t n) {
    for (Py_ssize_t i = 0; i < n; i++) PyBuffer_Release(&views[i]);
}

static int check_nargs(const char *func, Py_ssize_t nargs, Py_ssize_t want) {
    if (nargs == want) return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments (%zd given)",
                 func, want, nargs);
    return -1;
}

/* fold_batch(slices, factors, block_shift, dst_keys, dst_tcp_pk,
 *            dst_tcp_by, vol_keys, vol_pk, src_keys, raw_keys, raw_pk,
 *            bufa, bufb) -> (n_dst, n_vol, n_src, raw_lengths) | None
 *
 * slices is a list of (src_ip, dst_ip, proto, packets, bytes_) tuples:
 * keys uint32 or uint64 (one width for the whole batch), proto uint8,
 * packets and bytes_ int64, the five of one slice the same length;
 * factors float64, one per slice.  Every output holds one row per batch
 * row (int64 keys, float64 sums); bufa / bufb each hold one record per
 * row, 12 bytes (uint32 keys) or 16 (uint64), aligned to the key width.
 * raw_lengths is a tuple of each slice's raw part length, in slice
 * order. */
#define BATCH_COLUMNS 5
static const struct { const char *name; char kind; Py_ssize_t width; }
batch_columns[BATCH_COLUMNS] = {
    {"src_ip", 'u', 0}, {"dst_ip", 'u', 0}, {"proto", 'u', 1},
    {"packets", 'i', 8}, {"bytes_", 'i', 8},
};
/* The outputs, arguments 3-10; the scratch buffers follow. */
#define BATCH_OUTPUTS 8
static const struct { const char *name; char kind; }
batch_outputs[BATCH_OUTPUTS] = {
    {"dst_keys", 'i'}, {"dst_tcp_pk", 'f'}, {"dst_tcp_by", 'f'},
    {"vol_keys", 'i'}, {"vol_pk", 'f'}, {"src_keys", 'i'},
    {"raw_keys", 'i'}, {"raw_pk", 'f'},
};
#define BATCH_OUT 3
#define BATCH_NARGS (BATCH_OUT + BATCH_OUTPUTS + 2)

static PyObject *py_fold_batch(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    static const char *func = "fold_batch";
    (void)self;
    if (check_nargs(func, nargs, BATCH_NARGS) < 0) return NULL;
    long long block_shift = PyLong_AsLongLong(args[2]);
    if (block_shift == -1 && PyErr_Occurred()) return NULL;
    if (block_shift < 0 || block_shift > 63) {
        PyErr_Format(PyExc_ValueError, "%s: block_shift %lld outside 0..63",
                     func, block_shift);
        return NULL;
    }
    if (!PyList_Check(args[0])) {
        PyErr_Format(PyExc_TypeError,
                     "%s: slices must be a list of column tuples, got %.80s",
                     func, Py_TYPE(args[0])->tp_name);
        return NULL;
    }
    /* A tuple copy: acquiring a buffer cannot change the list under us. */
    PyObject *list = PyList_AsTuple(args[0]);
    if (list == NULL) return NULL;
    Py_ssize_t nslices = PyTuple_GET_SIZE(list), held = 0;
    Py_ssize_t nviews = BATCH_COLUMNS * nslices + BATCH_NARGS;
    Py_buffer *views = PyMem_Malloc(
        nviews * sizeof(Py_buffer)
        + (nslices + 1) * (sizeof(Slice) + 4 * sizeof(int64_t)));
    if (views == NULL) {
        Py_DECREF(list);
        return PyErr_NoMemory();
    }
    Slice *slices = (Slice *)(views + nviews);
    int64_t *state = (int64_t *)(slices + nslices + 1);
    int64_t *raw_counts = state + 2 * (nslices + 1);
    double *vsub = (double *)(raw_counts + nslices + 1);
    PyObject *result = NULL;
    Py_ssize_t key_width = 0, n = 0;
    if (nslices > (Py_ssize_t)INT32_MAX) {
        PyErr_Format(PyExc_ValueError, "%s: %zd slices", func, nslices);
        goto done;
    }
    for (Py_ssize_t q = 0; q < nslices; q++) {
        PyObject *item = PyTuple_GET_ITEM(list, q);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != BATCH_COLUMNS) {
            PyErr_Format(PyExc_TypeError,
                         "%s: slice %zd is not a (src_ip, dst_ip, proto, "
                         "packets, bytes_) tuple", func, q);
            goto done;
        }
        Py_buffer *v = &views[held];
        for (int c = 0; c < BATCH_COLUMNS; c++, held++) {
            if (get_array(func, batch_columns[c].name,
                          PyTuple_GET_ITEM(item, c), batch_columns[c].kind,
                          batch_columns[c].width, 0, &views[held]) < 0)
                goto done;
        }
        Py_ssize_t width = v[0].itemsize;
        if ((width != 4 && width != 8) || v[1].itemsize != width
            || (key_width != 0 && width != key_width)) {
            PyErr_Format(PyExc_TypeError,
                         "%s: slice %zd: src_ip and dst_ip of every slice "
                         "must all be uint32 or all uint64", func, q);
            goto done;
        }
        key_width = width;
        Py_ssize_t rows = items(&v[0]);
        for (int c = 1; c < BATCH_COLUMNS; c++) {
            if (items(&v[c]) != rows) {
                PyErr_Format(PyExc_ValueError,
                             "%s: slice %zd: %s has %zd rows, src_ip has %zd",
                             func, q, batch_columns[c].name, items(&v[c]),
                             rows);
                goto done;
            }
        }
        slices[q] = (Slice){v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf,
                            rows};
        n += rows;
    }
    Py_buffer *fv = &views[held];
    if (get_array(func, "factors", args[1], 'f', 8, 0, fv) < 0) goto done;
    held++;
    if (items(fv) != nslices) {
        PyErr_Format(PyExc_ValueError, "%s: factors holds %zd values, "
                     "%zd slices", func, items(fv), nslices);
        goto done;
    }
    Py_buffer *out = &views[held];
    for (int o = 0; o < BATCH_OUTPUTS; o++, held++) {
        if (get_array(func, batch_outputs[o].name, args[BATCH_OUT + o],
                      batch_outputs[o].kind, 8, 1, &views[held]) < 0)
            goto done;
        if (check_room(func, batch_outputs[o].name, &views[held], n, "rows",
                       8) < 0)
            goto done;
    }
    Py_ssize_t record = key_width == 8 ? 16 : 12;
    for (int b = 0; b < 2; b++, held++) {
        const char *name = b ? "bufb" : "bufa";
        if (get_array(func, name, args[BATCH_OUT + BATCH_OUTPUTS + b], 'u',
                      1, 1, &views[held]) < 0
            || check_room(func, name, &views[held], record * n, "bytes",
                          key_width ? (uintptr_t)key_width : 1) < 0)
            goto done;
    }
    int64_t counts[3], status;
    Py_BEGIN_ALLOW_THREADS
    status = fold_batch(
        slices, nslices, (int)(8 * key_width), fv->buf, block_shift,
        out[0].buf, out[1].buf, out[2].buf, out[3].buf, out[4].buf,
        out[5].buf, out[6].buf, out[7].buf, raw_counts, state, vsub,
        out[8].buf, out[9].buf, counts);
    Py_END_ALLOW_THREADS
    if (status != 0 && n > 0) {
        Py_INCREF(Py_None);
        result = Py_None;
    } else {
        PyObject *lengths = PyTuple_New(nslices);
        for (Py_ssize_t q = 0; lengths != NULL && q < nslices; q++) {
            PyObject *length = PyLong_FromLongLong(raw_counts[q]);
            if (length == NULL) Py_CLEAR(lengths);
            else PyTuple_SET_ITEM(lengths, q, length);
        }
        if (lengths != NULL)
            result = Py_BuildValue("(LLLN)", (long long)counts[0],
                                   (long long)counts[1],
                                   (long long)counts[2], lengths);
    }
done:
    release_all(views, held);
    PyMem_Free(views);
    Py_DECREF(list);
    return result;
}

/* The checked buffers and pointer tables of one merge call: `parts` (a
 * list of (keys, cols) tuples, int64 keys and a tuple of float64
 * columns of the keys' length, the same column count in every part),
 * `out_keys` / `out_cols` (a tuple; room for every input row) and, for
 * merge_k, `scratch` (two 16-byte records per input row, 8-byte
 * aligned).  The list is read through a tuple copy, so acquiring a
 * buffer that runs Python code cannot change it under us.  One
 * allocation holds the buffers and tables. */
typedef struct {
    PyObject *parts;
    Py_ssize_t nparts, ncols, total, held;
    Py_buffer *views;
    const int64_t **keys;
    const double **cols; /* nparts * ncols, part-major */
    int64_t *lens;
    double **out_cols;
    int64_t *out_keys;
    void *scratch;
} MergeArgs;

static void merge_release(MergeArgs *m) {
    if (m->views != NULL) release_all(m->views, m->held);
    PyMem_Free(m->views);
    Py_XDECREF(m->parts);
}

static int merge_acquire(const char *func, PyObject *parts,
                         PyObject *out_keys, PyObject *out_cols,
                         PyObject *scratch, MergeArgs *m)
{
    memset(m, 0, sizeof(*m));
    if (!PyList_Check(parts)) {
        PyErr_Format(PyExc_TypeError,
                     "%s: parts must be a list of (keys, cols), got %.80s",
                     func, Py_TYPE(parts)->tp_name);
        return -1;
    }
    if (!PyTuple_Check(out_cols)) {
        PyErr_Format(PyExc_TypeError, "%s: out_cols must be a tuple, got %.80s",
                     func, Py_TYPE(out_cols)->tp_name);
        return -1;
    }
    m->parts = PyList_AsTuple(parts);
    if (m->parts == NULL) return -1;
    m->nparts = PyTuple_GET_SIZE(m->parts);
    m->ncols = PyTuple_GET_SIZE(out_cols);
    if (m->nparts < 1) {
        PyErr_Format(PyExc_ValueError, "%s: %zd parts of %zd columns", func,
                     m->nparts, m->ncols);
        return -1;
    }
    Py_ssize_t nviews = m->nparts * (1 + m->ncols) + 1 + m->ncols + 1;
    size_t nbytes = nviews * sizeof(Py_buffer)
        + m->nparts * (sizeof(void *) * (1 + m->ncols) + sizeof(int64_t))
        + m->ncols * sizeof(void *);
    char *block = PyMem_Malloc(nbytes);
    if (block == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    m->views = (Py_buffer *)block;
    m->keys = (const int64_t **)(m->views + nviews);
    m->cols = (const double **)(m->keys + m->nparts);
    m->out_cols = (double **)(m->cols + m->nparts * m->ncols);
    m->lens = (int64_t *)(m->out_cols + m->ncols);

    for (Py_ssize_t q = 0; q < m->nparts; q++) {
        PyObject *part = PyTuple_GET_ITEM(m->parts, q);
        if (!PyTuple_Check(part) || PyTuple_GET_SIZE(part) != 2
            || !PyTuple_Check(PyTuple_GET_ITEM(part, 1))) {
            PyErr_Format(PyExc_TypeError,
                         "%s: part %zd is not a (keys, cols) tuple pair",
                         func, q);
            return -1;
        }
        PyObject *cols = PyTuple_GET_ITEM(part, 1);
        if (PyTuple_GET_SIZE(cols) != m->ncols) {
            PyErr_Format(PyExc_ValueError,
                         "%s: part %zd has %zd columns, out_cols %zd",
                         func, q, PyTuple_GET_SIZE(cols), m->ncols);
            return -1;
        }
        Py_buffer *kv = &m->views[m->held];
        if (get_array(func, "part keys", PyTuple_GET_ITEM(part, 0), 'i', 8,
                      0, kv) < 0)
            return -1;
        m->held++;
        m->keys[q] = kv->buf;
        m->lens[q] = items(kv);
        m->total += items(kv);
        for (Py_ssize_t c = 0; c < m->ncols; c++) {
            Py_buffer *cv = &m->views[m->held];
            if (get_array(func, "part column", PyTuple_GET_ITEM(cols, c), 'f',
                          8, 0, cv) < 0)
                return -1;
            m->held++;
            m->cols[q * m->ncols + c] = cv->buf;
            if (items(cv) != m->lens[q]) {
                PyErr_Format(PyExc_ValueError,
                             "%s: part %zd column %zd has %zd rows, its "
                             "keys %lld", func, q, c, items(cv),
                             (long long)m->lens[q]);
                return -1;
            }
        }
    }
    Py_buffer *ov = &m->views[m->held];
    if (get_array(func, "out_keys", out_keys, 'i', 8, 1, ov) < 0) return -1;
    m->held++;
    if (check_room(func, "out_keys", ov, m->total, "rows", 8) < 0) return -1;
    m->out_keys = ov->buf;
    for (Py_ssize_t c = 0; c < m->ncols; c++) {
        Py_buffer *cv = &m->views[m->held];
        if (get_array(func, "out_cols", PyTuple_GET_ITEM(out_cols, c), 'f', 8,
                      1, cv) < 0)
            return -1;
        m->held++;
        if (check_room(func, "out_cols", cv, m->total, "rows", 8) < 0)
            return -1;
        m->out_cols[c] = cv->buf;
    }
    if (scratch != NULL) {
        Py_buffer *sv = &m->views[m->held];
        if (get_array(func, "scratch", scratch, 'u', 1, 1, sv) < 0) return -1;
        m->held++;
        if (check_room(func, "scratch", sv, 32 * m->total, "bytes", 8) < 0)
            return -1;
        m->scratch = sv->buf;
    }
    return 0;
}

/* merge_sorted(parts, out_keys, out_cols) -> merged length | None;
 * parts holds exactly two parts, None: one is not sorted-unique. */
static PyObject *py_merge_sorted(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    static const char *func = "merge_sorted";
    (void)self;
    if (check_nargs(func, nargs, 3) < 0) return NULL;
    MergeArgs m;
    if (merge_acquire(func, args[0], args[1], args[2], NULL, &m) < 0) {
        merge_release(&m);
        return NULL;
    }
    if (m.nparts != 2) {
        PyErr_Format(PyExc_ValueError, "%s: takes 2 parts, got %zd", func,
                     m.nparts);
        merge_release(&m);
        return NULL;
    }
    int64_t count;
    Py_BEGIN_ALLOW_THREADS
    count = merge_sorted(m.keys[0], m.cols, m.lens[0],
                         m.keys[1], m.cols + m.ncols, m.lens[1],
                         m.ncols, m.out_keys, m.out_cols);
    Py_END_ALLOW_THREADS
    merge_release(&m);
    if (count < 0) Py_RETURN_NONE;
    return PyLong_FromLongLong(count);
}

/* merge_k(parts, out_keys, out_cols, scratch) -> merged length | None;
 * any number of parts, None: one is not sorted-unique (or a shape the
 * sort does not take). */
static PyObject *py_merge_k(PyObject *self, PyObject *const *args,
                            Py_ssize_t nargs)
{
    static const char *func = "merge_k";
    (void)self;
    if (check_nargs(func, nargs, 4) < 0) return NULL;
    MergeArgs m;
    if (merge_acquire(func, args[0], args[1], args[2], args[3], &m) < 0) {
        merge_release(&m);
        return NULL;
    }
    int64_t count;
    Py_BEGIN_ALLOW_THREADS
    count = merge_k(m.keys, m.cols, m.lens, m.nparts, m.ncols,
                    m.out_keys, m.out_cols, m.scratch);
    Py_END_ALLOW_THREADS
    merge_release(&m);
    if (count < 0) Py_RETURN_NONE;
    return PyLong_FromLongLong(count);
}

/* address_pass(dst_ips, tcp_pkts, tcp_bytes, block_shift, src_blocks,
 *              days, avg_threshold, ip_threshold, out_blocks, out_pkts,
 *              out_bytes, out_sourced, out_survives, out_fails)
 *   -> block count | None
 *
 * dst_ips and src_blocks int64, tcp_pkts / tcp_bytes float64 of
 * dst_ips' length, days a list of int64 key arrays (any number); the
 * outputs hold one row per key: out_blocks int64, out_pkts / out_bytes
 * float64, the three flags uint8.  None: keys not strictly ascending. */
#define PASS_ARRAYS 10
static const struct { const char *name; char kind; Py_ssize_t width; int at; }
pass_args[PASS_ARRAYS] = {
    {"dst_ips", 'i', 8, 0}, {"tcp_pkts", 'f', 8, 1}, {"tcp_bytes", 'f', 8, 2},
    {"src_blocks", 'i', 8, 4},
    {"out_blocks", 'i', 8, 8}, {"out_pkts", 'f', 8, 9},
    {"out_bytes", 'f', 8, 10}, {"out_sourced", 'u', 1, 11},
    {"out_survives", 'u', 1, 12}, {"out_fails", 'u', 1, 13},
};
#define PASS_INPUTS 4

static PyObject *py_address_pass(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    static const char *func = "address_pass";
    (void)self;
    if (check_nargs(func, nargs, 14) < 0) return NULL;
    long long block_shift = PyLong_AsLongLong(args[3]);
    if (block_shift == -1 && PyErr_Occurred()) return NULL;
    if (block_shift < 0 || block_shift > 63) {
        PyErr_Format(PyExc_ValueError, "%s: block_shift %lld outside 0..63",
                     func, block_shift);
        return NULL;
    }
    double avg_threshold = PyFloat_AsDouble(args[6]);
    if (avg_threshold == -1.0 && PyErr_Occurred()) return NULL;
    double ip_threshold = PyFloat_AsDouble(args[7]);
    if (ip_threshold == -1.0 && PyErr_Occurred()) return NULL;
    if (!PyList_Check(args[5])) {
        PyErr_Format(PyExc_TypeError,
                     "%s: days must be a list of key arrays, got %.80s",
                     func, Py_TYPE(args[5])->tp_name);
        return NULL;
    }
    /* A tuple copy: acquiring a buffer cannot change the list under us. */
    PyObject *days = PyList_AsTuple(args[5]);
    if (days == NULL) return NULL;
    Py_ssize_t ndays = PyTuple_GET_SIZE(days), held = 0;
    Py_buffer *views = PyMem_Malloc(
        (PASS_ARRAYS + ndays) * sizeof(Py_buffer)
        + ndays * (sizeof(void *) + 2 * sizeof(int64_t)));
    if (views == NULL) {
        Py_DECREF(days);
        return PyErr_NoMemory();
    }
    const int64_t **day_keys = (const int64_t **)(views + PASS_ARRAYS + ndays);
    int64_t *day_lens = (int64_t *)(day_keys + ndays);
    int64_t *cursors = day_lens + ndays;
    PyObject *result = NULL;
    for (; held < PASS_ARRAYS; held++) {
        if (get_array(func, pass_args[held].name, args[pass_args[held].at],
                      pass_args[held].kind, pass_args[held].width,
                      held >= PASS_INPUTS, &views[held]) < 0)
            goto done;
    }
    Py_ssize_t n = items(&views[0]);
    for (int i = 1; i < 3; i++) {
        if (items(&views[i]) != n) {
            PyErr_Format(PyExc_ValueError, "%s: %s has %zd rows, dst_ips has %zd",
                         func, pass_args[i].name, items(&views[i]), n);
            goto done;
        }
    }
    for (int i = PASS_INPUTS; i < PASS_ARRAYS; i++)
        if (check_room(func, pass_args[i].name, &views[i], n, "rows",
                       (uintptr_t)pass_args[i].width) < 0)
            goto done;
    for (Py_ssize_t d = 0; d < ndays; d++, held++) {
        if (get_array(func, "day keys", PyTuple_GET_ITEM(days, d), 'i', 8, 0,
                      &views[held]) < 0)
            goto done;
        day_keys[d] = views[held].buf;
        day_lens[d] = items(&views[held]);
    }
    int64_t count;
    Py_BEGIN_ALLOW_THREADS
    count = address_pass(
        views[0].buf, views[1].buf, views[2].buf, n, block_shift,
        views[3].buf, items(&views[3]), day_keys, day_lens, ndays, cursors,
        avg_threshold, ip_threshold, views[4].buf, views[5].buf,
        views[6].buf, views[7].buf, views[8].buf, views[9].buf);
    Py_END_ALLOW_THREADS
    if (count < 0) {
        Py_INCREF(Py_None);
        result = Py_None;
    } else {
        result = PyLong_FromLongLong(count);
    }
done:
    release_all(views, held);
    PyMem_Free(views);
    Py_DECREF(days);
    return result;
}

/* crc32_columns(columns, crcs) -> column count | None; columns is a
 * list of 1-d C-contiguous arrays of any element type, crcs a uint32
 * array with room for one value per column. */
static PyObject *py_crc32_columns(PyObject *self, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    static const char *func = "crc32_columns";
    (void)self;
    if (check_nargs(func, nargs, 2) < 0) return NULL;
    if (!PyList_Check(args[0])) {
        PyErr_Format(PyExc_TypeError, "%s: columns must be a list, got %.80s",
                     func, Py_TYPE(args[0])->tp_name);
        return NULL;
    }
    /* A tuple copy: acquiring a buffer cannot change the list under us. */
    PyObject *list = PyList_AsTuple(args[0]);
    if (list == NULL) return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(list), held = 0;
    Py_buffer *views = PyMem_Malloc(
        (n + 1) * (sizeof(Py_buffer) + sizeof(void *) + sizeof(int64_t)));
    if (views == NULL) {
        Py_DECREF(list);
        return PyErr_NoMemory();
    }
    const uint8_t **columns = (const uint8_t **)(views + n + 1);
    int64_t *lengths = (int64_t *)(columns + n + 1);
    PyObject *result = NULL;
    for (; held < n; held++) {
        if (get_array(func, "column", PyTuple_GET_ITEM(list, held), 0, 0, 0,
                      &views[held]) < 0)
            goto done;
        columns[held] = views[held].buf;
        lengths[held] = views[held].len;
    }
    if (get_array(func, "crcs", args[1], 'u', 4, 1, &views[n]) < 0) goto done;
    held++;
    if (check_room(func, "crcs", &views[n], n, "values", 4) < 0) goto done;
    int64_t status;
    uint32_t *crcs = views[n].buf;
    Py_BEGIN_ALLOW_THREADS
    status = crc32_columns(columns, lengths, n, crcs);
    Py_END_ALLOW_THREADS
    if (status < 0) {
        Py_INCREF(Py_None);
        result = Py_None;
    } else {
        result = PyLong_FromSsize_t(n);
    }
done:
    release_all(views, held);
    PyMem_Free(views);
    Py_DECREF(list);
    return result;
}

/* parse_csv_block(block, kinds, columns) -> (rows, lines) | None
 *
 * block is any 1-d C-contiguous buffer of bytes; kinds a bytes object
 * with one struct code per column, one of the flow columns' types:
 * B H I Q (uint8, 16, 32, 64), i q (int32, 64) or ? (the bool flag);
 * columns a list of writable outputs, one per code, of the code's type
 * and all the same length (the most rows the call may write).  None:
 * the kernel declines the block. */
#define CSV_KINDS 7
static const struct { char code, kind; Py_ssize_t width; int64_t min, max; }
csv_kinds[CSV_KINDS] = {
    {'B', 'u', 1, 0, UINT8_MAX}, {'H', 'u', 2, 0, UINT16_MAX},
    {'I', 'u', 4, 0, UINT32_MAX}, {'Q', 'u', 8, 0, 0},
    {'i', 'i', 4, INT32_MIN, INT32_MAX}, {'q', 'i', 8, INT64_MIN, INT64_MAX},
    {'?', 'b', 1, INT64_MIN, INT64_MAX},
};

static PyObject *py_parse_csv_block(PyObject *self, PyObject *const *args,
                                    Py_ssize_t nargs)
{
    static const char *func = "parse_csv_block";
    (void)self;
    if (check_nargs(func, nargs, 3) < 0) return NULL;
    if (!PyBytes_Check(args[1])) {
        PyErr_Format(PyExc_TypeError, "%s: kinds must be bytes, got %.80s",
                     func, Py_TYPE(args[1])->tp_name);
        return NULL;
    }
    if (!PyList_Check(args[2])) {
        PyErr_Format(PyExc_TypeError, "%s: columns must be a list, got %.80s",
                     func, Py_TYPE(args[2])->tp_name);
        return NULL;
    }
    const char *codes = PyBytes_AS_STRING(args[1]);
    Py_ssize_t ncols = PyBytes_GET_SIZE(args[1]);
    if (ncols != PyList_GET_SIZE(args[2]) || ncols == 0) {
        PyErr_Format(PyExc_ValueError,
                     "%s: %zd column kinds for %zd columns (one each, one "
                     "at least)", func, ncols, PyList_GET_SIZE(args[2]));
        return NULL;
    }
    /* A tuple copy: acquiring a buffer cannot change the list under us. */
    PyObject *list = PyList_AsTuple(args[2]);
    if (list == NULL) return NULL;
    Py_ssize_t held = 0;
    Py_buffer *views = PyMem_Malloc(
        (ncols + 1) * sizeof(Py_buffer) + ncols * sizeof(CsvColumn));
    if (views == NULL) {
        Py_DECREF(list);
        return PyErr_NoMemory();
    }
    CsvColumn *cols = (CsvColumn *)(views + ncols + 1);
    PyObject *result = NULL;
    if (get_array(func, "block", args[0], 0, 1, 0, &views[0]) < 0) goto done;
    held++;
    Py_ssize_t room = 0;
    for (Py_ssize_t c = 0; c < ncols; c++) {
        int k = 0;
        while (k < CSV_KINDS && csv_kinds[k].code != codes[c]) k++;
        if (k == CSV_KINDS) {
            PyErr_Format(PyExc_ValueError,
                         "%s: column %zd: unknown kind code %d", func, c,
                         (int)(unsigned char)codes[c]);
            goto done;
        }
        if (get_array(func, "column", PyTuple_GET_ITEM(list, c),
                      csv_kinds[k].kind, csv_kinds[k].width, 1,
                      &views[held]) < 0)
            goto done;
        held++;
        if (c == 0) room = items(&views[1]);
        if (items(&views[held - 1]) != room) {
            PyErr_Format(PyExc_ValueError,
                         "%s: column %zd holds %zd rows, column 0 holds %zd",
                         func, c, items(&views[held - 1]), room);
            goto done;
        }
        cols[c] = (CsvColumn){
            views[held - 1].buf, (int)csv_kinds[k].width, codes[c] == 'Q',
            codes[c] == '?', csv_kinds[k].min, csv_kinds[k].max,
        };
    }
    int64_t rows, lines = 0;
    Py_BEGIN_ALLOW_THREADS
    rows = parse_csv_block(views[0].buf, views[0].len, cols, ncols, room,
                           &lines);
    Py_END_ALLOW_THREADS
    if (rows < 0) {
        Py_INCREF(Py_None);
        result = Py_None;
    } else {
        result = Py_BuildValue("(LL)", (long long)rows, (long long)lines);
    }
done:
    release_all(views, held);
    PyMem_Free(views);
    Py_DECREF(list);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"fold_batch", (PyCFunction)(void (*)(void))py_fold_batch,
     METH_FASTCALL, "One day's batch of row slices folded in one call."},
    {"merge_sorted", (PyCFunction)(void (*)(void))py_merge_sorted,
     METH_FASTCALL, "Linear merge of two sorted-unique keyed parts."},
    {"merge_k", (PyCFunction)(void (*)(void))py_merge_k,
     METH_FASTCALL, "Radix sort-reduce merge of sorted-unique keyed parts."},
    {"crc32_columns", (PyCFunction)(void (*)(void))py_crc32_columns,
     METH_FASTCALL, "zlib's CRC-32 of each column, one call per segment."},
    {"address_pass", (PyCFunction)(void (*)(void))py_address_pass,
     METH_FASTCALL, "The funnel's per-block address evidence in one walk."},
    {"parse_csv_block", (PyCFunction)(void (*)(void))py_parse_csv_block,
     METH_FASTCALL, "A plain flow-CSV block into typed columns, or None."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "The native fold, merges, column checksums, address pass and CSV "
    "block parser of repro.core.kernels.",
    -1, kernel_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void) {
    return PyModule_Create(&kernel_module);
}
