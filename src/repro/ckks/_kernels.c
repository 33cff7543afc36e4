/* Compiled kernels of repro.ckks.backend.VectorizedBackend.
 *
 * Built on first use by backend.py (system `cc`, cached per source /
 * header / flags / compiler / CPU / interpreter) into one cffi extension
 * module, and called with the GIL released, so nothing here may hold
 * state shared between calls: every scratch buffer is allocated per
 * call.  The entry points are declared in _kernels.h, the binding's
 * cdef.  Python validates every shape,
 * index and dtype before a call; the functions trust their arguments.
 *
 * Every entry point is one whole HE-level step (an NTT or a pointwise op
 * over a residue stack, a plaintext lift, a sum of plaintext products, a
 * key inner product, or a basis change: mod_up -- the keyswitch digit
 * decomposition, a ModRaise -- or mod_down -- a rescale, the keyswitch
 * descent) against two per-context tables, indexed by position in
 * ctx.all_primes (K primes, ring size n):
 *
 *   ktab  int64  (2, K):     the primes, then n^{-1} mod each prime;
 *   wtab  uint32 (4, K, n):  bit-reversed forward twiddles, their Shoup
 *                            quotients, inverse twiddles, their quotients.
 *
 * Every kernel is exact modular integer arithmetic over primes
 * 2^12 <= p < 2^30 and returns canonical residues in [0, p), so its
 * output is bit-identical to the spec compositions (KernelBackend over
 * ReferenceBackend's kernels) whatever order it computes in.
 *
 * NTT headroom (Harvey's lazy butterflies with Shoup multiplication):
 * a twiddle w < p carries its quotient w' = floor(w * 2^32 / p) < 2^32;
 * for any x < 2^32, r = x*w - floor(x*w' / 2^32)*p lies in [0, 2p) and
 * x*w' < 2^64.  Forward (Cooley-Tukey) values live in [0, 4p) < 2^32,
 * inverse (Gentleman-Sande) values in [0, 2p); both land canonical after
 * one final correction pass, and the inverse folds n^{-1} into its last
 * stage.
 */

#include <stdint.h>
#include <stdlib.h>

#include "_kernels.h"

enum { W_PSI, W_PSI_SHOUP, W_PSI_INV, W_PSI_INV_SHOUP };

/* x*w mod p, lazily in [0, 2p); requires x < 2^32, w < p */
static inline uint32_t shoup_mul(uint32_t x, uint32_t w, uint32_t w_shoup, uint32_t p)
{
    uint32_t q = (uint32_t)(((uint64_t)x * w_shoup) >> 32);
    return x * w - q * p; /* exact mod 2^32: the true value is < 2p < 2^31 */
}

static inline uint32_t shoup_quotient(uint32_t w, uint32_t p)
{
    return (uint32_t)(((uint64_t)w << 32) / p);
}

/* x mod p, canonical, for |x| < 2^63 - 2^31 and 2^12 <= p < 2^31.  The
 * double quotient estimate e is within 0.75 of x/p (three roundings of
 * 2^-53 on a quotient below 2^51), so its truncation q is within 1.75
 * and x - q*p within (-1.75p, 1.75p): two conditional adds and one
 * conditional subtract make it canonical.  Truncation never grows a
 * magnitude, so |q*p| <= |e|*p < |x| + p and nothing overflows. */
static inline int64_t reduce(int64_t x, int64_t p, double p_inv)
{
    int64_t r = x - (int64_t)((double)x * p_inv) * p;
    r += (r < 0) ? p : 0;
    r += (r < 0) ? p : 0;
    return r - ((r >= p) ? p : 0);
}

/* ------------------------------------------------------------------ */
/* negacyclic NTT rows                                                 */
/* ------------------------------------------------------------------ */

/* one forward stage: m groups of t butterflies.  Inlined with constant t
 * for the last stages, so the compiler vectorises across groups when a
 * group is narrower than a vector. */
static inline __attribute__((always_inline)) void
forward_stage(uint32_t *a, int64_t m, int64_t t, uint32_t p, const uint32_t *w,
              const uint32_t *w_shoup)
{
    const uint32_t p2 = 2 * p;
    for (int64_t i = 0; i < m; i++) {
        const uint32_t wi = w[m + i], wsi = w_shoup[m + i];
        uint32_t *restrict x = a + 2 * i * t, *restrict y = x + t;
        for (int64_t j = 0; j < t; j++) {
            uint32_t u = x[j];
            u -= (u >= p2) ? p2 : 0;
            uint32_t v = shoup_mul(y[j], wi, wsi, p);
            x[j] = u + v;
            y[j] = u - v + p2;
        }
    }
}

static void forward_row(uint32_t *a, int64_t n, uint32_t p, const uint32_t *w,
                        const uint32_t *w_shoup)
{
    const uint32_t p2 = 2 * p;
    for (int64_t m = 1, t = n / 2; m < n; m *= 2, t /= 2) {
        switch (t) {
        case 1: forward_stage(a, m, 1, p, w, w_shoup); break;
        case 2: forward_stage(a, m, 2, p, w, w_shoup); break;
        case 4: forward_stage(a, m, 4, p, w, w_shoup); break;
        case 8: forward_stage(a, m, 8, p, w, w_shoup); break;
        default: forward_stage(a, m, t, p, w, w_shoup);
        }
    }
    for (int64_t j = 0; j < n; j++) {
        uint32_t u = a[j];
        u -= (u >= p2) ? p2 : 0;
        a[j] = u - ((u >= p) ? p : 0);
    }
}

/* one inverse stage: h groups of t butterflies (same inlining as above) */
static inline __attribute__((always_inline)) void
inverse_stage(uint32_t *a, int64_t h, int64_t t, uint32_t p, const uint32_t *w,
              const uint32_t *w_shoup)
{
    const uint32_t p2 = 2 * p;
    for (int64_t i = 0; i < h; i++) {
        const uint32_t wi = w[h + i], wsi = w_shoup[h + i];
        uint32_t *restrict x = a + 2 * i * t, *restrict y = x + t;
        for (int64_t j = 0; j < t; j++) {
            uint32_t u = x[j], v = y[j];
            uint32_t s = u + v;
            x[j] = s - ((s >= p2) ? p2 : 0);
            y[j] = shoup_mul(u - v + p2, wi, wsi, p);
        }
    }
}

static void inverse_row(uint32_t *a, int64_t n, uint32_t p, const uint32_t *w,
                        const uint32_t *w_shoup, uint32_t n_inv)
{
    const uint32_t p2 = 2 * p;
    int64_t m = n, t = 1;
    for (; m > 2; m /= 2, t *= 2) {
        switch (t) {
        case 1: inverse_stage(a, m / 2, 1, p, w, w_shoup); break;
        case 2: inverse_stage(a, m / 2, 2, p, w, w_shoup); break;
        case 4: inverse_stage(a, m / 2, 4, p, w, w_shoup); break;
        case 8: inverse_stage(a, m / 2, 8, p, w, w_shoup); break;
        default: inverse_stage(a, m / 2, t, p, w, w_shoup);
        }
    }
    /* last stage (h = 1, t = n/2) with n^{-1} folded into both halves */
    const uint32_t ni_shoup = shoup_quotient(n_inv, p);
    if (m == 1) { /* n == 1: no butterflies, scale only */
        uint32_t r = shoup_mul(a[0], n_inv, ni_shoup, p);
        a[0] = r - ((r >= p) ? p : 0);
        return;
    }
    const uint32_t wn = (uint32_t)((uint64_t)w[1] * n_inv % p);
    const uint32_t wn_shoup = shoup_quotient(wn, p);
    uint32_t *restrict x = a, *restrict y = a + t;
    for (int64_t j = 0; j < t; j++) {
        uint32_t u = x[j], v = y[j];
        uint32_t s = shoup_mul(u + v, n_inv, ni_shoup, p);
        uint32_t d = shoup_mul(u - v + p2, wn, wn_shoup, p);
        x[j] = s - ((s >= p) ? p : 0);
        y[j] = d - ((d >= p) ? p : 0);
    }
}

/* The per-context tables of one prime (position k in ctx.all_primes). */
typedef struct {
    const int64_t *ktab;
    const uint32_t *wtab;
    int64_t K, n;
} tables;

static inline const uint32_t *twiddles(tables tb, int which, int64_t k)
{
    return tb.wtab + (which * tb.K + k) * tb.n;
}

static void forward_k(uint32_t *row, tables tb, int64_t k)
{
    forward_row(row, tb.n, (uint32_t)tb.ktab[k], twiddles(tb, W_PSI, k),
                twiddles(tb, W_PSI_SHOUP, k));
}

static void inverse_k(uint32_t *row, tables tb, int64_t k)
{
    inverse_row(row, tb.n, (uint32_t)tb.ktab[k], twiddles(tb, W_PSI_INV, k),
                twiddles(tb, W_PSI_INV_SHOUP, k), (uint32_t)tb.ktab[tb.K + k]);
}

/* Forward (inverse = 0) or inverse negacyclic NTT of a (batch, limbs, n)
 * int64 stack.  Limb l of every batch entry is transformed mod prime
 * idx[l]; `in` holds canonical residues and is only read.
 * Returns 0, or -1 if the scratch row could not be allocated. */
int ntt(const int64_t *in, int64_t *out, int64_t batch, int64_t limbs, int64_t n,
        const int64_t *idx, const int64_t *ktab, const uint32_t *wtab, int64_t K,
        int inverse)
{
    const tables tb = {ktab, wtab, K, n};
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (row == NULL)
        return -1;
    for (int64_t b = 0; b < batch; b++) {
        for (int64_t l = 0; l < limbs; l++) {
            const int64_t off = (b * limbs + l) * n;
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)in[off + j];
            if (inverse)
                inverse_k(row, tb, idx[l]);
            else
                forward_k(row, tb, idx[l]);
            for (int64_t j = 0; j < n; j++)
                out[off + j] = row[j];
        }
    }
    free(row);
    return 0;
}

/* ------------------------------------------------------------------ */
/* pointwise modular arithmetic                                        */
/* ------------------------------------------------------------------ */

enum { OP_ADD, OP_SUB, OP_NEG, OP_MUL, OP_SCALE };

/* out = a (op) b over a (batch, limbs, n) stack, limb l mod prime idx[l].
 * `b` is (b_batch, limbs, n) -- (b_batch, limbs) per-row scalars for
 * OP_SCALE, unread for OP_NEG -- and batch entry i reads b's entry
 * i % b_batch, which is numpy broadcasting of b over a's leading axes.
 * Operands are residues below 2^31 in magnitude (every sum, difference
 * and product then reduces exactly). */
void pointwise(int op, const int64_t *a, const int64_t *b, int64_t *out, int64_t batch,
               int64_t b_batch, int64_t limbs, int64_t n, const int64_t *idx,
               const int64_t *ktab)
{
    for (int64_t i = 0; i < batch; i++) {
        const int64_t bi = i % b_batch;
        for (int64_t l = 0; l < limbs; l++) {
            const int64_t p = ktab[idx[l]];
            const double p_inv = 1.0 / (double)p;
            const int64_t *restrict x = a + (i * limbs + l) * n;
            const int64_t *restrict y = (op == OP_ADD || op == OP_SUB || op == OP_MUL)
                                            ? b + (bi * limbs + l) * n
                                            : b;
            int64_t *restrict o = out + (i * limbs + l) * n;
            switch (op) {
            case OP_ADD:
                for (int64_t j = 0; j < n; j++)
                    o[j] = reduce(x[j] + y[j], p, p_inv);
                break;
            case OP_SUB:
                for (int64_t j = 0; j < n; j++)
                    o[j] = reduce(x[j] - y[j], p, p_inv);
                break;
            case OP_NEG:
                for (int64_t j = 0; j < n; j++)
                    o[j] = reduce(-x[j], p, p_inv);
                break;
            case OP_MUL:
                for (int64_t j = 0; j < n; j++)
                    o[j] = reduce(x[j] * y[j], p, p_inv);
                break;
            case OP_SCALE: {
                const int64_t s = b[bi * limbs + l];
                for (int64_t j = 0; j < n; j++)
                    o[j] = reduce(x[j] * s, p, p_inv);
                break;
            }
            }
        }
    }
}

/* The ciphertext tensor product: a and b are (2, limbs, n) pairs, out is
 * (3, limbs, n) = (a0 b0, a0 b1 + a1 b0, a1 b1).  Canonical residues in;
 * the middle sum of two products is below 2^61. */
void tensor(const int64_t *a, const int64_t *b, int64_t *out, int64_t limbs, int64_t n,
            const int64_t *idx, const int64_t *ktab)
{
    const int64_t half = limbs * n;
    for (int64_t l = 0; l < limbs; l++) {
        const int64_t p = ktab[idx[l]];
        const double p_inv = 1.0 / (double)p;
        const int64_t *restrict a0 = a + l * n, *restrict a1 = a0 + half;
        const int64_t *restrict b0 = b + l * n, *restrict b1 = b0 + half;
        int64_t *restrict d0 = out + l * n, *restrict d1 = d0 + half, *restrict d2 = d1 + half;
        for (int64_t j = 0; j < n; j++) {
            d0[j] = reduce(a0[j] * b0[j], p, p_inv);
            d1[j] = reduce(a0[j] * b1[j] + a1[j] * b0[j], p, p_inv);
            d2[j] = reduce(a1[j] * b1[j], p, p_inv);
        }
    }
}

/* ------------------------------------------------------------------ */
/* plaintext lift: reduce int64 coefficients, forward NTT             */
/* ------------------------------------------------------------------ */

/* x outside [-2^62, 2^62), the fast reduction's range (branch-free) */
static inline int64_t beyond_fast_range(int64_t x)
{
    const uint64_t bound = (uint64_t)1 << 62;
    return (uint64_t)x + bound >= 2 * bound;
}

/* row = c mod p, canonical, for n int64 coefficients of any size.  The
 * first pass has no branch, so it vectorises whatever the signs: an
 * entry beyond the fast range reduces as 0 there, and a second pass,
 * run only when there is one, redoes it by exact division. */
static void reduce_row(const int64_t *c, uint32_t *row, int64_t n, int64_t p, double p_inv)
{
    int64_t beyond = 0;
    for (int64_t j = 0; j < n; j++) {
        const int64_t big = beyond_fast_range(c[j]);
        beyond |= big;
        row[j] = (uint32_t)reduce(c[j] & (big - 1), p, p_inv);
    }
    if (!beyond)
        return;
    for (int64_t j = 0; j < n; j++) {
        if (beyond_fast_range(c[j])) {
            const int64_t r = c[j] % p;
            row[j] = (uint32_t)(r + ((r < 0) ? p : 0));
        }
    }
}

/* `coeffs` is (batch, n) of any int64, `out` (batch, limbs, n): limb l
 * reduced mod prime idx[l] and forward-transformed.
 * Returns 0, or -1 if the scratch row could not be allocated. */
int lift(const int64_t *coeffs, int64_t *out, int64_t batch, int64_t limbs, int64_t n,
         const int64_t *idx, const int64_t *ktab, const uint32_t *wtab, int64_t K)
{
    const tables tb = {ktab, wtab, K, n};
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (row == NULL)
        return -1;
    for (int64_t b = 0; b < batch; b++) {
        const int64_t *c = coeffs + b * n;
        for (int64_t l = 0; l < limbs; l++) {
            const int64_t k = idx[l], p = ktab[k];
            reduce_row(c, row, n, p, 1.0 / (double)p);
            forward_k(row, tb, k);
            int64_t *o = out + (b * limbs + l) * n;
            for (int64_t j = 0; j < n; j++)
                o[j] = row[j];
        }
    }
    free(row);
    return 0;
}

/* ------------------------------------------------------------------ */
/* a sum of ciphertext-plaintext products: a matvec's inner sum        */
/* ------------------------------------------------------------------ */

/* out = sum_t cts[t] * plains[t] over (2, limbs, n) pairs, limb l mod
 * prime idx[l].  cts[t] points at a (2, limbs, n) pair of canonical NTT
 * rows.  With coeff[t] set, plains[t] is n int64 coefficients of any
 * size, lifted limb by limb into one scratch row (reduce + forward NTT,
 * the bytes of `lift`); otherwise it is (limbs, n) canonical NTT rows.
 * Limb-outer, term-inner: both accumulators of a limb take 8 products
 * (< 2^60 each) onto a canonical residue between reductions, so they
 * stay below 2^63 - 2^34.
 * Returns 0, or -1 if the scratch row could not be allocated. */
int mul_plain_sum(const int64_t *const *cts, const int64_t *const *plains,
                  const int64_t *coeff, int64_t terms, int64_t *out, int64_t limbs,
                  int64_t n, const int64_t *idx, const int64_t *ktab, const uint32_t *wtab,
                  int64_t K)
{
    enum { CHUNK = 8 };
    const tables tb = {ktab, wtab, K, n};
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (row == NULL)
        return -1;
    for (int64_t l = 0; l < limbs; l++) {
        const int64_t k = idx[l], p = ktab[k];
        const double p_inv = 1.0 / (double)p;
        int64_t *restrict o0 = out + l * n, *restrict o1 = out + (limbs + l) * n;
        for (int64_t j = 0; j < n; j++)
            o0[j] = o1[j] = 0;
        for (int64_t t = 0; t < terms; t++) {
            const int64_t *restrict c0 = cts[t] + l * n, *restrict c1 = c0 + limbs * n;
            if (coeff[t]) {
                reduce_row(plains[t], row, n, p, p_inv);
                forward_k(row, tb, k);
                for (int64_t j = 0; j < n; j++) {
                    const int64_t w = row[j];
                    o0[j] += c0[j] * w;
                    o1[j] += c1[j] * w;
                }
            } else {
                const int64_t *restrict w = plains[t] + l * n;
                for (int64_t j = 0; j < n; j++) {
                    o0[j] += c0[j] * w[j];
                    o1[j] += c1[j] * w[j];
                }
            }
            if ((t + 1) % CHUNK == 0 || t + 1 == terms) {
                for (int64_t j = 0; j < n; j++) {
                    o0[j] = reduce(o0[j], p, p_inv);
                    o1[j] = reduce(o1[j], p, p_inv);
                }
            }
        }
    }
    free(row);
    return 0;
}

/* ------------------------------------------------------------------ */
/* basis change: centred approximate base conversion, ModUp, ModDown   */
/* ------------------------------------------------------------------ */

/* A packed repro.ckks.context.BaseConversion: one int64 array
 *   [S, T, G, size, sources[S], targets[T], inv[S], weights[G*T*size]]
 * (source s = g*size + pos belongs to group g; weights zero-padded),
 * followed for a ModDown by the input row of its first source (0 when
 * the dropped rows lead, T when they trail the kept ones) and the
 * sources' product inverted mod each target. */
typedef struct {
    int64_t S, T, G, size;
    const int64_t *src, *tgt, *inv, *weights, *tail;
} conversion;

static conversion unpack(const int64_t *plan)
{
    conversion c = {plan[0], plan[1], plan[2], plan[3], 0, 0, 0, 0, 0};
    c.src = plan + 4;
    c.tgt = c.src + c.S;
    c.inv = c.tgt + c.T;
    c.weights = c.inv + c.S;
    c.tail = c.weights + c.G * c.T * c.size;
    return c;
}

/* y_s = centred([INTT(x_s) * inv_s]_{q_s}) for every source row s of `x`
 * ((S, n) canonical NTT residues, only read); `row` is n scratch lanes. */
static inline __attribute__((always_inline)) void
centred_sources(const int64_t *x, int64_t *y, uint32_t *row, conversion cv, tables tb)
{
    const int64_t n = tb.n;
    for (int64_t s = 0; s < cv.S; s++) {
        const int64_t k = cv.src[s];
        const uint32_t q = (uint32_t)tb.ktab[k], half = q / 2, w = (uint32_t)cv.inv[s];
        const uint32_t w_shoup = shoup_quotient(w, q);
        for (int64_t j = 0; j < n; j++)
            row[j] = (uint32_t)x[s * n + j];
        inverse_k(row, tb, k);
        int64_t *ys = y + s * n;
        if (w == 1) { /* a one-prime group's inverse: nothing to multiply */
            for (int64_t j = 0; j < n; j++)
                ys[j] = (row[j] > half) ? (int64_t)row[j] - q : (int64_t)row[j];
            continue;
        }
        for (int64_t j = 0; j < n; j++) {
            uint32_t r = shoup_mul(row[j], w, w_shoup, q);
            r -= (r >= q) ? q : 0;
            ys[j] = (r > half) ? (int64_t)r - q : (int64_t)r;
        }
    }
}

/* a mod p up to sign, |result| < 2p.  Every caller's |a / p| is below
 * 2^34, so the double quotient estimate is off by at most one. */
static inline int64_t reduce_lazy(int64_t a, int64_t p, double p_inv)
{
    return a - (int64_t)((double)a * p_inv) * p;
}

/* row = sum over group g's sources of y_s * weight, canonical mod target
 * t, summed in `acc` (n scratch lanes).  A centred residue (|y| <= q/2 <
 * 2^29) times a weight (< 2^30) is < 2^59 in magnitude, so 15 products
 * plus a lazily reduced (|acc| < 2p < 2^31) accumulator stay below
 * 2^63 - 2^31, the range of reduce; and since every weight is below its
 * target p, |acc / p| < 15 * 2^29 + 2 < 2^34 whenever it is reduced. */
static inline __attribute__((always_inline)) void
convert_row(const int64_t *y, int64_t *acc, uint32_t *row, conversion cv, int64_t g, int64_t t,
            tables tb)
{
    enum { CHUNK = 15 };
    const int64_t n = tb.n, first = g * cv.size;
    const int64_t count = (cv.S - first < cv.size) ? cv.S - first : cv.size;
    const int64_t pt = tb.ktab[cv.tgt[t]], *wt = cv.weights + (g * cv.T + t) * cv.size;
    const double pt_inv = 1.0 / (double)pt;
    const int64_t *ys = y + first * n;
    if (count == 1) { /* a one-prime group (a rescale, a ModRaise): no sum */
        const int64_t w = wt[0]; /* its cofactor, 1, when well formed */
        if (w == 1)
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)reduce(ys[j], pt, pt_inv);
        else
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)reduce(ys[j] * w, pt, pt_inv);
        return;
    }
    for (int64_t j = 0; j < n; j++)
        acc[j] = ys[j] * wt[0];
    for (int64_t pos = 1; pos < count; pos++) {
        if (pos % CHUNK == 0)
            for (int64_t j = 0; j < n; j++)
                acc[j] = reduce_lazy(acc[j], pt, pt_inv);
        const int64_t wv = wt[pos], *yp = ys + pos * n;
        for (int64_t j = 0; j < n; j++)
            acc[j] += yp[j] * wv;
    }
    for (int64_t j = 0; j < n; j++)
        row[j] = (uint32_t)reduce(acc[j], pt, pt_inv);
}

/* ModUp: `in` is (lead, S, n) canonical NTT rows over the conversion's
 * sources (only read), `out` (lead, G, T, n).  Each source row is
 * inverse-transformed and centred, each group base-converted onto every
 * target, and each converted row forward-transformed mod its target:
 * the keyswitch digit decomposition, or a ModRaise from q_0.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int mod_up(const int64_t *in, int64_t *out, int64_t lead, int64_t n, const int64_t *plan,
           const int64_t *ktab, const uint32_t *wtab, int64_t K)
{
    const tables tb = {ktab, wtab, K, n};
    const conversion cv = unpack(plan);
    int64_t *y = malloc((size_t)(cv.S * n) * sizeof *y);
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (y == NULL || row == NULL) {
        free(y);
        free(row);
        return -1;
    }
    for (int64_t b = 0; b < lead; b++) {
        centred_sources(in + b * cv.S * n, y, row, cv, tb);
        for (int64_t g = 0; g < cv.G; g++) {
            for (int64_t t = 0; t < cv.T; t++) {
                int64_t *o = out + ((b * cv.G + g) * cv.T + t) * n;
                convert_row(y, o, row, cv, g, t, tb);
                forward_k(row, tb, cv.tgt[t]);
                for (int64_t j = 0; j < n; j++)
                    o[j] = row[j];
            }
        }
    }
    free(y);
    free(row);
    return 0;
}

/* Key inner products of (D, T, n) NTT digits with both key halves:
 * out[h, r] = sum_k digits[k, r, perm[.]] * key_h[k, r] mod prime idx[r],
 * h = 0 for key_b and 1 for key_a.  A key is (D, T, n) rows with
 * consecutive digits key_stride elements apart (a level's slice of the
 * family's full tensor).  With `use_perm`, digit element j is read from
 * slot perm[j] (masked into [0, n), n a power of two).  Products of
 * canonical residues are below 2^60, so 8 of them plus a canonical
 * accumulator stay below 2^63 - 2^34 between reductions.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int inner_product(const int64_t *digits, const int64_t *key_b, const int64_t *key_a,
                  int64_t *out, int64_t D, int64_t T, int64_t n, int64_t key_stride,
                  const int64_t *perm, int use_perm, const int64_t *idx,
                  const int64_t *ktab)
{
    enum { CHUNK = 8 };
    int64_t *gathered = malloc((size_t)(D * n) * sizeof *gathered);
    const int64_t **rows = malloc((size_t)D * sizeof *rows);
    if (gathered == NULL || rows == NULL) {
        free(gathered);
        free(rows);
        return -1;
    }
    for (int64_t r = 0; r < T; r++) {
        const int64_t p = ktab[idx[r]];
        const double p_inv = 1.0 / (double)p;
        for (int64_t k = 0; k < D; k++) {
            const int64_t *d = digits + (k * T + r) * n;
            if (use_perm) {
                int64_t *g = gathered + k * n;
                for (int64_t j = 0; j < n; j++)
                    g[j] = d[perm[j] & (n - 1)];
                d = g;
            }
            rows[k] = d;
        }
        for (int h = 0; h < 2; h++) {
            const int64_t *key = (h ? key_a : key_b) + r * n;
            int64_t *restrict o = out + (h * T + r) * n;
            for (int64_t j = 0; j < n; j++)
                o[j] = 0;
            for (int64_t c = 0; c < D; c += CHUNK) {
                const int64_t stop = (c + CHUNK < D) ? c + CHUNK : D;
                for (int64_t k = c; k < stop; k++) {
                    const int64_t *restrict x = rows[k], *restrict w = key + k * key_stride;
                    for (int64_t j = 0; j < n; j++)
                        o[j] += x[j] * w[j];
                }
                for (int64_t j = 0; j < n; j++)
                    o[j] = reduce(o[j], p, p_inv);
            }
        }
    }
    free(gathered);
    free(rows);
    return 0;
}

/* ModDown: `in` is (lead, S+T, n) canonical NTT rows, the conversion's
 * sources (dropped) and its targets (kept), `out` (lead, T, n).  The
 * dropped rows sit where the conversion's tail puts them: first for the
 * keyswitch descent's special primes, last for a rescale's top chain
 * prime.  They are inverse-transformed, centred and base-converted (one
 * group) onto every target; each converted row is forward-transformed,
 * subtracted from its kept row and scaled by the sources' inverted
 * product on NTT residues.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int mod_down(const int64_t *in, int64_t *out, int64_t lead, int64_t n, const int64_t *plan,
             const int64_t *ktab, const uint32_t *wtab, int64_t K)
{
    const tables tb = {ktab, wtab, K, n};
    const conversion cv = unpack(plan);
    const int64_t drop = cv.tail[0], keep = drop ? 0 : cv.S, *divisor_inv = cv.tail + 1;
    int64_t *y = malloc((size_t)(cv.S * n) * sizeof *y);
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (y == NULL || row == NULL) {
        free(y);
        free(row);
        return -1;
    }
    for (int64_t b = 0; b < lead; b++) {
        const int64_t *x = in + b * (cv.S + cv.T) * n;
        centred_sources(x + drop * n, y, row, cv, tb);
        for (int64_t t = 0; t < cv.T; t++) {
            const int64_t p = ktab[cv.tgt[t]];
            int64_t *o = out + (b * cv.T + t) * n;
            convert_row(y, o, row, cv, 0, t, tb);
            forward_k(row, tb, cv.tgt[t]);
            const uint32_t w = (uint32_t)divisor_inv[t], w_shoup = shoup_quotient(w, (uint32_t)p);
            const int64_t *xt = x + (keep + t) * n;
            for (int64_t j = 0; j < n; j++) {
                int64_t d = xt[j] - row[j];
                d += (d < 0) ? p : 0;
                uint32_t r = shoup_mul((uint32_t)d, w, w_shoup, (uint32_t)p);
                o[j] = r - ((r >= p) ? p : 0);
            }
        }
    }
    free(y);
    free(row);
    return 0;
}
