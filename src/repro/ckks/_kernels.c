/* Compiled kernels of repro.ckks.backend.VectorizedBackend.
 *
 * Built on first use by backend.py (system `cc`, cached per source /
 * flags / compiler / CPU) and called through ctypes with the GIL
 * released, so nothing here may hold state shared between calls: every
 * scratch buffer is allocated per call.  Python validates every shape,
 * index and dtype before a call; the functions trust their arguments.
 *
 * Every entry point is one whole HE-level step (a pointwise op over a
 * residue stack, a plaintext lift, a rescale, a keyswitch digit
 * decomposition, key inner product or descent) against two per-context
 * tables, indexed by position in ctx.all_primes (K primes, ring size n):
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
/* plaintext lift: reduce int64 coefficients, optionally forward NTT   */
/* ------------------------------------------------------------------ */

/* `coeffs` is (batch, n) of any int64, `out` (batch, limbs, n): limb l
 * reduced mod prime idx[l] and, when `transform`, forward-transformed.
 * Returns 0, or -1 if the scratch row could not be allocated. */
int lift(const int64_t *coeffs, int64_t *out, int64_t batch, int64_t limbs, int64_t n,
         const int64_t *idx, const int64_t *ktab, const uint32_t *wtab, int64_t K,
         int transform)
{
    const int64_t bound = (int64_t)1 << 62;
    const tables tb = {ktab, wtab, K, n};
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (row == NULL)
        return -1;
    for (int64_t b = 0; b < batch; b++) {
        const int64_t *c = coeffs + b * n;
        for (int64_t l = 0; l < limbs; l++) {
            const int64_t k = idx[l], p = ktab[k];
            const double p_inv = 1.0 / (double)p;
            for (int64_t j = 0; j < n; j++) {
                const int64_t x = c[j];
                int64_t r;
                if (x > -bound && x < bound) {
                    r = reduce(x, p, p_inv);
                } else { /* beyond the fast path's range: exact division */
                    r = x % p;
                    r += (r < 0) ? p : 0;
                }
                row[j] = (uint32_t)r;
            }
            if (transform)
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
/* rescale: divide by the top chain prime, NTT domain in and out       */
/* ------------------------------------------------------------------ */

/* `in` is (batch, level+1, n) NTT rows over chain primes 0..level, `out`
 * (batch, level, n); inv[j] = q_level^{-1} mod q_j.  The dropped row is
 * inverse-transformed, centred, reduced and forward-transformed onto
 * every kept prime, then subtracted and scaled on NTT residues.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int rescale(const int64_t *in, int64_t *out, int64_t batch, int64_t level, int64_t n,
            const int64_t *inv, const int64_t *ktab, const uint32_t *wtab, int64_t K)
{
    const tables tb = {ktab, wtab, K, n};
    const int64_t q_last = ktab[level], half = q_last / 2;
    uint32_t *row = malloc((size_t)n * sizeof *row);
    int64_t *centred = malloc((size_t)n * sizeof *centred);
    if (row == NULL || centred == NULL) {
        free(row);
        free(centred);
        return -1;
    }
    for (int64_t b = 0; b < batch; b++) {
        const int64_t *x = in + b * (level + 1) * n;
        for (int64_t j = 0; j < n; j++)
            row[j] = (uint32_t)x[level * n + j];
        inverse_k(row, tb, level);
        for (int64_t j = 0; j < n; j++)
            centred[j] = (row[j] > half) ? (int64_t)row[j] - q_last : (int64_t)row[j];
        for (int64_t l = 0; l < level; l++) {
            const int64_t p = ktab[l];
            const double p_inv = 1.0 / (double)p;
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)reduce(centred[j], p, p_inv);
            forward_k(row, tb, l);
            const uint32_t w = (uint32_t)inv[l], w_shoup = shoup_quotient(w, (uint32_t)p);
            const int64_t *xl = x + l * n;
            int64_t *o = out + (b * level + l) * n;
            for (int64_t j = 0; j < n; j++) {
                int64_t d = xl[j] - row[j];
                d += (d < 0) ? p : 0;
                uint32_t r = shoup_mul((uint32_t)d, w, w_shoup, (uint32_t)p);
                o[j] = r - ((r >= p) ? p : 0);
            }
        }
    }
    free(row);
    free(centred);
    return 0;
}

/* ------------------------------------------------------------------ */
/* centred approximate base conversion and the keyswitch pipelines     */
/* ------------------------------------------------------------------ */

/* A packed repro.ckks.context.BaseConversion: one int64 array
 *   [S, T, G, size, sources[S], targets[T], inv[S], weights[G*T*size]]
 * (source s = g*size + pos belongs to group g; weights zero-padded),
 * followed for a keyswitch descent by P^{-1} mod each target. */
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

/* y_s = centred([x_s * inv_s]_{q_s}) for every source row s of `x`
 * ((S, n) canonical residues); y may alias x. */
static void centre_sources(const int64_t *x, int64_t *y, conversion cv, int64_t n,
                           const int64_t *ktab)
{
    for (int64_t s = 0; s < cv.S; s++) {
        const uint32_t q = (uint32_t)ktab[cv.src[s]], half = q / 2, w = (uint32_t)cv.inv[s];
        const uint32_t w_shoup = shoup_quotient(w, q);
        const int64_t *xs = x + s * n;
        int64_t *ys = y + s * n;
        for (int64_t j = 0; j < n; j++) {
            uint32_t r = shoup_mul((uint32_t)xs[j], w, w_shoup, q);
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

/* acc = sum over group g's sources of y_s * weight, canonical mod target
 * t.  A centred residue (|y| <= q/2 < 2^29) times a weight (< 2^30) is
 * < 2^59 in magnitude, so 15 products plus a lazily reduced (|acc| < 2p
 * < 2^31) accumulator stay below 2^63; and since every weight is below
 * its target p, |acc / p| < 15 * 2^29 + 2 < 2^34 whenever it is reduced. */
static void convert_row(const int64_t *y, int64_t *acc, conversion cv, int64_t g, int64_t t,
                        int64_t n, const int64_t *ktab)
{
    enum { CHUNK = 15 };
    const int64_t first = g * cv.size;
    const int64_t count = (cv.S - first < cv.size) ? cv.S - first : cv.size;
    const int64_t pt = ktab[cv.tgt[t]], *wt = cv.weights + (g * cv.T + t) * cv.size;
    const double pt_inv = 1.0 / (double)pt;
    for (int64_t j = 0; j < n; j++)
        acc[j] = 0;
    for (int64_t c = 0; c < count; c += CHUNK) {
        const int64_t stop = (c + CHUNK < count) ? c + CHUNK : count;
        for (int64_t pos = c; pos < stop; pos++) {
            const int64_t wv = wt[pos], *ys = y + (first + pos) * n;
            for (int64_t j = 0; j < n; j++)
                acc[j] += ys[j] * wv;
        }
        for (int64_t j = 0; j < n; j++)
            acc[j] = reduce_lazy(acc[j], pt, pt_inv);
    }
    for (int64_t j = 0; j < n; j++) {
        int64_t r = acc[j];
        r += (r < 0) ? pt : 0;
        r += (r < 0) ? pt : 0;
        acc[j] = r - ((r >= pt) ? pt : 0);
    }
}

/* Centred approximate base conversion, coefficient domain: `in` is
 * (lead, S, n) canonical residues over the sources (only read), `out`
 * (lead, G, T, n) over the targets.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int base_convert(const int64_t *in, int64_t *out, int64_t lead, int64_t n,
                 const int64_t *plan, const int64_t *ktab)
{
    const conversion cv = unpack(plan);
    int64_t *y = malloc((size_t)(cv.S * n) * sizeof *y);
    if (y == NULL)
        return -1;
    for (int64_t b = 0; b < lead; b++) {
        centre_sources(in + b * cv.S * n, y, cv, n, ktab);
        for (int64_t g = 0; g < cv.G; g++)
            for (int64_t t = 0; t < cv.T; t++)
                convert_row(y, out + ((b * cv.G + g) * cv.T + t) * n, cv, g, t, n, ktab);
    }
    free(y);
    return 0;
}

/* Keyswitch digits: the base conversion of `in` ((lead, S, n) chain
 * coefficient rows) with every (lead, G, T, n) output row forward-
 * transformed mod its target prime.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int hoist_decompose(const int64_t *in, int64_t *out, int64_t lead, int64_t n,
                    const int64_t *plan, const int64_t *ktab, const uint32_t *wtab, int64_t K)
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
        centre_sources(in + b * cv.S * n, y, cv, n, ktab);
        for (int64_t g = 0; g < cv.G; g++) {
            for (int64_t t = 0; t < cv.T; t++) {
                int64_t *o = out + ((b * cv.G + g) * cv.T + t) * n;
                convert_row(y, o, cv, g, t, n, ktab);
                for (int64_t j = 0; j < n; j++)
                    row[j] = (uint32_t)o[j];
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

/* The divide-by-P descent: `in` is (lead, S+T, n) NTT rows over the
 * plan's sources (the special primes) then its targets (the chain), `out`
 * (lead, T, n).  The S special rows are inverse-transformed and
 * base-converted (one group) onto every target; each converted row is
 * forward-transformed, subtracted from the target row and scaled by
 * P^{-1} (the plan's tail) on NTT residues.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int keyswitch_descent(const int64_t *in, int64_t *out, int64_t lead, int64_t n,
                      const int64_t *plan, const int64_t *ktab, const uint32_t *wtab,
                      int64_t K)
{
    const tables tb = {ktab, wtab, K, n};
    const conversion cv = unpack(plan);
    int64_t *y = malloc((size_t)((cv.S + 1) * n) * sizeof *y);
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (y == NULL || row == NULL) {
        free(y);
        free(row);
        return -1;
    }
    int64_t *delta = y + cv.S * n;
    for (int64_t b = 0; b < lead; b++) {
        const int64_t *x = in + b * (cv.S + cv.T) * n;
        for (int64_t s = 0; s < cv.S; s++) {
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)x[s * n + j];
            inverse_k(row, tb, cv.src[s]);
            for (int64_t j = 0; j < n; j++)
                y[s * n + j] = row[j];
        }
        centre_sources(y, y, cv, n, ktab);
        for (int64_t t = 0; t < cv.T; t++) {
            const int64_t p = ktab[cv.tgt[t]];
            convert_row(y, delta, cv, 0, t, n, ktab);
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)delta[j];
            forward_k(row, tb, cv.tgt[t]);
            const uint32_t w = (uint32_t)cv.tail[t], w_shoup = shoup_quotient(w, (uint32_t)p);
            const int64_t *xt = x + (cv.S + t) * n;
            int64_t *o = out + (b * cv.T + t) * n;
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
