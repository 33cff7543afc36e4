/* Compiled kernels of repro.ckks.backend.VectorizedBackend.
 *
 * Built on first use by backend.py (system `cc`, cached per source /
 * flags / compiler / CPU) and called through ctypes with the GIL
 * released, so nothing here may hold state shared between calls: every
 * scratch buffer is allocated per call.  Python validates every shape,
 * index and dtype before a call; the functions trust their arguments.
 *
 * Every kernel is exact modular integer arithmetic over primes p < 2^30
 * and returns canonical residues in [0, p), so its output is
 * bit-identical to the spec kernels (repro.ckks.ntt.NttPlan and
 * ReferenceBackend.base_convert) whatever order it computes in.
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

/* Forward (inverse = 0) or inverse negacyclic NTT of a (batch, limbs, n)
 * int64 stack.  Limb l of every batch entry is transformed mod
 * primes[idx[l]] with the tables' row idx[l]; `in` holds canonical
 * residues and is only read.
 * Returns 0, or -1 if the scratch row could not be allocated. */
int ntt(const int64_t *in, int64_t *out, int64_t batch, int64_t limbs, int64_t n,
        const int64_t *idx, const int64_t *primes, const uint32_t *psi,
        const uint32_t *psi_shoup, const int64_t *n_inv, int inverse)
{
    uint32_t *row = malloc((size_t)n * sizeof *row);
    if (row == NULL)
        return -1;
    for (int64_t b = 0; b < batch; b++) {
        for (int64_t l = 0; l < limbs; l++) {
            const int64_t k = idx[l], off = (b * limbs + l) * n;
            const uint32_t p = (uint32_t)primes[k];
            for (int64_t j = 0; j < n; j++)
                row[j] = (uint32_t)in[off + j];
            if (inverse)
                inverse_row(row, n, p, psi + k * n, psi_shoup + k * n, (uint32_t)n_inv[k]);
            else
                forward_row(row, n, p, psi + k * n, psi_shoup + k * n);
            for (int64_t j = 0; j < n; j++)
                out[off + j] = row[j];
        }
    }
    free(row);
    return 0;
}

/* a mod p up to sign, |result| < 2p.  Every caller's |a / p| is below
 * 2^34, so the double quotient estimate is off by at most one. */
static inline int64_t reduce_lazy(int64_t a, int64_t p, double p_inv)
{
    return a - (int64_t)((double)a * p_inv) * p;
}

/* Centred approximate base conversion (repro.ckks.context.BaseConversion):
 * `in` is (lead, S, n) canonical residues over the source primes (only
 * read), `out` is (lead, G, T, n)
 * over the targets; source s = g*size + pos belongs to group g, and
 * weights is the zero-padded (G, T, size) table.  A centred residue
 * (|y| <= q/2 < 2^29) times a weight (< 2^30) is < 2^59 in magnitude, so
 * 15 products plus a lazily reduced (|acc| < 2p < 2^31) accumulator stay
 * below 2^63; and since every weight is below its target p, |acc / p| <
 * 15 * 2^29 + 2 < 2^34 whenever it is reduced.
 * Returns 0, or -1 if the scratch rows could not be allocated. */
int base_convert(const int64_t *in, int64_t *out, int64_t lead, int64_t S, int64_t n,
                 const int64_t *src, const int64_t *inv, int64_t G, int64_t T,
                 int64_t size, const int64_t *weights, const int64_t *tgt)
{
    enum { CHUNK = 15 };
    int64_t *y = malloc((size_t)(S * n) * sizeof *y);
    if (y == NULL)
        return -1;
    for (int64_t b = 0; b < lead; b++) {
        for (int64_t s = 0; s < S; s++) {
            const uint32_t q = (uint32_t)src[s], half = q / 2, w = (uint32_t)inv[s];
            const uint32_t w_shoup = shoup_quotient(w, q);
            const int64_t *x = in + (b * S + s) * n;
            int64_t *ys = y + s * n;
            for (int64_t j = 0; j < n; j++) {
                uint32_t r = shoup_mul((uint32_t)x[j], w, w_shoup, q);
                r -= (r >= q) ? q : 0;
                ys[j] = (r > half) ? (int64_t)r - q : (int64_t)r;
            }
        }
        for (int64_t g = 0; g < G; g++) {
            const int64_t first = g * size;
            const int64_t count = (S - first < size) ? S - first : size;
            for (int64_t t = 0; t < T; t++) {
                const int64_t pt = tgt[t], *wt = weights + (g * T + t) * size;
                const double pt_inv = 1.0 / (double)pt;
                int64_t *acc = out + ((b * G + g) * T + t) * n;
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
        }
    }
    free(y);
    return 0;
}
