/* Entry points of _kernels.c, the compiled kernels of
 * repro.ckks.backend.VectorizedBackend; each one's layout and contract
 * is documented at its definition.
 *
 * This file is also the cffi `cdef` of the Python binding, so it holds
 * declarations only: no preprocessor lines, and <stdint.h> is included
 * by whoever includes it.  _kernels.c includes it, so the compiler holds
 * every definition to the declaration the binding calls through. */

int ntt(const int64_t *in, int64_t *out, int64_t batch, int64_t limbs, int64_t n,
        const int64_t *idx, const int64_t *ktab, const uint32_t *wtab, int64_t K,
        int inverse);

void pointwise(int op, const int64_t *a, const int64_t *b, int64_t *out, int64_t batch,
               int64_t b_batch, int64_t limbs, int64_t n, const int64_t *idx,
               const int64_t *ktab);

void tensor(const int64_t *a, const int64_t *b, int64_t *out, int64_t limbs, int64_t n,
            const int64_t *idx, const int64_t *ktab);

int lift(const int64_t *coeffs, int64_t *out, int64_t batch, int64_t limbs, int64_t n,
         const int64_t *idx, const int64_t *ktab, const uint32_t *wtab, int64_t K);

int mul_plain_sum(const int64_t *const *cts, const int64_t *const *plains,
                  const int64_t *coeff, int64_t terms, int64_t *out, int64_t limbs,
                  int64_t n, const int64_t *idx, const int64_t *ktab, const uint32_t *wtab,
                  int64_t K);

int mod_up(const int64_t *in, int64_t *out, int64_t lead, int64_t n, const int64_t *plan,
           const int64_t *ktab, const uint32_t *wtab, int64_t K);

int inner_product(const int64_t *digits, const int64_t *key_b, const int64_t *key_a,
                  int64_t *out, int64_t D, int64_t T, int64_t n, int64_t key_stride,
                  const int64_t *perm, int use_perm, const int64_t *idx,
                  const int64_t *ktab);

int mod_down(const int64_t *in, int64_t *out, int64_t lead, int64_t n, const int64_t *plan,
             const int64_t *ktab, const uint32_t *wtab, int64_t K);
