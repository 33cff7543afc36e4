"""Tests for primes, NTT and RNS polynomial arithmetic."""

import numpy as np
import pytest

from repro.ckks.backend import ReferenceBackend, available_backends, resolve_backend
from repro.ckks.context import CkksContext, CkksParams
from repro.ckks.encoder import crt_compose_centered
from repro.ckks.keys import _automorphism_int
from repro.ckks.ntt import NttPlan
from repro.ckks.primes import (
    generate_primes,
    generate_scale_tracking_primes,
    is_prime,
    primitive_root_of_unity,
)


class TestPrimes:
    def test_is_prime_small(self):
        assert [is_prime(n) for n in [2, 3, 4, 5, 9, 97]] == [
            True,
            True,
            False,
            True,
            False,
            True,
        ]

    def test_is_prime_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(1_373_653 - 1)

    def test_generated_primes_are_ntt_friendly(self):
        n = 256
        primes = generate_primes(n, [25, 25, 29])
        assert len(set(primes)) == 3
        for p in primes:
            assert is_prime(p)
            assert (p - 1) % (2 * n) == 0
            assert p < 2**30

    def test_primes_straddle_target(self):
        """Nearest-prime search keeps |p - 2^b| small (scale drift control)."""
        primes = generate_primes(1024, [25] * 8)
        offsets = [abs(p - 2**25) / 2**25 for p in primes]
        assert max(offsets) < 0.01

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            generate_primes(1024, [35])

    def test_scale_tracking_chain_pins_canonical_schedule(self):
        """The adaptive chain keeps S_l ≈ Δ at *every* level of a deep
        chain, where nearest-to-Δ primes collapse double-exponentially."""
        n, bits, depth = 512, 27, 31
        delta = float(2**bits)
        tracked = generate_scale_tracking_primes(n, bits, depth)
        assert len(tracked) == depth + 2 and len(set(tracked)) == depth + 2
        for p in tracked:
            assert is_prime(p) and (p - 1) % (2 * n) == 0 and p < 2**30
        s = delta
        worst = 0.0
        for level in range(depth, 0, -1):
            s = s * s / tracked[level]
            worst = max(worst, abs(s - delta) / delta)
        assert worst < 1e-2  # bounded for any depth (one prime spacing-ish)

        # the nearest-to-Delta chain diverges at this depth — the whole
        # reason scale_tracking exists
        naive = generate_primes(n, [29] + [bits] * depth + [29])
        s = delta
        for level in range(depth, 0, -1):
            s = s * s / naive[level]
        # double-exponential collapse: underflows to 0 (or blows far past Δ)
        assert s == 0.0 or abs(s - delta) / delta > 1.0

    def test_scale_tracking_context_opt_in(self):
        tracked = CkksContext(
            CkksParams(n=256, scale_bits=25, depth=4, scale_tracking=True)
        )
        default = CkksContext(CkksParams(n=256, scale_bits=25, depth=4))
        assert len(tracked.q_chain) == len(default.q_chain) == 5

    def test_canonical_scale_schedule(self):
        """``S_{l-1} = S_l² / q_l`` from Δ at the top — the one definition
        the tracer, the artifact cache and the refresh all read."""
        ctx = CkksContext(CkksParams(n=256, scale_bits=25, depth=4))
        s = ctx.scale
        assert ctx.canonical_scale(ctx.max_level) == s
        for level in range(ctx.max_level, 0, -1):
            s = s * s / ctx.q_chain[level]
            assert ctx.canonical_scale(level - 1) == s

    def test_primitive_root(self):
        p = generate_primes(64, [25])[0]
        root = primitive_root_of_unity(128, p)
        assert pow(root, 128, p) == 1
        assert pow(root, 64, p) == p - 1


class TestNtt:
    @pytest.fixture(scope="class")
    def plan(self):
        p = generate_primes(64, [25])[0]
        return NttPlan(64, p)

    def test_roundtrip(self, plan):
        rng = np.random.default_rng(0)
        a = rng.integers(0, plan.p, plan.n)
        np.testing.assert_array_equal(plan.inverse(plan.forward(a)), a)

    def test_batch_roundtrip(self, plan):
        rng = np.random.default_rng(1)
        a = rng.integers(0, plan.p, (3, 5, plan.n))
        np.testing.assert_array_equal(plan.inverse(plan.forward(a)), a)

    def test_negacyclic_multiply_matches_naive(self, plan):
        rng = np.random.default_rng(2)
        n, p = plan.n, plan.p
        a = rng.integers(0, p, n)
        b = rng.integers(0, p, n)
        ref = np.zeros(n, dtype=object)
        for i in range(n):
            for j in range(n):
                k, s = i + j, 1
                if k >= n:
                    k, s = k - n, -1
                ref[k] += s * int(a[i]) * int(b[j])
        ref = np.array([int(v) % p for v in ref], dtype=np.int64)
        np.testing.assert_array_equal(plan.negacyclic_multiply(a, b), ref)

    def test_x_times_x_n_minus_1_is_minus_one(self, plan):
        """X * X^(N-1) = X^N = -1 in the negacyclic ring."""
        n, p = plan.n, plan.p
        x = np.zeros(n, dtype=np.int64)
        x[1] = 1
        xn1 = np.zeros(n, dtype=np.int64)
        xn1[n - 1] = 1
        prod = plan.negacyclic_multiply(x, xn1)
        expected = np.zeros(n, dtype=np.int64)
        expected[0] = p - 1
        np.testing.assert_array_equal(prod, expected)

    def test_linearity(self, plan):
        rng = np.random.default_rng(3)
        a = rng.integers(0, plan.p, plan.n)
        b = rng.integers(0, plan.p, plan.n)
        lhs = plan.forward((a + b) % plan.p)
        rhs = (plan.forward(a) + plan.forward(b)) % plan.p
        np.testing.assert_array_equal(lhs, rhs)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            NttPlan(48, 97)


@pytest.fixture(scope="module")
def ctx():
    return CkksContext(CkksParams(n=128, scale_bits=25, depth=3))


class TestRnsPoly:
    """RNS polynomials are ``(limbs, n)`` int64 rows over a basis the
    caller names: the backend's ring ops on them, the decode boundary's
    CRT composition and the coefficient automorphism."""

    def test_add_mul_homomorphism(self, ctx):
        """RNS ops match big-integer ring ops via CRT composition."""
        rng = np.random.default_rng(0)
        chain = list(range(3))
        backend = ctx.backend
        av = rng.integers(-50, 50, ctx.n)
        bv = rng.integers(-50, 50, ctx.n)
        prod = backend.modmul(backend.lift(av, chain), backend.lift(bv, chain), chain)
        big = crt_compose_centered(backend.ntt_inverse(prod, chain), ctx.q_chain[:3])
        # naive negacyclic product of the small inputs
        n = ctx.n
        ref = np.zeros(n, dtype=object)
        for i in range(n):
            for j in range(n):
                k, s = i + j, 1
                if k >= n:
                    k, s = k - n, -1
                ref[k] += s * int(av[i]) * int(bv[j])
        np.testing.assert_array_equal(big.astype(np.int64), ref.astype(np.int64))

    def test_basis_mismatch_rejected(self, ctx):
        """Rows over another number of primes than the basis named are
        refused, on every backend."""
        a = np.zeros((2, ctx.n), dtype=np.int64)
        b = np.zeros((3, ctx.n), dtype=np.int64)
        for name in available_backends():
            with pytest.raises(ValueError):
                resolve_backend(name, ctx).modadd(a, b, [0, 1])

    def test_neg_add_is_zero(self, ctx):
        rng = np.random.default_rng(1)
        backend = ctx.backend
        a = backend.lift(rng.integers(-9, 9, ctx.n), [0, 1])
        z = backend.modadd(a, backend.modneg(a, [0, 1]), [0, 1])
        assert not z.any()

    def test_crt_compose_centered_range(self, ctx):
        rng = np.random.default_rng(2)
        coeffs = rng.integers(-1000, 1000, ctx.n)
        rows = ReferenceBackend(ctx).reduce_coeffs(coeffs, [0, 1, 2])
        np.testing.assert_array_equal(
            crt_compose_centered(rows, ctx.all_primes[:3]).astype(np.int64), coeffs
        )

    def test_fast_base_convert_small_values(self, ctx):
        """For |x| << Q the centred approximate conversion — the spec's
        kernel behind the keyswitch digit lift and the divide-by-P
        descent — is exact or off by ±Q."""
        rng = np.random.default_rng(3)
        coeffs = rng.integers(-1000, 1000, ctx.n)
        spec = ReferenceBackend(ctx)
        a = spec.reduce_coeffs(coeffs, [0, 1])
        target = len(ctx.all_primes) - 1
        p_t = ctx.all_primes[target]
        conv = ctx.base_conversion([0, 1], [target], group_size=2)
        q = int(ctx.all_primes[0]) * int(ctx.all_primes[1])
        allowed = {0, q % p_t, -q % p_t}
        got = spec.base_convert(a, conv)
        assert got.shape == (1, 1, ctx.n)  # one group, one target row
        diff = (got[0, 0] - coeffs) % p_t
        assert set(np.unique(diff)).issubset(allowed)

    def test_automorphism_identity(self, ctx):
        rng = np.random.default_rng(4)
        s = rng.integers(-9, 9, ctx.n)
        np.testing.assert_array_equal(_automorphism_int(s, 1), s)

    def test_automorphism_composition(self, ctx):
        """σ_g ∘ σ_h = σ_{gh mod 2N}."""
        rng = np.random.default_rng(5)
        s = rng.integers(-9, 9, ctx.n)
        g, h = 5, 25
        lhs = _automorphism_int(_automorphism_int(s, g), h)
        rhs = _automorphism_int(s, g * h % (2 * ctx.n))
        np.testing.assert_array_equal(lhs, rhs)


class TestContext:
    def test_chain_structure(self, ctx):
        assert len(ctx.q_chain) == 4  # q0 + 3 scale primes
        assert ctx.max_level == 3
        assert ctx.slots == 64

    def test_paper_grade_matches_seal_config(self):
        params = CkksParams.paper_grade()
        assert params.n == 32768
        # the paper's SEAL setting: 881-bit coefficient modulus (we land
        # within ~1% with 30/28-bit primes under the int64 cap)
        total_bits = (
            params.first_prime_bits
            + params.scale_bits * params.depth
            + params.special_prime_bits * params.alpha
        )
        assert params.alpha == 1  # SEAL's single special prime
        assert abs(total_bits - 881) <= 15

    def test_security_report_flags_toy_params(self):
        from repro.ckks.security import security_report

        toy = CkksContext(CkksParams(n=1024, scale_bits=25, depth=3))
        report = security_report(toy)
        assert not report.secure_128
        assert "NOT" in report.message

    def test_security_report_counts_every_special_prime(self):
        from repro.ckks.security import security_report

        ctx = CkksContext(CkksParams(n=1024, scale_bits=25, depth=5))
        assert len(ctx.special_primes) == ctx.alpha == 2
        want = sum(np.log2(p) for p in ctx.all_primes)  # log2(Q·P), all of P
        assert security_report(ctx).log_qp == pytest.approx(want)

    def test_narrow_special_primes_rejected_when_grouping(self):
        """A grouped digit reaches α·Q_group/2, so P must be as wide as a
        full group: loud at construction, naming both widths."""
        narrow = dict(n=128, scale_bits=25, depth=3, special_prime_bits=27)
        with pytest.raises(ValueError, match=r"special_prime_bits=27.*29 bits"):
            CkksContext(CkksParams(**narrow))
        # one prime per digit (α = 1) needs no such margin
        assert CkksContext(CkksParams(**narrow, dnum=4)).alpha == 1
        with pytest.raises(ValueError, match="dnum"):
            CkksContext(CkksParams(n=128, depth=3, dnum=0))

    def test_security_report_accepts_standard_row(self):
        from repro.ckks.security import MAX_LOGQP_128

        assert MAX_LOGQP_128[32768] == 881  # the paper's exact setting
