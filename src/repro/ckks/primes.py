"""Prime generation for the RNS-CKKS modulus chain.

All primes satisfy ``p ≡ 1 (mod 2N)`` (so the negacyclic NTT exists) and
``p < 2^30`` (so int64 products of residues never overflow: ``p² < 2^60``).
"""

from __future__ import annotations

__all__ = [
    "is_prime",
    "generate_primes",
    "generate_scale_tracking_primes",
    "primitive_root_of_unity",
]

# Deterministic Miller-Rabin witnesses valid for all n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the 64-bit range."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_primes(n_ring: int, bit_sizes, max_bits: int = 30) -> list:
    """Distinct NTT-friendly primes *nearest* the requested sizes.

    For each requested size ``b`` we search ``p ≡ 1 (mod 2N)`` outward from
    ``2^b`` in both directions and keep the closest untaken prime.  Scale
    primes therefore straddle ``2^b``, so the per-rescale scale drift
    (``Δ²/q vs Δ``) averages out instead of compounding — without this,
    additions of terms that took different prime paths through a deep
    evaluation diverge by several percent.  Raises if a request exceeds
    ``max_bits`` (int64-safety cap).
    """
    step = 2 * n_ring
    taken: set[int] = set()
    out: list[int] = []
    cap = 2**max_bits
    for bits in bit_sizes:
        if bits > max_bits:
            raise ValueError(f"prime size {bits} bits exceeds the {max_bits}-bit cap")
        if 2**bits <= step:
            raise ValueError(f"2^{bits} too small for ring size N={n_ring}")
        base = (2**bits // step) * step + 1
        found = None
        for k in range(1, 2**bits // step):
            for candidate in (base + k * step, base - k * step):
                if not step < candidate < cap:
                    continue
                if candidate not in taken and is_prime(candidate):
                    found = candidate
                    break
            if found is not None:
                break
        if found is None:
            raise RuntimeError(f"no NTT-friendly prime found near 2^{bits}")
        taken.add(found)
        out.append(found)
    return out


def _nearest_ntt_prime(target: float, n_ring: int, taken: set, max_bits: int = 30) -> int:
    """The untaken NTT-friendly prime closest to ``target``."""
    step = 2 * n_ring
    cap = 2**max_bits
    if target <= step:
        raise ValueError(f"target {target:.3g} too small for ring size N={n_ring}")
    base = (int(target) // step) * step + 1
    for k in range(0, int(target) // step):
        for candidate in (base + k * step, base - k * step):
            if not step < candidate < cap:
                continue
            if candidate not in taken and is_prime(candidate):
                return candidate
    raise RuntimeError(f"no NTT-friendly prime found near {target:.3g}")


def generate_scale_tracking_primes(
    n_ring: int,
    scale_bits: int,
    depth: int,
    first_prime_bits: int = 29,
    special_prime_bits: int = 29,
    max_bits: int = 30,
    num_special: int = 1,
) -> list:
    """Chain primes chosen to keep the *canonical scale* pinned at ``Δ``.

    :func:`generate_primes` picks every scale prime nearest ``2^b``, which
    bounds the per-level drift but not its compounding: the canonical
    schedule ``S_{l-1} = S_l² / q_l`` *doubles* the relative deviation
    from ``Δ`` at every rescale (``δ' = 2δ - δ_q``), so a chain deeper
    than ~20 levels collapses the scale double-exponentially — deep
    residual networks decrypt garbage.  This generator instead walks the
    schedule while choosing primes: the prime consumed at level ``l`` is
    the NTT prime nearest ``S_l² / Δ``, which cancels the accumulated
    deviation each step and keeps every canonical scale within one prime
    spacing (``2N / Δ``) of ``Δ`` for *any* depth.

    Returns ``[q_0, q_1, .., q_depth, p_0, .., p_{num_special-1}]`` in
    chain order (the rescale at level ``l`` divides by ``q_l``; fresh
    ciphertexts start at level ``depth``), the keyswitching special
    primes last.
    """
    delta = float(2**scale_bits)
    taken: set[int] = set()
    q0 = _nearest_ntt_prime(2**first_prime_bits, n_ring, taken, max_bits)
    taken.add(q0)
    scale_primes: list[int] = [0] * depth
    s = delta
    for lvl in range(depth, 0, -1):  # consumed top-down: q_depth first
        q = _nearest_ntt_prime(s * s / delta, n_ring, taken, max_bits)
        taken.add(q)
        scale_primes[lvl - 1] = q
        s = s * s / q
    special: list[int] = []
    for _ in range(num_special):
        special.append(_nearest_ntt_prime(2**special_prime_bits, n_ring, taken, max_bits))
        taken.add(special[-1])
    return [q0, *scale_primes, *special]


def primitive_root_of_unity(order: int, p: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``p``.

    Requires ``order | p - 1``.  Found by exponentiating random candidates
    to the cofactor and checking the half-order power.
    """
    if (p - 1) % order != 0:
        raise ValueError(f"{order} does not divide p-1 for p={p}")
    cofactor = (p - 1) // order
    for g in range(2, p):
        root = pow(g, cofactor, p)
        if pow(root, order // 2, p) == p - 1:
            return root
    raise RuntimeError(f"no primitive root of order {order} mod {p}")  # pragma: no cover
