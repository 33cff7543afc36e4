"""Honest security estimation for CKKS parameter sets.

Based on the Homomorphic Encryption Standard tables (Albrecht et al. 2021,
the paper's [Albrecht et al.] reference): the maximum total modulus size
log2(Q·P) per ring degree for 128-bit classical security with ternary
secrets.  The paper's SEAL configuration (N=32768, 881-bit modulus) sits
exactly on this table's 128-bit row.

Small test/benchmark contexts are NOT secure — :func:`security_report`
says so explicitly rather than pretending otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ckks.context import CkksContext

__all__ = ["SecurityReport", "security_report", "MAX_LOGQP_128"]

#: HE-standard maximum log2(QP) for 128-bit security (ternary secret)
MAX_LOGQP_128 = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
}


@dataclass(frozen=True)
class SecurityReport:
    n: int
    log_qp: float
    max_log_qp_128: int | None
    secure_128: bool
    message: str


def security_report(ctx: CkksContext) -> SecurityReport:
    """Classify a context against the HE-standard 128-bit table."""
    # every special prime counts: keyswitch keys live mod Q·P
    log_qp = ctx.modulus_bits() + sum(math.log2(p) for p in ctx.special_primes)
    bound = MAX_LOGQP_128.get(ctx.n)
    if bound is None:
        return SecurityReport(
            ctx.n, log_qp, None, False, f"ring degree {ctx.n} not in the HE standard table"
        )
    secure = log_qp <= bound
    if secure:
        msg = f"log2(QP) = {log_qp:.0f} <= {bound}: meets the 128-bit table row"
    else:
        msg = (
            f"log2(QP) = {log_qp:.0f} > {bound}: NOT 128-bit secure — "
            "toy simulation parameters (fine for latency shape, not deployment)"
        )
    return SecurityReport(ctx.n, log_qp, bound, secure, msg)
