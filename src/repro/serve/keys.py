"""Per-client key material for multi-tenant serving.

A single :class:`~repro.fhe.network.EncryptedNetwork` bakes in one
implicit key owner: ``keygen`` runs inside compilation and the model's
evaluator encrypts and decrypts under that one chain.  Real serving has
*many* clients, each with their own secret — the server must evaluate
the same compiled model under whichever client's keys a request arrives
with, without ever mixing material between tenants.

:class:`ClientKeyRegistry` owns that mapping:

* one :class:`~repro.ckks.keys.KeyChain` per ``(client, context
  signature)`` — a client serving two models compiled against the *same*
  CKKS parameters (ring degree, prime chain, canonical scale) reuses a
  single chain across both, so its secret/public/relin material is
  generated once;
* **shared Galois-key dedup**: the rotation-key *elements* a model needs
  are read off the model's own baked chain (``model.keys.galois``), and
  only the elements a client's chain is still missing are generated.
  Two models whose BSGS plans overlap (they usually do — the replicate
  step, pool shifts and small baby steps recur) share those families per
  client instead of regenerating them per model.  ``stats()`` reports
  the generated/reused split, which the dedup test pins.

Client seeds are deterministic functions of the client id (overridable
at :meth:`ClientKeyRegistry.register`), so a restarted server re-derives
bit-identical client chains — the property the fault-injection suite
leans on for reproducible key-mismatch scenarios.
"""

from __future__ import annotations

import hashlib
from threading import Lock

from repro.ckks.evaluator import CkksEvaluator
from repro.ckks.keys import KeyChain, keygen

__all__ = [
    "DEFAULT_CLIENT",
    "UnknownClientError",
    "KeyMismatchError",
    "context_signature",
    "client_seed",
    "ClientKeyRegistry",
]

#: The implicit tenant of a single-model server: the model's baked keys.
DEFAULT_CLIENT = "default"


class UnknownClientError(KeyError):
    """A request named a ``client_id`` the registry has never seen."""


class KeyMismatchError(RuntimeError):
    """A batch decrypted to garbage: the submission's claimed client keys
    do not match the material the ciphertexts were encrypted under."""


def context_signature(ctx) -> tuple:
    """Hashable identity of a CKKS context's key-compatibility class.

    Two contexts with equal signatures accept the same key material:
    same ring degree, same full RNS prime ladder (chain + special), same
    canonical scale.  Distinct context *objects* per model are fine —
    what matters for a shared client chain is the arithmetic.
    """
    return (ctx.n, tuple(int(p) for p in ctx.all_primes), float(ctx.scale))


def client_seed(client_id: str) -> int:
    """Deterministic keygen seed for a client id (stable across runs)."""
    digest = hashlib.sha256(client_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:6], "big")


class ClientKeyRegistry:
    """Thread-safe registry of per-client key chains with Galois dedup."""

    def __init__(self):
        self._lock = Lock()
        self._seeds: dict[str, int] = {}
        #: (client_id, context_signature) -> KeyChain
        self._chains: dict[tuple, KeyChain] = {}
        self.galois_generated = 0
        self.galois_reused = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, client_id: str, seed: int | None = None) -> str:
        """Admit a client; its chain materialises lazily on first use.

        Idempotent for a matching seed; re-registering with a different
        seed is rejected (it would silently orphan issued ciphertexts).
        """
        if not client_id:
            raise ValueError("client_id must be a non-empty string")
        seed = client_seed(client_id) if seed is None else int(seed)
        with self._lock:
            known = self._seeds.get(client_id)
            if known is not None and known != seed:
                raise ValueError(
                    f"client {client_id!r} already registered with a different seed"
                )
            self._seeds[client_id] = seed
        return client_id

    @property
    def clients(self) -> list[str]:
        with self._lock:
            return sorted(self._seeds)

    def __contains__(self, client_id: str) -> bool:
        with self._lock:
            return client_id in self._seeds

    # ------------------------------------------------------------------
    # chains and evaluators
    # ------------------------------------------------------------------
    def chain_for(self, client_id: str, model) -> KeyChain:
        """The client's key chain for ``model``'s context, grown to cover
        every Galois element the model's compiled plans rotate by."""
        with self._lock:
            seed = self._seeds.get(client_id)
        if seed is None:
            raise UnknownClientError(
                f"client {client_id!r} is not registered (register_client first)"
            )
        sig = context_signature(model.ctx)
        with self._lock:
            chain = self._chains.get((client_id, sig))
        if chain is None:
            # keygen outside the lock: secret/public/relin for one client
            # must not serialize every other tenant's admission
            chain = keygen(model.ctx, seed=seed)
            with self._lock:
                chain = self._chains.setdefault((client_id, sig), chain)
        self._ensure_elements(chain, model)
        return chain

    def _ensure_elements(self, chain: KeyChain, model) -> None:
        """Grow ``chain`` with the model's Galois elements (dedup'd).

        The required element set is exactly the baked chain's — the
        compiled plans sized it — so dedup works at the element level
        and is independent of which *steps* produced each element.
        """
        needed = sorted(int(g) for g in model.keys.galois)
        with self._lock:
            missing = [g for g in needed if g not in chain.galois]
        # families build eagerly (every level at once); like keygen above
        # that happens outside the lock, and a family's bytes depend only
        # on (client seed, g), so a racing builder's duplicate is
        # identical and setdefault just drops it
        built = {g: chain.galois_family(model.ctx, g) for g in missing}
        with self._lock:
            generated = sum(chain.galois.setdefault(g, fam) is fam for g, fam in built.items())
            self.galois_generated += generated
            self.galois_reused += len(needed) - generated

    def evaluator_for(self, client_id: str, model, seed: int = 1) -> CkksEvaluator:
        """A fresh evaluator over the client's chain and the model's context.

        Shares the model's encoder — the artifact's plaintext memo when
        one is installed — so encoded plaintexts, key-independent by
        construction, are reused across every tenant.
        """
        ev = CkksEvaluator(model.ctx, self.chain_for(client_id, model), seed=seed)
        ev.encoder = model.ev.encoder
        return ev

    def stats(self) -> dict:
        with self._lock:
            return {
                "clients": len(self._seeds),
                "chains": len(self._chains),
                "galois_generated": self.galois_generated,
                "galois_reused": self.galois_reused,
            }
