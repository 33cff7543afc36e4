"""``ModelArtifact``: the shell ``benchmarks/ladder`` still builds its
serving workload from.

A compiled :class:`~repro.fhe.network.EncryptedNetwork` owns its
plaintexts (:attr:`~repro.fhe.network.EncryptedNetwork.plaintexts`) and
:class:`~repro.serve.server.InferenceServer` serves networks directly;
this shell only names the pieces the ladder reads.  It goes when the
ladder stops importing it.
"""

from __future__ import annotations

from repro.fhe.network import EncryptedNetwork

__all__ = ["ModelArtifact"]


class ModelArtifact:
    """A compiled network plus the names the ladder reads: ``model``,
    ``cache`` (the network's plaintext store, with its ``hits`` /
    ``misses``), :meth:`warm` and :meth:`forward`."""

    def __init__(self, model: EncryptedNetwork):
        self.model = model
        self.cache = model.plaintexts

    def forward(self, ct, ev=None):
        """The network's forward: a shard list in, a shard list out; a
        bare ciphertext in, a bare ciphertext out."""
        if isinstance(ct, (list, tuple)):
            return self.model.forward_shards(ct, ev=ev)
        return self.model.forward(ct, ev=ev)

    def warm(self) -> "ModelArtifact":
        """:meth:`~repro.fhe.network.EncryptedNetwork.warm` the network."""
        self.model.warm()
        return self
