"""Model surgery: locate and replace non-polynomial operators.

Finds every ReLU / MaxPool2d site in a model **in inference order** (traced
with probe wrappers on a sample forward pass), and swaps sites for
:class:`~repro.core.paf_layer.PAFReLU` / ``PAFMaxPool2d`` — one at a time
(Progressive Approximation) or all at once (the prior-work baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.paf_layer import PAFMaxPool2d, PAFReLU
from repro.nn.layers import MaxPool2d, ReLU
from repro.nn.module import Module
from repro.nn.tensor import Tensor, no_grad
from repro.paf.polynomial import CompositePAF

__all__ = [
    "NonPolySite",
    "find_nonpoly_sites",
    "trace_nonpoly_order",
    "replace_site",
    "replace_all",
    "replace_transformer_nonpoly",
    "replaced_layers",
]


@dataclass
class NonPolySite:
    """One replaceable non-polynomial operator."""

    name: str          # dotted path, e.g. "layer1.0.relu1"
    kind: str          # "relu" | "maxpool"
    parent: Module     # module owning the attribute
    attr: str          # attribute name on the parent
    order: int         # inference order index

    @property
    def module(self) -> Module:
        return getattr(self.parent, self.attr)


def _definition_order_sites(model: Module) -> list:
    sites = []
    for parent_name, parent in model.named_modules():
        for attr, child in list(parent._modules.items()):
            if isinstance(child, ReLU):
                kind = "relu"
            elif isinstance(child, MaxPool2d):
                kind = "maxpool"
            else:
                continue
            name = f"{parent_name}.{attr}" if parent_name else attr
            sites.append(
                NonPolySite(name=name, kind=kind, parent=parent, attr=attr, order=-1)
            )
    return sites


class _Probe(Module):
    """Wraps a site module to record its first execution index."""

    def __init__(self, inner: Module, record: list, tag: int):
        super().__init__()
        self.inner = inner
        self._record = record
        self._tag = tag

    def forward(self, x: Tensor) -> Tensor:
        self._record.append(self._tag)
        return self.inner(x)


def trace_nonpoly_order(model: Module, sample_input: np.ndarray) -> list:
    """Execution order of non-polynomial sites, traced on a real forward.

    Temporarily wraps each site with a probe, runs one forward pass under
    ``no_grad`` and restores the original modules.
    """
    sites = _definition_order_sites(model)
    record: list[int] = []
    for tag, site in enumerate(sites):
        setattr(site.parent, site.attr, _Probe(site.module, record, tag))
    try:
        was_training = model.training
        model.eval()
        with no_grad():
            model(Tensor(np.asarray(sample_input)))
        model.train(was_training)
    finally:
        for site in sites:
            probe = getattr(site.parent, site.attr)
            setattr(site.parent, site.attr, probe.inner)
    if len(set(record)) != len(sites):
        missing = set(range(len(sites))) - set(record)
        raise RuntimeError(
            f"forward pass did not execute all non-polynomial sites: {missing}"
        )
    return [sites[tag] for tag in record]


def find_nonpoly_sites(
    model: Module,
    sample_input: Optional[np.ndarray] = None,
    kinds: Sequence[str] = ("relu", "maxpool"),
) -> list:
    """Non-polynomial sites in inference order.

    With ``sample_input`` the order is traced on a forward pass; otherwise
    module definition order is used (identical for all models in this repo,
    asserted by tests).  ``kinds`` restricts to ReLU-only replacement
    (Tab. 3's "Replace ReLU" block) or the full set.
    """
    if sample_input is not None:
        sites = trace_nonpoly_order(model, sample_input)
    else:
        sites = _definition_order_sites(model)
    sites = [s for s in sites if s.kind in kinds]
    for i, s in enumerate(sites):
        s.order = i
    return sites


def replace_site(site: NonPolySite, paf: CompositePAF, scale_mode: str = "dynamic") -> Module:
    """Swap one site for its PAF layer; returns the new layer."""
    old = site.module
    if isinstance(old, ReLU):
        new: Module = PAFReLU(paf.copy(), scale_mode=scale_mode)
    elif isinstance(old, MaxPool2d):
        new = PAFMaxPool2d(
            paf.copy(),
            kernel_size=old.kernel_size,
            stride=old.stride,
            padding=old.padding,
            scale_mode=scale_mode,
        )
    else:
        raise TypeError(f"site {site.name} already replaced or not non-polynomial")
    new.training = site.parent.training
    setattr(site.parent, site.attr, new)
    return new


def replace_all(
    model: Module,
    paf: CompositePAF,
    sample_input: Optional[np.ndarray] = None,
    kinds: Sequence[str] = ("relu", "maxpool"),
    scale_mode: str = "dynamic",
) -> list:
    """Direct replacement (the prior-work baseline): all sites at once."""
    sites = find_nonpoly_sites(model, sample_input, kinds)
    return [replace_site(s, paf, scale_mode) for s in sites]


def replaced_layers(model: Module) -> list:
    """All PAF layers currently in the model, with their dotted names."""
    return [
        (name, m)
        for name, m in model.named_modules()
        if isinstance(m, (PAFReLU, PAFMaxPool2d))
    ]


def _padded_interval(values: np.ndarray, margin: float) -> tuple:
    """Observed range widened by ``margin`` of its half-width per side."""
    lo, hi = float(np.min(values)), float(np.max(values))
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = max(half * (1.0 + margin), 1e-3)
    return (centre - half, centre + half)


def replace_transformer_nonpoly(
    model: Module,
    sample_input: np.ndarray,
    *,
    margin: float = 0.25,
    exp_degree: int = 3,
    exp_squarings: int = 2,
    gelu_degree: int = 8,
    recip_iters: int = 2,
) -> dict:
    """Profile and swap a transformer's softmax / GELU for dense PAFs.

    Runs ``sample_input`` through the model recording every
    :class:`~repro.nn.layers.Softmax` input (attention scores) and
    :class:`~repro.nn.layers.GELU` input (pre-activations), calibrates
    the PAF domains to the observed ranges padded by ``margin``, then
    replaces the modules with :class:`~repro.core.paf_layer.PAFSoftmax`
    / :class:`~repro.core.paf_layer.PAFGELU` in place.  Returns the new
    modules keyed by dotted site name.
    """
    from repro.core.paf_layer import PAFGELU, PAFSoftmax
    from repro.nn.layers import GELU, Softmax
    from repro.paf.transformer import affine_recip_init, exp_paf, gelu_paf

    sites = []
    for parent_name, parent in model.named_modules():
        for attr, child in list(parent._modules.items()):
            if isinstance(child, (Softmax, GELU)):
                name = f"{parent_name}.{attr}" if parent_name else attr
                sites.append((name, parent, attr, child))
    if not sites:
        raise ValueError("model has no Softmax/GELU sites to replace")

    records: dict = {name: [] for name, *_ in sites}

    class _InputProbe(Module):
        def __init__(self, inner, name):
            super().__init__()
            self.inner = inner
            self._name = name

        def forward(self, x: Tensor) -> Tensor:
            records[self._name].append(np.asarray(x.data, dtype=np.float64))
            return self.inner(x)

    for name, parent, attr, child in sites:
        setattr(parent, attr, _InputProbe(child, name))
    try:
        was_training = model.training
        model.eval()
        with no_grad():
            model(Tensor(np.asarray(sample_input)))
        model.train(was_training)
    finally:
        for name, parent, attr, child in sites:
            setattr(parent, attr, child)

    replaced: dict = {}
    for name, parent, attr, child in sites:
        seen = np.concatenate([r.ravel() for r in records[name]])
        stacked = np.concatenate(records[name], axis=0)
        if isinstance(child, Softmax):
            axis = child.axis
            centred = stacked - stacked.mean(axis=axis, keepdims=True)
            exp = exp_paf(
                _padded_interval(centred, margin), exp_degree, exp_squarings
            )
            sums = exp(centred).sum(axis=axis)
            # the sum is positive by construction (even squaring count);
            # pad multiplicatively so the seed interval stays positive
            init = affine_recip_init(
                (float(sums.min()) / (1.0 + margin), float(sums.max()) * (1.0 + margin))
            )
            new: Module = PAFSoftmax(exp, init, recip_iters, axis=axis)
        else:
            new = PAFGELU(gelu_paf(_padded_interval(seen, margin), gelu_degree))
        new.training = parent.training
        setattr(parent, attr, new)
        replaced[name] = new
    return replaced
