"""SMART-PAF core: the paper's four techniques + scheduling framework.

* :class:`PAFReLU` / :class:`PAFMaxPool2d` — trainable PAF layers with
  Dynamic/Static Scaling;
* surgery — find/replace non-polynomial sites in inference order;
* Coefficient Tuning, Progressive Approximation, Alternate Training —
  via :class:`SmartPAFScheduler` (Fig. 6);
* :class:`SmartPAF` — the end-to-end pipeline facade.
"""

from repro.core.coefficient_tuning import (
    capture_site_inputs,
    coefficient_tune_site,
    tune_paf_for_site,
)
from repro.core.config import SmartPAFConfig
from repro.core.export import (
    export_coefficients,
    format_appendix_table,
    import_coefficients,
    load_coefficients,
    save_coefficients,
)
from repro.core.paf_layer import PAFMaxPool2d, PAFReLU, PAFSign
from repro.core.pipeline import SmartPAF, SmartPAFResult, pretrain
from repro.core.scaling import (
    calibrate_static_scales,
    convert_to_dynamic,
    convert_to_static,
    scale_summary,
)
from repro.core.scheduler import ScheduleResult, SmartPAFScheduler, run_training_group
from repro.core.surgery import (
    NonPolySite,
    find_nonpoly_sites,
    replace_all,
    replace_site,
    replaced_layers,
    trace_nonpoly_order,
)
from repro.core.trainer import (
    evaluate_accuracy,
    make_optimizer,
    set_trainable,
    split_parameters,
    train_one_epoch,
)

__all__ = [
    "PAFSign",
    "PAFReLU",
    "PAFMaxPool2d",
    "SmartPAFConfig",
    "SmartPAF",
    "SmartPAFResult",
    "pretrain",
    "SmartPAFScheduler",
    "ScheduleResult",
    "run_training_group",
    "NonPolySite",
    "find_nonpoly_sites",
    "trace_nonpoly_order",
    "replace_site",
    "replace_all",
    "replaced_layers",
    "capture_site_inputs",
    "coefficient_tune_site",
    "tune_paf_for_site",
    "calibrate_static_scales",
    "convert_to_static",
    "convert_to_dynamic",
    "scale_summary",
    "split_parameters",
    "make_optimizer",
    "set_trainable",
    "train_one_epoch",
    "evaluate_accuracy",
    "export_coefficients",
    "import_coefficients",
    "save_coefficients",
    "load_coefficients",
    "format_appendix_table",
]
