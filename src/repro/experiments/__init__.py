"""One runner per paper table/figure (shared by the CLI and examples).

Each artefact module has ``run_*`` (compute), ``print_*`` (format) and
``check_*`` (the paper-shape checks, ``{name: passed}``);
``python -m repro.experiments`` runs all three.
"""

from repro.experiments.appendix_depth import (
    check_appendix_depth,
    print_appendix_depth,
    run_depth_schedule,
    run_measured_depths,
)
from repro.experiments.common import (
    PAPER_FORMS,
    fresh_model,
    is_quick,
    quick_config,
    resnet_imagenet_baseline,
    scale_mode,
    smallcnn_cifar_baseline,
    vgg_cifar_baseline,
)
from repro.experiments.fig7 import check_fig7, print_fig7, run_fig7
from repro.experiments.fig8 import check_fig8, print_fig8, run_fig8
from repro.experiments.fig9 import check_fig9, print_fig9, run_fig9
from repro.experiments.table2 import PAPER_TABLE2, check_table2, print_table2, run_table2
from repro.experiments.table3 import check_table3, print_table3, run_table3, run_table3_block
from repro.experiments.table4 import (
    check_table4,
    print_table4,
    run_fig1,
    run_latency_table,
    run_table4,
)

__all__ = [
    "PAPER_FORMS",
    "scale_mode",
    "is_quick",
    "resnet_imagenet_baseline",
    "vgg_cifar_baseline",
    "smallcnn_cifar_baseline",
    "fresh_model",
    "quick_config",
    "run_table2",
    "print_table2",
    "check_table2",
    "PAPER_TABLE2",
    "run_fig7",
    "print_fig7",
    "check_fig7",
    "run_fig8",
    "print_fig8",
    "check_fig8",
    "run_fig9",
    "print_fig9",
    "check_fig9",
    "run_table3",
    "run_table3_block",
    "print_table3",
    "check_table3",
    "run_table4",
    "print_table4",
    "check_table4",
    "run_fig1",
    "run_latency_table",
    "run_depth_schedule",
    "run_measured_depths",
    "print_appendix_depth",
    "check_appendix_depth",
]
