"""SMART-PAF configuration (Tab. 5 hyperparameters + scheduler budgets).

The paper's Tab. 5:

================================  =================
Replaced layer                    ReLU & MaxPooling
Optimizer                         Adam
learning rate for PAF             1e-4
learning rate for other layers    1e-5
Weight decay for PAF              0.01
Weight decay for other layers     0.1
BatchNorm Tracking                False
Dropout                           False (scheduler enables on overfitting)
================================  =================

and Sec. 5.1: E = 20 epochs per training group.  Tests and quick-scale
experiment runs shrink the budgets via the ``quick`` constructor; the values
themselves are the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SmartPAFConfig"]


@dataclass(frozen=True)
class SmartPAFConfig:
    """All knobs of the SMART-PAF pipeline."""

    # --- Tab. 5 training hyperparameters -----------------------------
    optimizer: str = "adam"
    lr_paf: float = 1e-4
    lr_other: float = 1e-5
    weight_decay_paf: float = 0.01
    weight_decay_other: float = 0.1

    # --- scheduler budgets (Sec. 5.1 / Fig. 6) -----------------------
    epochs_per_group: int = 20          # E
    max_groups_per_step: int = 6        # safety cap on the Fig. 6 loop
    overfit_margin: float = 0.10        # "train acc > val acc + 10%"
    dropout_p: float = 0.1              # applied when overfitting detected
    use_swa: bool = True
    batch_size: int = 64

    # --- technique toggles (the Tab. 3 ablation axes) -----------------
    coefficient_tuning: bool = True
    progressive: bool = True            # PA; False = direct replacement
    alternate_training: bool = True     # AT
    #: which parameters the first training group targets: "paf" (Fig. 6's
    #: "tunes PAF[i] coefficients") or "other" (the prior-work baseline of
    #: Sec. 5.3, which trains everything except the PAFs).
    initial_target: str = "paf"
    # Dynamic scaling is always used in fine-tuning (Sec. 4.6); Static
    # Scaling conversion happens at deployment via the pipeline.

    seed: int = 0

    @staticmethod
    def paper() -> "SmartPAFConfig":
        """The exact paper configuration."""
        return SmartPAFConfig()

    @staticmethod
    def quick(
        epochs_per_group: int = 2,
        max_groups_per_step: int = 2,
        batch_size: int = 64,
        seed: int = 0,
        **overrides,
    ) -> "SmartPAFConfig":
        """Reduced budgets for tests and quick-scale experiment runs."""
        return SmartPAFConfig(
            epochs_per_group=epochs_per_group,
            max_groups_per_step=max_groups_per_step,
            batch_size=batch_size,
            seed=seed,
            **overrides,
        )

    def with_techniques(
        self,
        ct: bool | None = None,
        pa: bool | None = None,
        at: bool | None = None,
    ) -> "SmartPAFConfig":
        """Derive an ablation variant (Tab. 3 rows)."""
        kwargs = {}
        if ct is not None:
            kwargs["coefficient_tuning"] = ct
        if pa is not None:
            kwargs["progressive"] = pa
        if at is not None:
            kwargs["alternate_training"] = at
        return replace(self, **kwargs)

    def label(self) -> str:
        """Row label in the Tab. 3 style, e.g. ``baseline + CT + PA + DS``."""
        parts = ["baseline"]
        if self.coefficient_tuning:
            parts.append("CT")
        if self.progressive:
            parts.append("PA")
        if self.alternate_training:
            parts.append("AT")
        parts.append("DS")
        return " + ".join(parts)
