"""Hyperparameter manifests for external sequence-to-sequence trainers.

This package prepares data and emits configuration; it does not train.
The manifests capture the transformer-big setup used downstream: 6+6
layers, 1024-dim shared embeddings, 4096 FFN, 16 heads, Adam with
beta1=0.9 / beta2=0.98, warmup from 1e-07 over 4000 steps. Pre-training
runs at peak learning rate 5e-4 with dropout 0.1; fine-tuning overrides
the learning rate to 3e-5 and dropout to 0.2. Batch size and update
counts are intentionally null: they are deployment choices, not part of
the recipe, and inventing values here would be worse than none.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import write_tsv_rows
from .errors import ConfigError

PRETRAIN = "pretrain"
FINETUNE = "finetune"
PHASES = (PRETRAIN, FINETUNE)

_SCHEMA_KEYS = (
    "phase",
    "encoder_layers",
    "decoder_layers",
    "embed_dim",
    "ffn_dim",
    "attention_heads",
    "share_embeddings",
    "adam_beta1",
    "adam_beta2",
    "warmup_init_lr",
    "learning_rate",
    "warmup_steps",
    "dropout",
    "label_smoothing",
    "batch_max_tokens",
    "total_updates",
)


@dataclass(frozen=True)
class TrainConfig:
    phase: str
    encoder_layers: int = 6
    decoder_layers: int = 6
    embed_dim: int = 1024
    ffn_dim: int = 4096
    attention_heads: int = 16
    share_embeddings: bool = True
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    warmup_init_lr: float = 1e-07
    learning_rate: float = 5e-4
    warmup_steps: int = 4000
    dropout: float = 0.1
    label_smoothing: float = 0.1
    batch_max_tokens: int | None = None
    total_updates: int | None = None

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ConfigError(f"unknown phase {self.phase!r}; expected one of {PHASES}")
        if self.phase == PRETRAIN and (self.learning_rate != 5e-4 or self.dropout != 0.1):
            raise ConfigError("pretrain phase requires lr 5e-4 and dropout 0.1")
        if self.phase == FINETUNE and (self.learning_rate != 3e-5 or self.dropout != 0.2):
            raise ConfigError("finetune phase requires lr 3e-5 and dropout 0.2")

    def to_dict(self) -> dict:
        """All schema keys in fixed order, unset values as None."""
        return {key: getattr(self, key) for key in _SCHEMA_KEYS}


def emit(phase: str) -> TrainConfig:
    """The complete manifest for one training phase."""
    if phase == PRETRAIN:
        return TrainConfig(phase=PRETRAIN)
    if phase == FINETUNE:
        return TrainConfig(phase=FINETUNE, learning_rate=3e-5, dropout=0.2)
    raise ConfigError(f"unknown phase {phase!r}; expected one of {PHASES}")


def write_json(config: TrainConfig, path: str | Path) -> None:
    """Serialize with stable key order."""
    write_tsv_rows([json.dumps(config.to_dict(), indent=2, sort_keys=False)], path)
