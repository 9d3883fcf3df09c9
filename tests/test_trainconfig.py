import json

import pytest

from bitextpipe.errors import ConfigError
from bitextpipe.trainconfig import (
    FINETUNE,
    PRETRAIN,
    TrainConfig,
    emit,
    write_json,
)

PRETRAIN_EXPECTED = {
    "phase": "pretrain",
    "encoder_layers": 6,
    "decoder_layers": 6,
    "embed_dim": 1024,
    "ffn_dim": 4096,
    "attention_heads": 16,
    "share_embeddings": True,
    "adam_beta1": 0.9,
    "adam_beta2": 0.98,
    "warmup_init_lr": 1e-07,
    "learning_rate": 5e-4,
    "warmup_steps": 4000,
    "dropout": 0.1,
    "label_smoothing": 0.1,
    "batch_max_tokens": None,
    "total_updates": None,
}


def test_pretrain_fields():
    config = emit(PRETRAIN)
    assert config.ffn_dim == 4096
    assert config.to_dict() == PRETRAIN_EXPECTED


def test_finetune_overrides_lr_and_dropout_only():
    config = emit(FINETUNE)
    assert config.learning_rate == 3e-5
    assert config.dropout == 0.2
    expected = dict(PRETRAIN_EXPECTED, phase="finetune", learning_rate=3e-5, dropout=0.2)
    assert config.to_dict() == expected


def test_emit_is_deterministic():
    assert emit(PRETRAIN) == emit(PRETRAIN)
    assert emit(FINETUNE) == emit(FINETUNE)


def test_unknown_phase():
    with pytest.raises(ConfigError):
        emit("warmup")


def test_phase_invariants_enforced():
    with pytest.raises(ConfigError):
        TrainConfig(phase=PRETRAIN, learning_rate=1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(phase=PRETRAIN, dropout=0.2)
    with pytest.raises(ConfigError):
        TrainConfig(phase=FINETUNE, learning_rate=5e-4, dropout=0.2)


def test_json_stable_key_order_and_nulls(tmp_path):
    path = tmp_path / "config.json"
    write_json(emit(PRETRAIN), path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert list(data.keys()) == list(PRETRAIN_EXPECTED.keys())
    assert data["batch_max_tokens"] is None
    assert data["total_updates"] is None
    # byte-identical re-emission
    first = path.read_bytes()
    write_json(emit(PRETRAIN), path)
    assert path.read_bytes() == first
