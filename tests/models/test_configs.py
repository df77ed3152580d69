"""Tests for model configuration validation."""

import pytest

from repro.errors import ConfigError
from repro.models.configs import TransformerConfig, ViTConfig


class TestTransformerConfig:
    def test_valid(self):
        cfg = TransformerConfig(num_layers=2, hidden=8, nheads=2, seq_len=16)
        assert cfg.head_dim == 4

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            TransformerConfig(num_layers=1, hidden=10, nheads=3, seq_len=4)

    def test_positive_fields(self):
        with pytest.raises(ConfigError):
            TransformerConfig(num_layers=0, hidden=8, nheads=2, seq_len=4)

    def test_negative_vocab(self):
        with pytest.raises(ConfigError):
            TransformerConfig(num_layers=1, hidden=8, nheads=2, seq_len=4,
                              vocab=-1)


class TestViTConfig:
    def test_valid(self):
        cfg = ViTConfig(image_size=16, patch_size=4, channels=3, hidden=8,
                        nheads=2, num_layers=1, num_classes=10)
        assert cfg.num_patches == 16
        assert cfg.patch_dim == 48

    def test_patch_must_divide_image(self):
        with pytest.raises(ConfigError):
            ViTConfig(image_size=10, patch_size=4, channels=3, hidden=8,
                      nheads=2, num_layers=1, num_classes=10)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            ViTConfig(image_size=8, patch_size=4, channels=3, hidden=9,
                      nheads=2, num_layers=1, num_classes=10)
