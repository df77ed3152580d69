"""Tesseract (2.5-D) tensor parallelism (§3.2 of the paper): its linear,
its LayerNorm and its layout."""

from repro.parallel.tesseract.layers import (
    TesseractLayerNorm,
    TesseractLayout,
    TesseractLinear,
    local_block_a,
)

__all__ = [
    "TesseractLinear",
    "TesseractLayerNorm",
    "TesseractLayout",
    "local_block_a",
]
