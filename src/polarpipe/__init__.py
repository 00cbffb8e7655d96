"""Imbalanced multi-label text classification, end to end and deterministic.

Preprocess social-media text, split with per-label stratification, train a
class-weighted linear classifier over hashed n-grams, tune per-label
decision thresholds in two stages, and score with macro/micro F1. Every
stage is seeded and file-based; the `polarpipe` executable chains them.
The submodules are the Python API; this package root loads none of them.
"""

from ._kernels import active_backend

__version__ = "0.1.0"
