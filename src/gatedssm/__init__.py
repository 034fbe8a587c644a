"""Bidirectional gated state-space models for masked language modeling.

A from-scratch, desk-scale implementation: float64 tensors with tape
autodiff, diagonal state-space kernels applied by Toeplitz convolution, the
gated and stacked bidirectional block layouts, an MLM pretraining loop
with offline masking, and analysis tooling (kernel export, FLOP
estimates, causality probes).
"""

__version__ = "0.1.0"
