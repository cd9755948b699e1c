"""Gated multi-modal translation models with Gumbel-Sigmoid region selection,
built on a small float64 reverse-mode autodiff core."""

from . import autodiff, attention, bleu, data, gumbel, model, training
from .autodiff import Tensor, Parameter, backward, no_grad, reset_tape
from .gumbel import GateMode, NoiseSource
from .model import AblationFlags, MMTModel, ModelConfig
from .training import TrainConfig, evaluate, train

__version__ = "0.1.0"
