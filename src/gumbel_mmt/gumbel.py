"""Gumbel-Sigmoid gates: the one discrete relaxation of Gumbel-Attention.

A gate over a score e is sigmoid((e + G' - G'') / tau) in train mode, with
G' and G'' independent Gumbel(0,1) draws, and in infer mode the constant
[e > 0], the gate's noise-free zero-temperature limit.  The noise is a tape
constant, so gradients flow through the scores only (the reparameterisation
reading).  :class:`NoiseSource` draws it; the attention routine draws fresh
noise on every forward pass and hands it to :func:`gumbel_sigmoid`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError

# Uniform draws are clamped away from 0 and 1 so the double log stays finite.
_U_CLAMP = 1e-12


class NoiseSource:
    """Seeded generator of Gumbel(0,1) noise.  Same seed, same draw sequence,
    bit for bit.  Single-owner: do not share across threads."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.n_drawn = 0

    def uniform(self, shape) -> np.ndarray:
        u = self._rng.random(size=shape)
        self.n_drawn += u.size
        return np.clip(u, _U_CLAMP, 1.0 - _U_CLAMP)

    def gumbel(self, shape) -> np.ndarray:
        return -np.log(-np.log(self.uniform(shape)))

    def state(self) -> dict:
        return {"bit_generator": self._rng.bit_generator.state, "n_drawn": self.n_drawn}


def _check_tau(tau) -> float:
    tau = float(tau)
    if not tau > 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    return tau


@dataclass(frozen=True)
class GateMode:
    """Stochastic gates during training, deterministic gates [score > 0] at
    inference.  ``MMTModel.encode`` turns the mode into the presence or
    absence of gate noise; nothing below it reads the mode."""

    is_train: bool

    @classmethod
    def train(cls) -> "GateMode":
        return cls(True)

    @classmethod
    def infer(cls) -> "GateMode":
        return cls(False)


def gumbel_sigmoid(e: Tensor, tau, noise: np.ndarray | None) -> Tensor:
    """Per-element binary gates over arbitrary-shape inputs.

    With noise: sigmoid((e + noise) / tau), differentiable in e, where noise
    is the logistic noise G' - G'' of e's shape: the difference of two
    independent :meth:`NoiseSource.gumbel` draws.
    Without noise (None): the constant 0/1 tensor [e > 0], the infer gates.
    """
    tau = _check_tau(tau)
    if noise is None:
        return Tensor((e.data > 0).astype(np.float64))
    return ad.sigmoid(ad.scale(ad.add(e, Tensor(noise)), 1.0 / tau))
