"""Gumbel-Sigmoid gates: the one discrete relaxation of Gumbel-Attention.

A gate over a score e is sigmoid((e + G' - G'') / tau) in train mode, with
G' and G'' independent Gumbel(0,1) draws, and the constant sigmoid(e) >
threshold in infer mode.  The noise is a constant to the autodiff tape, so
gradients flow through the scores only (the reparameterisation reading).
:class:`NoiseSource` draws it; the attention routine draws fresh noise on
every forward pass and hands it to :func:`gumbel_sigmoid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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


class GateKind(Enum):
    TRAIN = "train"
    INFER = "infer"


@dataclass(frozen=True)
class GateMode:
    """Stochastic gates during training; deterministic thresholding at
    inference (the threshold only applies in infer mode)."""

    kind: GateKind
    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"gate threshold must lie in (0,1), got {self.threshold}")

    @classmethod
    def train(cls) -> "GateMode":
        return cls(GateKind.TRAIN)

    @classmethod
    def infer(cls, threshold: float = 0.5) -> "GateMode":
        return cls(GateKind.INFER, threshold)

    @property
    def is_train(self) -> bool:
        return self.kind is GateKind.TRAIN


def logistic_noise(src: NoiseSource, shape) -> np.ndarray:
    """G' - G'' for two independent Gumbel draws of the given shape."""
    return src.gumbel(shape) - src.gumbel(shape)


def gumbel_sigmoid(e: Tensor, tau, mode: GateMode, noise: np.ndarray | None) -> Tensor:
    """Per-element binary gates over arbitrary-shape inputs.

    Train mode: sigmoid((e + noise) / tau), differentiable in e, where noise
    is the logistic noise G' - G'' of e's shape (see :func:`logistic_noise`).
    Infer mode: constant 0/1 tensor, 1 where sigmoid(e) exceeds the
    threshold; pass None for the noise.
    """
    tau = _check_tau(tau)
    if mode.is_train:
        return ad.sigmoid(ad.scale(ad.add(e, Tensor(noise)), 1.0 / tau))
    return Tensor((ad._sigmoid(e.data) > mode.threshold).astype(np.float64))
