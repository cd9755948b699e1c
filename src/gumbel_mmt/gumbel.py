"""Gumbel-Sigmoid gates: the one discrete relaxation of Gumbel-Attention.

A gate over a score e is sigmoid((e + G' - G'') / tau) in train mode, with
G' and G'' independent Gumbel(0,1) draws, and in infer mode the constant
[e > 0], the gate's noise-free zero-temperature limit.  The noise is a tape
constant, so gradients flow through the scores only (the reparameterisation
reading).  :class:`NoiseSource` draws it, and :func:`gate_noise` alone knows
the order a forward pass's gates draw it in.  A train-mode encode calls it
once per pass, or the split training step calls it once for the whole batch
and hands each half its rows; the attention routine passes the array to
:func:`gumbel_sigmoid`.
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

    def gumbel(self, shape) -> np.ndarray:
        u = np.clip(self._rng.random(size=shape), _U_CLAMP, 1.0 - _U_CLAMP)
        return -np.log(-np.log(u))


def gate_noise(src: NoiseSource, n_heads: int, n_regions: int,
               lengths: np.ndarray | None, t: int) -> np.ndarray:
    """Logistic noise G' - G'' for the gates of one forward pass: (b, H, t, r)
    for a padded batch of t text rows whose text lengths are ``lengths``, or
    (H, t, r) for one sentence of t rows (None).

    Ordered example by example, then head by head, for each example's first
    lengths[i] rows only (padded rows get zeros), with each head's G' block
    before its G'' block, so a batch consumes the stream exactly as encoding
    its examples one at a time does, and a cut of the batch's draw by
    examples gives each part its examples' noise.  All of it is one draw,
    written in C order into the real rows of one (b, H, 2, t, r) array.
    """
    real = np.arange(t) < (np.full(1, t) if lengths is None else lengths)[:, None]
    g = np.zeros((len(real), n_heads, 2, t, n_regions))
    rows = np.broadcast_to(real[:, None, None, :], g.shape[:-1])
    g[rows] = src.gumbel((int(np.count_nonzero(rows)), n_regions))
    noise = g[:, :, 0] - g[:, :, 1]
    return noise if lengths is not None else noise[0]


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
    is the logistic noise G' - G'' of e's shape that :func:`gate_noise` draws.
    Without noise (None): the constant 0/1 tensor [e > 0], the infer gates.
    """
    tau = float(tau)
    if not tau > 0:
        raise ConfigError(f"temperature must be > 0, got {tau}")
    if noise is None:
        return Tensor((e.data > 0).astype(np.float64))
    return ad.sigmoid(ad.scale(ad.add(e, Tensor(noise)), 1.0 / tau))
