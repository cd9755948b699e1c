"""Gumbel noise and the differentiable discrete-sampling family built on it:
Gumbel-Max categorical draws, the Gumbel-Softmax relaxation, and per-element
Gumbel-Sigmoid gates with a deterministic thresholded inference mode.

Noise tensors are constants to the autodiff tape: gradients flow through the
logits only (the reparameterisation reading).  Fresh noise is drawn on every
forward pass.
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

    def set_state(self, state: dict) -> None:
        self._rng.bit_generator.state = state["bit_generator"]
        self.n_drawn = int(state["n_drawn"])


@dataclass(frozen=True)
class Temperature:
    """Softness of the relaxation; must be positive."""

    value: float

    def __post_init__(self):
        if not self.value > 0:
            raise ConfigError(f"temperature must be > 0, got {self.value}")

    def __float__(self) -> float:
        return float(self.value)


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


def sample_gumbel(src: NoiseSource, shape) -> Tensor:
    """I.i.d. standard Gumbel samples as a constant tensor (no gradient)."""
    return Tensor(src.gumbel(shape))


def gumbel_max(log_pi, src: NoiseSource, n_samples: int | None = None):
    """Categorical sampling: one-hot at argmax(log pi + g).

    Returns a (k,) one-hot array, or (n_samples, k) when n_samples is given.
    Ties break toward the lowest index.
    """
    logits = log_pi.data if isinstance(log_pi, Tensor) else np.asarray(log_pi, dtype=np.float64)
    if logits.ndim != 1 or logits.size < 1:
        raise ConfigError(f"gumbel_max wants a non-empty vector of logits, got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise ValueError("gumbel_max logits must be finite")
    k = logits.size
    n = 1 if n_samples is None else int(n_samples)
    g = src.gumbel((n, k))
    hot = np.zeros((n, k))
    hot[np.arange(n), np.argmax(logits + g, axis=1)] = 1.0
    return hot[0] if n_samples is None else hot


def gumbel_softmax(log_pi: Tensor, tau, src: NoiseSource) -> Tensor:
    """Relaxed one-hot sample(s): softmax((log pi + g) / tau).

    Accepts a (k,) vector or an (n, k) batch; each row gets independent noise
    and comes back on the simplex.  Differentiable in log_pi.
    """
    tau = _check_tau(tau)
    vec = log_pi.data.ndim == 1
    x = ad.reshape(log_pi, (1, log_pi.size)) if vec else log_pi
    noisy = ad.add(x, Tensor(src.gumbel(x.shape)))
    y = ad.softmax_rows(ad.scale(noisy, 1.0 / tau))
    return ad.reshape(y, (log_pi.size,)) if vec else y


def logistic_noise(src: NoiseSource, shape) -> np.ndarray:
    """G' - G'' for two independent Gumbel draws of the given shape."""
    return src.gumbel(shape) - src.gumbel(shape)


def gumbel_sigmoid(e: Tensor, tau, src: NoiseSource | None, mode: GateMode,
                   noise: np.ndarray | None = None) -> Tensor:
    """Per-element binary gates over arbitrary-shape inputs.

    Train mode: sigmoid((e + G' - G'') / tau) with fresh independent noise per
    element, differentiable in e.  The noise G' - G'' is drawn from src, or
    given as ``noise`` when the caller drew it in an order of its own.  Infer
    mode: constant 0/1 tensor, 1 where sigmoid(e) exceeds the threshold.
    """
    tau = _check_tau(tau)
    if mode.is_train:
        if noise is None:
            if src is None:
                raise ConfigError("train-mode gumbel_sigmoid needs a NoiseSource")
            noise = logistic_noise(src, e.shape)
        return ad.sigmoid(ad.scale(ad.add(e, Tensor(noise)), 1.0 / tau))
    probs = 1.0 / (1.0 + np.exp(-np.clip(e.data, -700, 700)))
    return Tensor((probs > mode.threshold).astype(np.float64))
