"""Scaled dot-product / multi-head attention, plus the gated cross-modal
variant where the softmax over image regions is replaced by per-element
Gumbel-Sigmoid selection.  Scores are always divided by sqrt(d_head).

Inputs are one sequence, ``(t, d)``, or a padded batch, ``(b, t, d)``.  In a
batch, masks carry the key padding.

Incremental decoding passes :func:`multi_head_attention` a :class:`KVCache`
per attention block.  A cache holds plain arrays with no tape history, so it
is valid only under ``autodiff.no_grad``; passing one while the tape records
raises ``ConfigError``.  Training never passes one."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .gumbel import GateMode, NoiseSource, gumbel_sigmoid, logistic_noise


@dataclass
class AttentionWeights:
    """Per-head projection triples plus the shared output projection.

    wq[i]: (d_in_q, d_head), wk[i]/wv[i]: (d_in_k, d_head) / (d_in_v, d_head),
    wo: (n_heads * d_head, d_model).
    """

    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    wo: Tensor

    @property
    def n_heads(self) -> int:
        return len(self.wq)

    @property
    def d_head(self) -> int:
        return self.wq[0].shape[1]


def init_attention_weights(rng: np.random.Generator, d_in_q: int, d_in_k: int,
                           d_in_v: int, d_model: int, n_heads: int) -> AttentionWeights:
    if n_heads < 1 or d_model % n_heads != 0:
        raise ShapeError(f"n_heads={n_heads} must divide d_model={d_model}")
    d_head = d_model // n_heads

    def u(d_in, d_out):
        bound = 1.0 / math.sqrt(d_in)
        return Tensor(rng.uniform(-bound, bound, size=(d_in, d_out)), grad=True)

    return AttentionWeights(
        wq=[u(d_in_q, d_head) for _ in range(n_heads)],
        wk=[u(d_in_k, d_head) for _ in range(n_heads)],
        wv=[u(d_in_v, d_head) for _ in range(n_heads)],
        wo=u(n_heads * d_head, d_model),
    )


@dataclass
class GateMatrix:
    """Selection weights per (text position, image region): values in (0,1)
    from stochastic training gates, or exactly {0,1} in infer mode."""

    alpha: Tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.alpha.shape


def causal_mask(t: int, start: int = 0) -> np.ndarray:
    """(t, start + t) mask for t query positions that follow start cached ones:
    True where query position start + i would attend to a later key j."""
    return np.arange(start + t)[None, :] > start + np.arange(t)[:, None]


class KVCache:
    """Each head's projected keys and values of one attention block, as plain
    ``(..., n, d_head)`` arrays.

    A self-attention cache (``static=False``) grows by the keys and values of
    the new rows at every call.  A memory cache (``static=True``) projects the
    memory on its first call and reuses that projection afterwards, ignoring
    the keys and values it is given then."""

    def __init__(self, static: bool = False):
        self.static = static
        self.k: list[np.ndarray] = []
        self.v: list[np.ndarray] = []

    def keys_values(self, head: int, k: Tensor, v: Tensor, wk: Tensor, wv: Tensor
                    ) -> tuple[Tensor, Tensor]:
        if head == len(self.k):
            self.k.append(ad.matmul(k, wk).data)
            self.v.append(ad.matmul(v, wv).data)
        elif not self.static:
            self.k[head] = np.concatenate([self.k[head], ad.matmul(k, wk).data], axis=-2)
            self.v[head] = np.concatenate([self.v[head], ad.matmul(v, wv).data], axis=-2)
        return Tensor._adopt(self.k[head]), Tensor._adopt(self.v[head])


def key_padding_mask(lengths: np.ndarray | None, n_queries: int,
                     n_keys: int) -> np.ndarray | None:
    """(b, n_queries, n_keys) mask, True where a key lies beyond its example's
    length; None for a single sequence or a batch without padding."""
    if lengths is None or bool((lengths == n_keys).all()):
        return None
    pad = np.arange(n_keys) >= lengths[:, None]
    return np.broadcast_to(pad[:, None, :], (len(lengths), n_queries, n_keys))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: np.ndarray | None = None) -> Tensor:
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"query/key width mismatch: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value count mismatch: {k.shape} vs {v.shape}")
    scores = ad.scale(ad.matmul(q, ad.transpose2d(k)), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = ad.mask_fill(scores, mask, -np.inf)
    return ad.matmul(ad.softmax_rows(scores), v)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, weights: AttentionWeights,
                         mask: np.ndarray | None = None,
                         cache: KVCache | None = None) -> Tensor:
    """Concatenated per-head attention, projected by wo.  With a cache, the
    keys and values come from it (see :class:`KVCache`), and the mask covers
    every cached key; a cache is only accepted under ``autodiff.no_grad``."""
    if cache is not None and ad.is_recording():
        raise ConfigError("a KV cache is valid only under autodiff.no_grad")
    heads = []
    for h, (wq, wk, wv) in enumerate(zip(weights.wq, weights.wk, weights.wv)):
        # q is projected first: the tape order sets the order backward sums
        # the gradients of shared inputs in.
        qh = ad.matmul(q, wq)
        if cache is None:
            kh, vh = ad.matmul(k, wk), ad.matmul(v, wv)
        else:
            kh, vh = cache.keys_values(h, k, v, wk, wv)
        heads.append(scaled_dot_attention(qh, kh, vh, mask))
    return ad.matmul(ad.concat_cols(heads), weights.wo)


def cross_scores(x_text: Tensor, x_image: Tensor, wq: Tensor, wk: Tensor) -> Tensor:
    """Pre-gate score matrix (t, r): (x_text wq)(x_image wk)^T / sqrt(d_head)."""
    q = ad.matmul(x_text, wq)
    k = ad.matmul(x_image, wk)
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"projection widths disagree: {q.shape} vs {k.shape}")
    return ad.scale(ad.matmul(q, ad.transpose2d(k)), 1.0 / math.sqrt(q.shape[-1]))


def gumbel_scores(x_text: Tensor, x_image: Tensor, wq: Tensor, wk: Tensor,
                  tau, src: NoiseSource | None, mode: GateMode,
                  noise: np.ndarray | None = None) -> GateMatrix:
    """Per-element selection gates over the cross-modal score matrix."""
    return GateMatrix(gumbel_sigmoid(cross_scores(x_text, x_image, wq, wk), tau, src, mode,
                                     noise))


def image_aware_representation(alpha: GateMatrix, x_image: Tensor, wv: Tensor) -> Tensor:
    """Gated sum of projected regions: v_i = sum_j alpha_ij (x_j wv).

    The gates are used as-is; rows are not renormalised, so a fully closed
    row yields a zero vector (total rejection of the image).
    """
    if alpha.shape[-1] != x_image.shape[-2]:
        raise ShapeError(f"gate columns {alpha.shape} vs regions {x_image.shape}")
    return ad.matmul(alpha.alpha, ad.matmul(x_image, wv))


def _gate_noise(src: NoiseSource, n_heads: int, shape: tuple[int, ...],
                lengths: np.ndarray | None = None) -> np.ndarray:
    """Logistic noise for every head's (..., t, r) gates: (n_heads, *shape).

    Drawn example by example, then head by head, for each example's first
    lengths[i] text rows only (padded rows get zeros), so a batch consumes
    the stream exactly as encoding its examples one at a time does.
    """
    t, r = shape[-2:]
    noise = np.zeros((n_heads,) + tuple(shape))
    per_example = noise.reshape(n_heads, -1, t, r)
    for i, n in enumerate([t] if lengths is None else lengths):
        for h in range(n_heads):
            per_example[h, i, :n] = logistic_noise(src, (int(n), r))
    return noise


def multi_head_gumbel_attention(x_text: Tensor, x_image: Tensor, weights: AttentionWeights,
                                tau, src: NoiseSource | None, mode: GateMode,
                                gates_out: list[GateMatrix] | None = None,
                                lengths: np.ndarray | None = None) -> Tensor:
    """Concatenated per-head gated attention, projected by wo.  Each head
    draws its own noise; in a batch, ``lengths`` holds the text lengths, and
    the gates of padded text rows are computed and left unused.  Pass
    gates_out to collect the per-head gates."""
    noise = [None] * weights.n_heads
    if mode.is_train and src is not None:
        noise = _gate_noise(src, weights.n_heads, x_text.shape[:-1] + x_image.shape[-2:-1],
                            lengths)
    heads = []
    for wq, wk, wv, nz in zip(weights.wq, weights.wk, weights.wv, noise):
        alpha = gumbel_scores(x_text, x_image, wq, wk, tau, src, mode, nz)
        if gates_out is not None:
            gates_out.append(alpha)
        heads.append(image_aware_representation(alpha, x_image, wv))
    return ad.matmul(ad.concat_cols(heads), weights.wo)
