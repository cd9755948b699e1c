"""Multi-head attention with a pluggable selection step: the softmax of
scaled dot-product attention, or the per-element Gumbel-Sigmoid gates of the
cross-modal variant.  Scores are always divided by sqrt(d_head).

One routine serves both.  Each of Q, K and V is projected once per block by
one ``linear`` record with a stacked ``(d_in, H * d_head)`` matrix, the heads
are split into a batch axis, ``(..., H, t, d_head)``, and every head attends
through the same batched ops: one ``attention_scores`` primitive gives the
scaled scores q k^T / sqrt(d_head) without copying the keys, the selection
turns them into weights (the softmax applies its mask itself), a batched
``matmul`` sums the values, and the merged heads are projected by wo.

Inputs are one sequence, ``(t, d)``, or a padded batch, ``(b, t, d)``.  In a
batch, masks carry the key padding; a mask is broadcast over the head axis as
a view.

Keys and values come from one source, ``kv``: the sequence itself in
self-attention, else the encoder memory or the image regions.

Incremental decoding passes :func:`multi_head_attention` a :class:`KVCache`
per attention block.  A cache holds plain arrays with no tape history, so it
is valid only under ``autodiff.no_grad``; passing one while the tape records
raises ``ConfigError``.  Training never passes one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ShapeError
from .gumbel import NoiseSource, gumbel_sigmoid


@dataclass
class AttentionWeights:
    """Stacked projections of one attention block: columns
    ``h * d_head : (h + 1) * d_head`` of wq, wk and wv belong to head h.

    wq: (d_in_q, H * d_head), wk and wv: (d_in_kv, H * d_head),
    wo: (H * d_head, d_model).
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    n_heads: int

    @property
    def d_head(self) -> int:
        return self.wq.shape[1] // self.n_heads


def init_attention_weights(rng: np.random.Generator, d_in_q: int, d_in_kv: int,
                           d_model: int, n_heads: int) -> AttentionWeights:
    """Uniform(+-1/sqrt(d_in)) weights, drawn head by head for wq, then wk,
    then wv, then wo, and stacked along the columns."""
    if n_heads < 1 or d_model % n_heads != 0:
        raise ShapeError(f"n_heads={n_heads} must divide d_model={d_model}")
    d_head = d_model // n_heads

    def u(d_in, d_out):
        bound = 1.0 / math.sqrt(d_in)
        return rng.uniform(-bound, bound, size=(d_in, d_out))

    def stacked(d_in):
        return Tensor(np.concatenate([u(d_in, d_head) for _ in range(n_heads)], axis=1),
                      grad=True)

    wq, wk, wv = stacked(d_in_q), stacked(d_in_kv), stacked(d_in_kv)
    return AttentionWeights(wq=wq, wk=wk, wv=wv, wo=Tensor(u(d_model, d_model), grad=True),
                            n_heads=n_heads)


def causal_mask(t: int, start: int = 0) -> np.ndarray:
    """(t, start + t) mask for t query positions that follow start cached ones:
    True where query position start + i would attend to a later key j."""
    return np.arange(start + t)[None, :] > start + np.arange(t)[:, None]


class KVCache:
    """The projected keys and values of one attention block, as two plain
    ``(..., H, n, d_head)`` arrays.

    A self-attention cache (``static=False``) grows by the keys and values of
    the new rows at every call.  A memory cache (``static=True``) projects the
    memory on its first call and reuses that projection afterwards, ignoring
    the ``kv`` it is given then."""

    def __init__(self, static: bool = False):
        self.static = static
        self.k: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def keys_values(self, kv: Tensor, weights: AttentionWeights) -> tuple[Tensor, Tensor]:
        if self.k is None or not self.static:
            kh = _project(kv, weights.wk, weights.n_heads).data
            vh = _project(kv, weights.wv, weights.n_heads).data
            if self.k is None:
                self.k, self.v = kh, vh
            else:
                self.k = np.concatenate([self.k, kh], axis=-2)
                self.v = np.concatenate([self.v, vh], axis=-2)
        return Tensor._adopt(self.k), Tensor._adopt(self.v)


def key_padding_mask(lengths: np.ndarray | None, n_queries: int,
                     n_keys: int) -> np.ndarray | None:
    """(b, n_queries, n_keys) mask, True where a key lies beyond its example's
    length; None for a single sequence or a batch without padding."""
    if lengths is None or bool((lengths == n_keys).all()):
        return None
    pad = np.arange(n_keys) >= lengths[:, None]
    return np.broadcast_to(pad[:, None, :], (len(lengths), n_queries, n_keys))


def _project(x: Tensor, w: Tensor, n_heads: int) -> Tensor:
    """(..., t, d_in) projected by a stacked weight: (..., H, t, d_head)."""
    return ad.split_heads(ad.linear(x, w), n_heads)


def _attend(q: Tensor, kv: Tensor, weights: AttentionWeights,
            select: Callable[[Tensor], Tensor], cache: KVCache | None = None
            ) -> tuple[Tensor, Tensor]:
    """The one multi-head attention routine: project, split the heads, score,
    select, sum the values, merge the heads and project by wo.  ``select``
    maps the (..., H, t, n) scores to the weights of the values; returns the
    output and those weights."""
    if cache is not None and ad.is_recording():
        raise ConfigError("a KV cache is valid only under autodiff.no_grad")
    # q is projected first: the tape order sets the order backward sums the
    # gradients of shared inputs in.
    qh = _project(q, weights.wq, weights.n_heads)
    if cache is None:
        kh = _project(kv, weights.wk, weights.n_heads)
        vh = _project(kv, weights.wv, weights.n_heads)
    else:
        kh, vh = cache.keys_values(kv, weights)
    scores = ad.attention_scores(qh, kh, 1.0 / math.sqrt(weights.d_head))
    selected = select(scores)
    return ad.linear(ad.merge_heads(ad.matmul(selected, vh)), weights.wo), selected


def multi_head_attention(q: Tensor, kv: Tensor, weights: AttentionWeights,
                         mask: np.ndarray | None = None,
                         cache: KVCache | None = None) -> Tensor:
    """Softmax attention of q over the n rows of kv, (..., t, n) mask True
    where a query may not look.  With a cache, the keys and values come from it (see
    :class:`KVCache`), and the mask covers every cached key; a cache is only
    accepted under ``autodiff.no_grad``."""
    def softmax(scores: Tensor) -> Tensor:
        # One mask for every head: a broadcast view over the head axis.
        heads = None if mask is None else np.broadcast_to(mask[..., None, :, :], scores.shape)
        return ad.softmax_rows(scores, heads)

    return _attend(q, kv, weights, softmax, cache)[0]


def _gate_noise(src: NoiseSource, shape: tuple[int, ...],
                lengths: np.ndarray | None = None) -> np.ndarray:
    """Logistic noise for (..., H, t, r) gates.

    Ordered example by example, then head by head, for each example's first
    lengths[i] text rows only (padded rows get zeros), with each head's G'
    block before its G'' block, so a batch consumes the stream exactly as
    encoding its examples one at a time does.  All of it is one draw.
    """
    n_heads, t, r = shape[-3:]
    counts = [t] if lengths is None else [int(n) for n in lengths]
    g = src.gumbel(2 * n_heads * r * sum(counts))
    noise = np.zeros(shape)
    per_example = noise.reshape(len(counts), n_heads, t, r)
    start = 0
    for i, n in enumerate(counts):
        block = g[start:start + 2 * n_heads * n * r].reshape(n_heads, 2, n, r)
        np.subtract(block[:, 0], block[:, 1], out=per_example[i, :, :n])
        start += block.size
    return noise


def multi_head_gumbel_attention(x_text: Tensor, x_image: Tensor, weights: AttentionWeights,
                                tau, src: NoiseSource | None,
                                lengths: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Gated attention of text queries over image regions: each head's
    value is v_i = sum_j alpha_ij (x_j wv), with per-element Gumbel-Sigmoid
    gates alpha in place of the softmax.  Rows are not renormalised, so a
    fully closed row yields a zero vector (total rejection of the image).

    Returns the values and the ``(..., H, t, r)`` gates.  With a NoiseSource
    they are stochastic train-mode gates in (0,1), and each head draws its own
    noise; without one (None) they are the infer gates [score > 0], exactly
    {0,1}.  In a batch, ``lengths`` holds the text lengths, and the gates of
    padded text rows are computed and left unused."""
    def gates(scores: Tensor) -> Tensor:
        noise = None if src is None else _gate_noise(src, scores.shape, lengths)
        return gumbel_sigmoid(scores, tau, noise)

    return _attend(x_text, x_image, weights, gates)
