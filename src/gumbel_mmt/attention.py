"""Multi-head attention with a pluggable selection step: the softmax of
scaled dot-product attention, or the per-element Gumbel-Sigmoid gates of the
cross-modal variant.  Scores are always divided by sqrt(d_head).

One routine serves both.  Q comes from the queries, and K and V from one
source, ``kv``: the sequence itself in self-attention, else the encoder
memory or the image regions.  Each is projected once per block by one
``linear`` record with a stacked ``(d_in, H * d_head)`` matrix, the heads are
split into a batch axis, ``(..., H, t, d_head)``, and every head attends
through the same batched ops: one ``attention_scores`` primitive gives the
scaled scores q k^T / sqrt(d_head) without copying the keys, the selection
turns them into weights (the softmax applies its mask itself), a batched
``matmul`` sums the values, and the merged heads are projected by wo.

Inputs are one sequence, ``(t, d)``, or a padded batch, ``(b, t, d)``.  A
mask is a boolean, True where a query may not look, that broadcasts against
the ``(..., H, t, n)`` scores: the ``(t, t)`` causal mask, or a batch's
``(b, 1, 1, n)`` key padding, which serves every head and query as it is.

The Gumbel selection draws nothing: its caller hands it the gate noise that
:func:`gumbel.gate_noise` drew, or None for the infer gates.

Greedy decoding calls :func:`attend_rows`, the same softmax attention on plain
arrays with no tape, over keys and values that :func:`project_heads` made."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor
from .gumbel import gumbel_sigmoid


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


def causal_mask(t: int) -> np.ndarray:
    """(t, t) mask, True where query position i would attend to a later key j."""
    return np.arange(t)[None, :] > np.arange(t)[:, None]


def key_padding_mask(lengths: np.ndarray | None, n_keys: int) -> np.ndarray | None:
    """(b, 1, 1, n_keys) mask, True where a key lies beyond its example's
    length; None for a single sequence or a batch without padding."""
    if lengths is None or bool((lengths == n_keys).all()):
        return None
    return (np.arange(n_keys) >= lengths[:, None])[:, None, None, :]


def _attend(q: Tensor, kv: Tensor, weights: AttentionWeights,
            select: Callable[[Tensor], Tensor]) -> tuple[Tensor, Tensor]:
    """The one multi-head attention routine: project, split the heads, score,
    select, sum the values, merge the heads and project by wo.  ``select``
    maps the (..., H, t, n) scores to the weights of the values; returns the
    output and those weights."""
    # q is projected first: the tape order sets the order backward sums the
    # gradients of shared inputs in.
    qh = ad.split_heads(ad.linear(q, weights.wq), weights.n_heads)
    kh = ad.split_heads(ad.linear(kv, weights.wk), weights.n_heads)
    vh = ad.split_heads(ad.linear(kv, weights.wv), weights.n_heads)
    scores = ad.attention_scores(qh, kh, 1.0 / math.sqrt(weights.d_head))
    selected = select(scores)
    return ad.linear(ad.merge_heads(ad.matmul(selected, vh)), weights.wo), selected


def multi_head_attention(q: Tensor, kv: Tensor, weights: AttentionWeights,
                         mask: np.ndarray | None = None) -> Tensor:
    """Softmax attention of q over the n rows of kv; the mask broadcasts
    against the (..., H, t, n) scores."""
    return _attend(q, kv, weights, lambda scores: ad.softmax_rows(scores, mask))[0]


def project_heads(x: Array, w: Tensor, n_heads: int) -> Array:
    """``split_heads(linear(x, w))`` of plain (..., t, d_in) rows, as a C-ordered array."""
    y = ad.affine(x, w.data)
    return np.ascontiguousarray(y.reshape(y.shape[:-1] + (n_heads, -1)).swapaxes(-2, -3))


def attend_rows(x: Array, k: Array, v: Array, weights: AttentionWeights,
                mask: np.ndarray | None = None) -> Array:
    """:func:`multi_head_attention` on plain arrays: (..., t, d) query rows over
    projected (..., H, n, d_head) keys and values; the mask broadcasts to the scores."""
    scores = ad.scaled_scores(project_heads(x, weights.wq, weights.n_heads), k,
                              1.0 / math.sqrt(weights.d_head))
    heads = ad.masked_softmax(scores, mask) @ v
    return ad.affine(heads.swapaxes(-2, -3).reshape(x.shape[:-1] + (-1,)), weights.wo.data)


def multi_head_gumbel_attention(x_text: Tensor, x_image: Tensor, weights: AttentionWeights,
                                tau, noise: np.ndarray | None) -> tuple[Tensor, Tensor]:
    """Gated attention of text queries over image regions: each head's
    value is v_i = sum_j alpha_ij (x_j wv), with per-element Gumbel-Sigmoid
    gates alpha in place of the softmax.  Rows are not renormalised, so a
    fully closed row yields a zero vector (total rejection of the image).

    Returns the values and the ``(..., H, t, r)`` gates.  With noise, the
    ``(..., H, t, r)`` logistic noise of :func:`gumbel.gate_noise`, they are
    stochastic train-mode gates in (0,1); without it (None) they are the
    infer gates [score > 0], exactly {0,1}.  In a padded batch, the gates of
    padded text rows are computed and left unused."""
    return _attend(x_text, x_image, weights, lambda scores: gumbel_sigmoid(scores, tau, noise))
