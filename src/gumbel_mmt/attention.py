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

Greedy decoding calls :func:`attend_rows`, the same softmax attention on plain
arrays with no tape, over keys and values that :func:`project_heads` made."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Array, Tensor
from .errors import ShapeError
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


def _gate_noise(src: NoiseSource, shape: tuple[int, ...],
                lengths: np.ndarray | None = None) -> np.ndarray:
    """Logistic noise for (..., H, t, r) gates.

    Ordered example by example, then head by head, for each example's first
    lengths[i] text rows only (padded rows get zeros), with each head's G'
    block before its G'' block, so a batch consumes the stream exactly as
    encoding its examples one at a time does.  All of it is one draw, written
    in C order into the real rows of one (b, H, 2, t, r) array.
    """
    n_heads, t, r = shape[-3:]
    real = np.arange(t) < (np.full(1, t) if lengths is None else lengths)[:, None]
    g = np.zeros((len(real), n_heads, 2, t, r))
    rows = np.broadcast_to(real[:, None, None, :], g.shape[:-1])
    g[rows] = src.gumbel((int(np.count_nonzero(rows)), r))
    return (g[:, :, 0] - g[:, :, 1]).reshape(shape)


class _DrawnNoise:
    """Gumbel draws already made, handed back by the one :meth:`gumbel`
    call that asks for their shape: a :class:`NoiseSource` for a forward
    pass whose noise was drawn ahead of it."""

    def __init__(self, draws: np.ndarray):
        self._draws = draws

    def gumbel(self, shape) -> np.ndarray:
        if tuple(shape) != self._draws.shape:
            raise ShapeError(f"gate noise of shape {tuple(shape)} asked for, "
                             f"{self._draws.shape} drawn")
        return self._draws


def split_gate_noise(src: NoiseSource, n_heads: int, n_regions: int, lengths: np.ndarray,
                     cut: int) -> tuple[_DrawnNoise, _DrawnNoise]:
    """The gate noise of one forward pass over a padded batch with text
    lengths ``lengths``, drawn from src now, in the order :func:`_gate_noise`
    draws it, and split between examples ``[:cut]`` and ``[cut:]``.  A
    forward pass over either part, given its source, draws each example's
    noise bit for bit as the whole batch's pass does, and src ends where
    that pass leaves it."""
    rows = 2 * n_heads * np.asarray(lengths)    # each head's G' and G'' per text row
    draws = src.gumbel((int(rows.sum()), n_regions))
    first = int(rows[:cut].sum())
    return _DrawnNoise(draws[:first]), _DrawnNoise(draws[first:])


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
