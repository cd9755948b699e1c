"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation appends a record to a module-global tape, a plain list
emptied by :func:`reset_tape` before each forward pass.  :func:`backward`
walks the tape in reverse recording order and accumulates gradients into
every tensor that has a gradient buffer allocated; calling it twice without
zeroing doubles the gradients.  All data is float64 and row-major; there is
no broadcasting beyond the few fixed patterns the ops below implement.

The primitives, each with an analytic backward: linear, matmul,
attention_scores, add, mul, scale, add_scalar, relu, sigmoid, softplus,
softmax_rows (optionally masked), residual_layer_norm, cross_entropy,
cosine_similarity, split_heads, merge_heads, embedding_lookup, reduce_sum,
reduce_mean and mean_pool.

Leading batch dimensions: the row-wise ops (linear, matmul, attention_scores,
softmax_rows, residual_layer_norm, cross_entropy, cosine_similarity,
embedding_lookup, split_heads, merge_heads, mean_pool) act on the last one or
two axes and treat any axes before them as a batch, so one sentence is a
``(t, d)`` tensor and a padded batch of sentences a ``(b, t, d)`` tensor run
through the same ops.  Multi-head attention adds a head axis,
``(..., H, t, d_head)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError

Array = np.ndarray


class Tensor:
    """A dense float64 value and an optional gradient buffer of the same
    shape.  The shape is fixed at construction.  Only the tape refers to the
    record that produced a tensor, so clearing the tape frees a step's
    activations without waiting for the cycle collector."""

    __slots__ = ("data", "grad")

    def __init__(self, data, *, grad: bool = False):
        self.data: Array = np.array(data, dtype=np.float64, order="C")
        # np.zeros takes zeroed memory from the allocator, where zeros_like
        # writes every page: a large buffer's fresh pages stay untouched until
        # a gradient is written, so a model that only infers never faults
        # its gradient memory in.
        self.grad: Array | None = np.zeros(self.data.shape) if grad else None

    @classmethod
    def _adopt(cls, data: Array) -> "Tensor":
        """Wrap an array without copying it.  Only for the fresh float64
        C-ordered arrays the ops below allocate; caller-supplied data goes
        through the constructor, which copies."""
        t = cls.__new__(cls)
        t.data, t.grad = data, None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def alloc_grad(self) -> "Tensor":
        if self.grad is None:
            self.grad = np.zeros(self.data.shape)
        return self

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={'yes' if self.grad is not None else 'no'})"


class Parameter(NamedTuple):
    """A named trainable tensor; the gradient buffer is always allocated."""

    name: str
    tensor: Tensor


def check_unique_names(params: Sequence[Parameter]) -> None:
    seen: dict[str, int] = {}
    for p in params:
        if p.name in seen:
            raise ConfigError(f"duplicate parameter name: {p.name!r}")
        seen[p.name] = 1


class Record(NamedTuple):
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[Array], tuple[Array | None, ...]]


# Ordered log of operations; the inputs of each record were recorded before it,
# so reverse iteration is a valid backward order.
_tape: list[Record] = []
_grad_enabled = [True]


def reset_tape() -> None:
    _tape.clear()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / decoding)."""
    _grad_enabled.append(False)
    try:
        yield
    finally:
        _grad_enabled.pop()


def is_recording() -> bool:
    """True unless inside a no_grad block."""
    return _grad_enabled[-1]


def _emit(inputs: tuple[Tensor, ...], out_data: Array,
          backward: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    out = Tensor._adopt(out_data)
    if _grad_enabled[-1]:
        _tape.append(Record(inputs, out, backward))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every tensor on the active
    tape whose gradient buffer is allocated.  Adjoints are recomputed from
    scratch on every call, so repeated calls sum exactly."""
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    adjoint: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    for rec in reversed(_tape):
        # Every use of a record's output was recorded after it, so its
        # adjoint is complete here and can be freed once it is used.
        out_adj = adjoint.pop(rec.output, None)
        if out_adj is None:
            continue
        if rec.output.grad is not None:
            rec.output.grad += out_adj.reshape(rec.output.grad.shape)
        for t, g in zip(rec.inputs, rec.backward(out_adj)):
            if g is None:
                continue
            acc = adjoint.get(t)
            adjoint[t] = g if acc is None else acc + g
    # What is left are the adjoints of leaves.
    for t, g in adjoint.items():
        if t.grad is not None:
            t.grad += g.reshape(t.grad.shape)


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.tensor.zero_grad()


# ---------------------------------------------------------------------------
# primitives


def _require(cond: bool, msg: Callable[[], str]) -> None:
    # The message is built only on failure: formatting shapes on every call
    # would cost a sizeable share of a small op.
    if not cond:
        raise ShapeError(msg())


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``(..., n, k) @ (..., k, m)`` multiplies matching leading indices, such
    as attention weights and values.  A weight shared by every leading index
    goes through :func:`linear`."""
    _require(a.data.ndim >= 2 and b.data.ndim >= 2 and a.shape[:-2] == b.shape[:-2]
             and a.shape[-1] == b.shape[-2],
             lambda: f"matmul shapes disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return _emit((a, b), ad @ bd,
                 lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``(..., n, k) @ (k, m)``, plus a ``(m,)`` bias if one is given: one
    matrix applied to every leading index."""
    _require(x.data.ndim >= 2 and w.data.ndim == 2 and x.shape[-1] == w.shape[0]
             and (b is None or b.shape == w.shape[1:]),
             lambda: f"linear shapes disagree: {x.shape} x {w.shape}"
                     + ("" if b is None else f" + {b.shape}"))
    xd, wd = x.data, w.data
    k, m = wd.shape
    # Fold the leading axes into rows: one 2-d product, and the weight and
    # bias gradients sum over every row of the batch.
    rows = xd.reshape(-1, k)
    y = (rows @ wd).reshape(xd.shape[:-1] + (m,))
    if b is not None:
        y += b.data

    def back(g: Array):
        g2 = g.reshape(-1, m)
        grads = ((g2 @ wd.T).reshape(xd.shape), rows.T @ g2)
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _emit((x, w) if b is None else (x, w, b), y, back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, lambda: f"add shapes differ: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data + b.data, lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, lambda: f"mul shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit((a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit((x,), x.data * c, lambda g: (g * c,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit((x,), x.data + c, lambda g: (g,))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN passes through."""
    y = np.maximum(x.data, 0.0)
    return _emit((x,), y, lambda g: (g * (y > 0),))


def _sigmoid(x: Array) -> Array:
    # exp(min(x, 0)) / (1 + exp(-|x|)) is 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below: stable in both tails, bit for bit the
    # two-branch form, without indexing either branch out.
    # Written in place; the out= arrays keep a 0-d input a 0-d array.
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(out, out=out)
    out /= den
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _emit((x,), y, lambda g: (g * y * (1.0 - y),))


def softplus(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    s = _sigmoid(x.data)
    return _emit((x,), y, lambda g: (g * s,))


def softmax_rows(x: Tensor, mask: Array | None = None) -> Tensor:
    """Softmax over the last axis.  Entries where the constant mask is True
    get weight 0 and no gradient; the mask has x's full shape, and a
    broadcast view of a smaller one will do."""
    _require(x.data.ndim >= 2 and x.shape[-1] >= 1,
             lambda: f"softmax_rows needs non-empty rows of a 2-d or batched tensor, "
                     f"got {x.shape}")
    xd = x.data
    if mask is not None:
        _require(mask.shape == x.shape, lambda: f"mask shape {mask.shape} != {x.shape}")
        xd = np.where(mask, -np.inf, xd)
    z = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g: Array):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit((x,), y, back)


def residual_layer_norm(x: Tensor, h: Tensor, gain: Tensor, bias: Tensor,
                        eps: float = 1e-5) -> Tensor:
    """Normalise the residual sum ``x + h`` over the last axis, then scale and
    shift it: the post-norm step LayerNorm(x + sublayer(x))."""
    _require(x.data.ndim >= 2 and x.shape == h.shape,
             lambda: f"residual_layer_norm expects matching 2-d or batched inputs, "
                     f"got {x.shape} and {h.shape}")
    d = x.shape[-1]
    _require(d != 0, lambda: "residual_layer_norm over zero-width rows")
    _require(gain.shape == (d,) and bias.shape == (d,),
             lambda: f"residual_layer_norm affine shapes {gain.shape}/{bias.shape} != ({d},)")
    s = x.data + h.data
    # sum / d is what ndarray.mean computes, without its Python-level overhead.
    mu = s.sum(axis=-1, keepdims=True) / d
    xc = s - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gd = gain.data

    def back(g: Array):
        dxhat = g * gd
        dx = inv * (dxhat
                    - dxhat.sum(axis=-1, keepdims=True) / d
                    - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        # One array for both summands: backward never writes into an adjoint.
        return dx, dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _emit((x, h, gain, bias), xhat * gd + bias.data, back)


def cross_entropy(logits: Tensor, targets, pad_id: int = 0, weights=None) -> Tensor:
    """Negative log-softmax probability of the target ids over the last axis,
    skipping positions whose target equals pad_id.  Without weights it is the
    mean over the other positions; with constant weights of the targets'
    shape it is their weighted sum."""
    _require(logits.data.ndim >= 2,
             lambda: f"cross_entropy logits must be 2-d or batched, got {logits.shape}")
    ids = np.asarray(targets, dtype=np.int64)
    _require(ids.shape == logits.shape[:-1],
             lambda: f"cross_entropy targets shape {ids.shape} vs logits {logits.shape}")
    v = logits.shape[-1]
    ids = ids.reshape(-1)
    t = ids.shape[0]
    live = ids != pad_id
    bad = live & ((ids < 0) | (ids >= v))
    if bad.any():
        raise DataError(f"target id {ids[bad][0]} out of range [0, {v})")
    n_live = int(live.sum())
    if n_live == 0:
        return _emit((logits,), np.zeros(()), lambda g: (np.zeros(logits.shape),))
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        _require(w.shape == logits.shape[:-1],
                 lambda: f"cross_entropy weights shape {w.shape} vs logits {logits.shape}")
        w = w.reshape(-1)[live]
    x = logits.data.reshape(t, v)
    z = x - x.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - logsumexp
    rows = np.arange(t)[live]
    picked = logp[rows, ids[live]]
    loss = -picked.sum() / n_live if weights is None else -(picked * w).sum()

    def back(g: Array):
        dz = np.exp(logp)
        dz[rows, ids[live]] -= 1.0
        dz[~live] = 0.0
        if weights is None:
            dz *= float(g) / n_live
        else:
            dz[live] *= float(g) * w[:, None]
        return (dz.reshape(logits.shape),)

    return _emit((logits,), np.asarray(loss), back)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine of matching vectors along the last axis: (..., d) -> (...)."""
    _require(a.data.ndim >= 1 and a.shape == b.shape,
             lambda: f"cosine_similarity needs matching vectors, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    s = (ad * bd).sum(axis=-1)
    na = np.sqrt((ad * ad).sum(axis=-1))
    nb = np.sqrt((bd * bd).sum(axis=-1))
    denom = na * nb + eps
    c = s / denom

    def back(g: Array):
        gc = (g / denom)[..., None]
        ratio = (s / denom)[..., None]
        # Norm derivatives are guarded so a zero vector yields zero gradient
        # rather than NaN; the value itself is already eps-guarded.
        ua = ad / np.maximum(na, 1e-30)[..., None]
        ub = bd / np.maximum(nb, 1e-30)[..., None]
        da = gc * (bd - ratio * nb[..., None] * ua)
        db = gc * (ad - ratio * na[..., None] * ub)
        return da, db

    return _emit((a, b), np.asarray(c), back)


def attention_scores(q: Tensor, k: Tensor, c: float) -> Tensor:
    """``c * q @ k^T`` over the last two axes: ``(..., t, d)`` queries and
    ``(..., n, d)`` keys with the same leading axes give ``(..., t, n)``.
    The keys are read through a transposed view, never copied."""
    _require(q.data.ndim >= 2 and q.shape[:-2] == k.shape[:-2] and q.shape[-1] == k.shape[-1],
             lambda: f"attention_scores shapes disagree: {q.shape} x {k.shape}")
    c = float(c)
    qd, kd = q.data, k.data
    s = qd @ kd.swapaxes(-1, -2)
    s *= c

    def back(g: Array):
        gc = g * c
        return gc @ kd, gc.swapaxes(-1, -2) @ qd

    return _emit((q, k), s, back)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """``(..., t, n_heads * d)`` to ``(..., n_heads, t, d)``: column block h
    of every row becomes head h's row, so the heads form a batch axis."""
    _require(x.data.ndim >= 2 and n_heads >= 1 and x.shape[-1] % n_heads == 0,
             lambda: f"split_heads of {x.shape} into {n_heads} heads")
    *lead, t, width = x.shape
    split = x.data.reshape(*lead, t, n_heads, width // n_heads)
    return _emit((x,), split.swapaxes(-2, -3).copy(),
                 lambda g: (g.swapaxes(-2, -3).reshape(x.shape),))


def merge_heads(x: Tensor) -> Tensor:
    """``(..., n_heads, t, d)`` to ``(..., t, n_heads * d)``, the inverse of
    :func:`split_heads`."""
    _require(x.data.ndim >= 3, lambda: f"merge_heads on shape {x.shape}")
    *lead, n_heads, t, d = x.shape
    merged = x.data.swapaxes(-2, -3).copy().reshape(*lead, t, n_heads * d)
    return _emit((x,), merged,
                 lambda g: (g.reshape(*lead, t, n_heads, d).swapaxes(-2, -3),))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of the table: ids of any shape s give an (*s, d) tensor."""
    _require(table.data.ndim == 2, lambda: f"embedding table must be 2-d, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    n = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DataError(f"token id {idx[(idx < 0) | (idx >= n)][0]} out of range [0, {n})")

    def back(g: Array):
        dt = np.zeros_like(table.data)
        np.add.at(dt, idx, g)
        return (dt,)

    # Integer-array indexing allocates a new array.
    return _emit((table,), table.data[idx], back)


def reduce_sum(x: Tensor) -> Tensor:
    return _emit((x,), np.asarray(x.data.sum()),
                 lambda g: (np.full_like(x.data, float(g)),))


def reduce_mean(x: Tensor) -> Tensor:
    n = x.size
    return _emit((x,), np.asarray(x.data.mean()),
                 lambda g: (np.full_like(x.data, float(g) / n),))


def mean_pool(x: Tensor, lengths) -> Tensor:
    """Mean of the first n rows of each sequence: ``(..., t, d)`` to
    ``(..., d)``, with lengths of shape ``(...)``, a scalar for one ``(t, d)``
    sentence.  Pools a right-padded batch without reading its padding."""
    n = np.asarray(lengths, dtype=np.int64)
    _require(x.data.ndim >= 2 and n.shape == x.shape[:-2]
             and bool(((n >= 1) & (n <= x.shape[-2])).all()),
             lambda: f"mean_pool of {x.shape} over lengths {n.tolist()}")
    w = (np.arange(x.shape[-2]) < n[..., None]) / n[..., None]   # (..., t)
    return _emit((x,), (w[..., None, :] @ x.data)[..., 0, :],
                 lambda g: (w[..., :, None] * g[..., None, :],))
