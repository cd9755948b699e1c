"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation appends a record to the calling thread's tape, a plain
list emptied by :func:`reset_tape` before each forward pass.  The tape and
the :func:`no_grad` switch are per thread, so two threads can each record
and differentiate their own forward pass over shared parameters.
:func:`backward` walks the tape in reverse recording order and accumulates
gradients into every tensor that has a gradient buffer allocated; calling
it twice without zeroing doubles the gradients.  All data is float64 and row-major; there is
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

The forward values of linear, attention_scores, softmax_rows and
residual_layer_norm are the array functions affine, scaled_scores,
masked_softmax and residual_norm, which the tape-free decoder step calls too.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Mapping, NamedTuple, Sequence

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
    backward: Callable[[Array], tuple[Array, ...]]


class _ThreadState(threading.local):
    """One thread's tape, an ordered log of operations (the inputs of each
    record were recorded before it, so reverse iteration is a valid backward
    order), and its stack of recording switches."""

    def __init__(self):
        self.tape: list[Record] = []
        self.grad_enabled = [True]


_state = _ThreadState()


def reset_tape() -> None:
    _state.tape.clear()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / decoding), on
    the calling thread."""
    _state.grad_enabled.append(False)
    try:
        yield
    finally:
        _state.grad_enabled.pop()


def _emit(inputs: tuple[Tensor, ...], out_data: Array,
          backward: Callable[[Array], tuple[Array, ...]]) -> Tensor:
    out = Tensor._adopt(out_data)
    state = _state
    if state.grad_enabled[-1]:
        state.tape.append(Record(inputs, out, backward))
    return out


def backward(loss: Tensor, seed: float = 1.0,
             into: Mapping[Tensor, Array] | None = None) -> None:
    """Accumulate d(seed * loss)/d(t) for every tensor t on the calling
    thread's tape that has a gradient buffer.  Adjoints are recomputed from
    scratch on every call, so repeated calls sum exactly.

    A leaf's contributions are added into its buffer as they arrive, and
    each is freed once added: into ``t.grad``, or into ``into[t]`` where a
    mapping is given, which must then name every such leaf.  A tensor that a
    record produced gets its complete adjoint in its own ``.grad``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    tape = _state.tape
    produced = {rec.output for rec in tape}
    adjoint: dict[Tensor, Array] = {loss: np.full_like(loss.data, seed)}
    for rec in reversed(tape):
        # Every use of a record's output was recorded after it, so its
        # adjoint is complete here and can be freed once it is used.
        out_adj = adjoint.pop(rec.output, None)
        if out_adj is None:
            continue
        if rec.output.grad is not None:
            rec.output.grad += out_adj.reshape(rec.output.grad.shape)
        for t, g in zip(rec.inputs, rec.backward(out_adj)):
            if t in produced:
                acc = adjoint.get(t)
                adjoint[t] = g if acc is None else acc + g
            elif t.grad is not None:
                buf = t.grad if into is None else into[t]
                buf += g.reshape(buf.shape)
    # A loss that no record on this tape produced is a leaf itself.
    if loss not in produced and loss.grad is not None:
        buf = loss.grad if into is None else into[loss]
        buf += adjoint[loss].reshape(buf.shape)


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.tensor.grad.fill(0.0)


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


def affine(x: Array, w: Array, b: Array | None = None) -> Array:
    """``(..., n, k) @ (k, m)`` as one 2-d product, plus an optional bias."""
    y = (x.reshape(-1, w.shape[0]) @ w).reshape(x.shape[:-1] + w.shape[1:])
    if b is not None:
        y += b
    return y


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``(..., n, k) @ (k, m)``, plus a ``(m,)`` bias if one is given: one
    matrix applied to every leading index."""
    _require(x.data.ndim >= 2 and w.data.ndim == 2 and x.shape[-1] == w.shape[0]
             and (b is None or b.shape == w.shape[1:]),
             lambda: f"linear shapes disagree: {x.shape} x {w.shape}"
                     + ("" if b is None else f" + {b.shape}"))
    xd, wd = x.data, w.data
    k, m = wd.shape
    # The weight and bias gradients sum over every row of the batch.
    rows = xd.reshape(-1, k)

    def back(g: Array):
        g2 = g.reshape(-1, m)
        grads = ((g2 @ wd.T).reshape(xd.shape), rows.T @ g2)
        return grads if b is None else grads + (g2.sum(axis=0),)

    return _emit((x, w) if b is None else (x, w, b),
                 affine(xd, wd, None if b is None else b.data), back)


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


def masked_softmax(x: Array, mask: Array | None = None) -> Array:
    """Softmax over the last axis, weight 0 where the mask (broadcast to x) is True."""
    if mask is not None:
        x = np.where(mask, -np.inf, x)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_rows(x: Tensor, mask: Array | None = None) -> Tensor:
    """Softmax over the last axis.  Entries where the constant mask is True
    get weight 0 and no gradient.  The mask broadcasts against x without
    enlarging it, as a (t, n) causal mask does against (b, H, t, n) scores."""
    _require(x.data.ndim >= 2 and x.shape[-1] >= 1,
             lambda: f"softmax_rows needs non-empty rows of a 2-d or batched tensor, "
                     f"got {x.shape}")
    if mask is not None:
        _require(mask.ndim <= x.data.ndim
                 and all(m in (1, n) for m, n in zip(mask.shape[::-1], x.shape[::-1])),
                 lambda: f"mask shape {mask.shape} does not broadcast to the scores' "
                         f"shape {x.shape}")
    y = masked_softmax(x.data, mask)

    def back(g: Array):
        dot = np.add.reduce(g * y, axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit((x,), y, back)


def residual_norm(x: Array, h: Array, gain: Array, bias: Array,
                  eps: float = 1e-5) -> tuple[Array, Array, Array]:
    """LayerNorm(x + h) over the last axis, scaled and shifted; returns it,
    the normalised rows and their inverse deviations."""
    s = x + h
    d = s.shape[-1]
    # ndarray.mean and ndarray.sum without their Python-level wrappers.
    mu = np.add.reduce(s, axis=-1, keepdims=True) / d
    xc = s - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


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
    y, xhat, inv = residual_norm(x.data, h.data, gain.data, bias.data, eps)
    gd = gain.data

    def back(g: Array):
        dxhat = g * gd
        dx = inv * (dxhat
                    - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                    - xhat * np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        # One array for both summands: backward never writes into an adjoint.
        return dx, dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _emit((x, h, gain, bias), y, back)


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


def scaled_scores(q: Array, k: Array, c: float) -> Array:
    """``c * q @ k^T`` over the last two axes; the keys are read, not copied."""
    s = q @ k.swapaxes(-1, -2)
    s *= c
    return s


def attention_scores(q: Tensor, k: Tensor, c: float) -> Tensor:
    """``c * q @ k^T`` over the last two axes: ``(..., t, d)`` queries and
    ``(..., n, d)`` keys with the same leading axes give ``(..., t, n)``.
    The keys are read through a transposed view, never copied."""
    _require(q.data.ndim >= 2 and q.shape[:-2] == k.shape[:-2] and q.shape[-1] == k.shape[-1],
             lambda: f"attention_scores shapes disagree: {q.shape} x {k.shape}")
    c = float(c)
    qd, kd = q.data, k.data

    def back(g: Array):
        gc = g * c
        return gc @ kd, gc.swapaxes(-1, -2) @ qd

    return _emit((q, k), scaled_scores(qd, kd, c), back)


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
