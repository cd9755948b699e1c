"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records itself on a module-global tape (rebuilt each forward
pass via :func:`reset_tape`).  :func:`backward` walks the tape in reverse
recording order and accumulates gradients into every tensor that has a
gradient buffer allocated; calling it twice without zeroing doubles the
gradients.  All data is float64 and row-major; there is no broadcasting
beyond the few fixed patterns the ops below implement.

Leading batch dimensions: the row-wise ops (matmul, transpose2d,
softmax_rows, layer_norm, cross_entropy, cosine_similarity, add_bias,
embedding_lookup, split_heads, merge_heads) act on the last one or two axes
and treat any axes before them as a batch, so one sentence is a ``(t, d)``
tensor and a padded batch of sentences a ``(b, t, d)`` tensor run through the
same ops.  Multi-head attention adds a head axis, ``(..., H, t, d_head)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray


class Tensor:
    """A dense float64 value, an optional gradient buffer of the same shape,
    and a back-reference to the tape record that produced it (None for
    leaves).  The shape is fixed at construction."""

    __slots__ = ("data", "grad", "node")

    def __init__(self, data, *, grad: bool = False):
        self.data: Array = np.array(data, dtype=np.float64, order="C")
        # np.zeros takes zeroed memory from the allocator, where zeros_like
        # writes every page: a large buffer's fresh pages stay untouched until
        # a gradient is written, so a model that only infers never faults
        # its gradient memory in.
        self.grad: Array | None = np.zeros(self.data.shape) if grad else None
        self.node: Record | None = None

    @classmethod
    def _adopt(cls, data: Array) -> "Tensor":
        """Wrap an array without copying it.  Only for the fresh float64
        C-ordered arrays the ops below allocate; caller-supplied data goes
        through the constructor, which copies."""
        t = cls.__new__(cls)
        t.data, t.grad, t.node = data, None, None
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

    # Arithmetic sugar; scalars go through scale/add_scalar so no general
    # broadcasting sneaks in.
    def __add__(self, other):
        return add_scalar(self, other) if isinstance(other, (int, float)) else add(self, other)

    def __sub__(self, other):
        return add_scalar(self, -other) if isinstance(other, (int, float)) else sub(self, other)

    def __mul__(self, other):
        return scale(self, other) if isinstance(other, (int, float)) else mul(self, other)

    def __rmul__(self, other):
        return scale(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(NamedTuple):
    """A named trainable tensor; the gradient buffer is always allocated."""

    name: str
    tensor: Tensor


def make_parameter(name: str, data) -> Parameter:
    return Parameter(name, Tensor(data, grad=True))


def check_unique_names(params: Sequence[Parameter]) -> None:
    seen: dict[str, int] = {}
    for p in params:
        if p.name in seen:
            raise ValueError(f"duplicate parameter name: {p.name!r}")
        seen[p.name] = 1


class Record(NamedTuple):
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[Array], tuple[Array | None, ...]]


class Tape:
    """Ordered log of operations; inputs of each record were recorded
    before it, so reverse iteration is a valid backward order."""

    def __init__(self):
        self.records: list[Record] = []

    def __len__(self) -> int:
        return len(self.records)


_tape = Tape()
_grad_enabled = [True]


def active_tape() -> Tape:
    return _tape


def reset_tape() -> None:
    _tape.records.clear()


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
        rec = Record(inputs, out, backward)
        out.node = rec
        _tape.records.append(rec)
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(t) into t.grad for every tensor on the active
    tape whose gradient buffer is allocated.  Adjoints are recomputed from
    scratch on every call, so repeated calls sum exactly."""
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    adjoint: dict[Tensor, Array] = {loss: np.ones_like(loss.data)}
    for rec in reversed(_tape.records):
        out_adj = adjoint.get(rec.output)
        if out_adj is None:
            continue
        for t, g in zip(rec.inputs, rec.backward(out_adj)):
            if g is None:
                continue
            acc = adjoint.get(t)
            adjoint[t] = g if acc is None else acc + g
    for t, g in adjoint.items():
        if t.grad is not None:
            t.grad += g.reshape(t.grad.shape)


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.tensor.zero_grad()


# ---------------------------------------------------------------------------
# primitives


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``(..., n, k) @ (k, m)`` applies one matrix to every leading index;
    ``(..., n, k) @ (..., k, m)`` multiplies matching leading indices."""
    _require(a.data.ndim >= 2 and b.data.ndim >= 2 and a.shape[-1] == b.shape[-2]
             and (b.data.ndim == 2 or a.shape[:-2] == b.shape[:-2]),
             f"matmul shapes disagree: {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    if bd.ndim == 2:
        # Fold the leading axes into rows: one 2-d product, and the weight
        # gradient sums over every row of the batch.
        k, m = bd.shape
        rows = ad.reshape(-1, k)

        def back(g: Array):
            g2 = g.reshape(-1, m)
            return (g2 @ bd.T).reshape(ad.shape), rows.T @ g2

        return _emit((a, b), (rows @ bd).reshape(ad.shape[:-1] + (m,)), back)

    def back_batched(g: Array):
        return g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g

    return _emit((a, b), ad @ bd, back_batched)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, f"add shapes differ: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data + b.data, lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, f"sub shapes differ: {a.shape} vs {b.shape}")
    return _emit((a, b), a.data - b.data, lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, f"mul shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit((a, b), ad * bd, lambda g: (g * bd, g * ad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit((x,), x.data * c, lambda g: (g * c,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit((x,), x.data + c, lambda g: (g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast add: x is (..., d), b is (d,)."""
    _require(b.data.ndim == 1 and x.shape[-1] == b.shape[0],
             f"add_bias: {x.shape} + {b.shape}")
    return _emit((x, b), x.data + b.data,
                 lambda g: (g, g.reshape(-1, b.shape[0]).sum(axis=0)))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _emit((x,), np.where(mask, x.data, 0.0), lambda g: (g * mask,))


def _sigmoid(x: Array) -> Array:
    # Stable in both tails.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _emit((x,), y, lambda g: (g * y * (1.0 - y),))


def softplus(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0) + np.log1p(np.exp(-np.abs(x.data)))
    s = _sigmoid(x.data)
    return _emit((x,), y, lambda g: (g * s,))


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    _require(x.data.ndim >= 2 and x.shape[-1] >= 1,
             f"softmax_rows needs non-empty rows of a 2-d or batched tensor, got {x.shape}")
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def back(g: Array):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit((x,), y, back)


def mask_fill(x: Tensor, mask: Array, value: float) -> Tensor:
    """Replace entries where mask is True by a constant (no gradient there).
    The mask has x's full shape; a broadcast view of a smaller one will do."""
    _require(mask.shape == x.shape, f"mask shape {mask.shape} != {x.shape}")
    keep = ~mask
    return _emit((x,), np.where(mask, value, x.data), lambda g: (g * keep,))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise over the last axis, then scale and shift it."""
    _require(x.data.ndim >= 2, f"layer_norm expects 2-d or batched input, got {x.shape}")
    d = x.shape[-1]
    _require(d != 0, "layer_norm over zero-width rows")
    _require(gain.shape == (d,) and bias.shape == (d,),
             f"layer_norm affine shapes {gain.shape}/{bias.shape} != ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    gd = gain.data

    def back(g: Array):
        dxhat = g * gd
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _emit((x, gain, bias), xhat * gd + bias.data, back)


def cross_entropy(logits: Tensor, targets, pad_id: int = 0, weights=None) -> Tensor:
    """Negative log-softmax probability of the target ids over the last axis,
    skipping positions whose target equals pad_id.  Without weights it is the
    mean over the other positions; with constant weights of the targets'
    shape it is their weighted sum."""
    _require(logits.data.ndim >= 2,
             f"cross_entropy logits must be 2-d or batched, got {logits.shape}")
    ids = np.asarray(targets, dtype=np.int64)
    _require(ids.shape == logits.shape[:-1],
             f"cross_entropy targets shape {ids.shape} vs logits {logits.shape}")
    v = logits.shape[-1]
    ids = ids.reshape(-1)
    t = ids.shape[0]
    live = ids != pad_id
    bad = live & ((ids < 0) | (ids >= v))
    if bad.any():
        raise ValueError(f"target id {ids[bad][0]} out of range for vocab {v}")
    n_live = int(live.sum())
    if n_live == 0:
        return _emit((logits,), np.zeros(()), lambda g: (np.zeros(logits.shape),))
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        _require(w.shape == logits.shape[:-1],
                 f"cross_entropy weights shape {w.shape} vs logits {logits.shape}")
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
             f"cosine_similarity needs matching vectors, got {a.shape} and {b.shape}")
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


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    old = x.shape
    # numpy's reshape returns a view of x; the output owns a copy.
    return _emit((x,), x.data.reshape(shape).copy(), lambda g: (g.reshape(old),))


def transpose2d(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    _require(x.data.ndim >= 2, f"transpose2d on shape {x.shape}")
    return _emit((x,), x.data.swapaxes(-1, -2).copy(), lambda g: (g.swapaxes(-1, -2),))


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """``(..., t, n_heads * d)`` to ``(..., n_heads, t, d)``: column block h
    of every row becomes head h's row, so the heads form a batch axis."""
    _require(x.data.ndim >= 2 and n_heads >= 1 and x.shape[-1] % n_heads == 0,
             f"split_heads of {x.shape} into {n_heads} heads")
    *lead, t, width = x.shape
    split = x.data.reshape(*lead, t, n_heads, width // n_heads)
    return _emit((x,), split.swapaxes(-2, -3).copy(),
                 lambda g: (g.swapaxes(-2, -3).reshape(x.shape),))


def merge_heads(x: Tensor) -> Tensor:
    """``(..., n_heads, t, d)`` to ``(..., t, n_heads * d)``, the inverse of
    :func:`split_heads`."""
    _require(x.data.ndim >= 3, f"merge_heads on shape {x.shape}")
    *lead, n_heads, t, d = x.shape
    merged = x.data.swapaxes(-2, -3).copy().reshape(*lead, t, n_heads * d)
    return _emit((x,), merged,
                 lambda g: (g.reshape(*lead, t, n_heads, d).swapaxes(-2, -3),))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of the table: ids of any shape s give an (*s, d) tensor."""
    _require(table.data.ndim == 2, f"embedding table must be 2-d, got {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"token id out of range [0, {table.shape[0]}): {idx}")

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


def mean_axis0(x: Tensor) -> Tensor:
    """Mean over rows: (t, d) -> (d,).  Used to pool positions to one vector."""
    _require(x.data.ndim == 2 and x.shape[0] >= 1, f"mean_axis0 on shape {x.shape}")
    t = x.shape[0]
    return _emit((x,), x.data.mean(axis=0),
                 lambda g: (np.tile(g / t, (t, 1)),))


def mean_pool(x: Tensor, lengths) -> Tensor:
    """Per-example mean of the first lengths[i] rows: (b, t, d) -> (b, d).
    Pools a right-padded batch without reading its padding."""
    n = np.asarray(lengths, dtype=np.int64)
    _require(x.data.ndim == 3 and n.shape == (x.shape[0],)
             and bool(((n >= 1) & (n <= x.shape[1])).all()),
             f"mean_pool of {x.shape} over lengths {n.tolist()}")
    w = (np.arange(x.shape[1]) < n[:, None]) / n[:, None]   # (b, t)
    return _emit((x,), (w[:, None, :] @ x.data)[:, 0, :],
                 lambda g: (w[:, :, None] * g[:, None, :],))
