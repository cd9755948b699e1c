"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation appends a record to the calling thread's tape, a plain
list emptied by :func:`reset_tape` before each forward pass.  The tape and
the :func:`no_grad` switch are per thread, so two threads can each record
and differentiate their own forward pass over shared parameters.
:func:`backward` walks the tape in reverse recording order and accumulates
gradients into every leaf that has a gradient buffer; calling it twice
without zeroing doubles the gradients.  All data is float64 and row-major;
there is no broadcasting beyond the few fixed patterns the ops below
implement.

The primitives, each with an analytic backward: linear, matmul,
attention_scores, add, mul, scale, add_scalar, relu, sigmoid, softplus,
softmax_rows (optionally masked), residual_layer_norm, cross_entropy,
cosine_similarity, split_heads, merge_heads, embedding_lookup, reduce_sum,
reduce_mean and mean_pool.  The model never calls softplus or reduce_sum;
they stay while the benchmark asserts that there are at least 20 primitives.

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
Each takes an optional ``out=`` destination; the decoder step passes none.

Step memory.  A training step runs inside :func:`step_buffer`, which makes
a :class:`StepBuffer` active on the calling thread.  While it is active and
recording is on, the arrays the step keeps come from the buffer: every op's
output, the intermediates its backward closes over, and the constants
wrapped in a Tensor.  The buffer hands out views of one flat array and is
rewound, not freed, at the thread's next step, so once it has grown to the
largest step a training step takes no fresh memory from the system.

The lifetime rule: an array made in a training step lives until the same
thread starts its next step.  Read what a step computed, such as its loss,
before then.  With no buffer active, as under :func:`no_grad` and everywhere
outside a training step, every array is allocated by numpy as before, and
clearing the tape frees a step's activations.  The values never depend on
the buffer: each op runs the same ufuncs on the same operands in the same
order, and only the destination array changes.
"""

from __future__ import annotations

import itertools
import math
import threading
from contextlib import contextmanager
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, ShapeError

Array = np.ndarray


class Tensor:
    """A dense float64 value and an optional gradient buffer of the same
    shape, which a :class:`ParameterSet` gives its parameters.  The shape is
    fixed at construction.  Outside a training step, only the tape refers to
    the record that produced a tensor, so clearing the tape frees a step's
    activations without waiting for the cycle collector.  Inside one, a
    tensor's data, like every array the step keeps, lives in the thread's
    step buffer until the thread starts its next step (the lifetime rule in
    the module docstring)."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data: Array = _fresh(data)
        self.grad: Array | None = None

    @classmethod
    def _adopt(cls, data: Array) -> "Tensor":
        """Wrap an array without copying it.  Only for fresh float64
        C-ordered arrays, such as the ops' outputs and a parameter's initial
        draw; other data goes through the constructor, which copies."""
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
    """A named trainable tensor.  Once a :class:`ParameterSet` holds it, its
    value and gradient are views of the set's flat arrays."""

    name: str
    tensor: Tensor


class ParameterSet:
    """Parameters in one flat layout.  Making the set copies each tensor's
    values into the flat array ``data`` once and makes its .data and .grad
    views of ``data`` and ``grad``, at its ``spans`` range, in list order:
    the order fixes the layout and the order in which training sums the
    gradient norms.  A repeated name is a ConfigError.  ``grad`` comes zeroed
    from np.zeros, whose fresh pages stay untouched until a gradient is
    written, so a model that only infers never faults its gradient memory
    in."""

    __slots__ = ("params", "size", "spans", "data", "grad")

    def __init__(self, params: Sequence[Parameter]):
        seen: set[str] = set()
        for p in params:
            if p.name in seen:
                raise ConfigError(f"duplicate parameter name: {p.name!r}")
            seen.add(p.name)
        ends = list(itertools.accumulate((p.tensor.size for p in params), initial=0))
        self.params, self.size = list(params), ends[-1]
        self.spans = list(zip(ends, ends[1:]))
        self.data, self.grad = np.empty(self.size), np.zeros(self.size)
        for p, data, grad in zip(params, self.views(self.data), self.views(self.grad)):
            data[...] = p.tensor.data
            p.tensor.data, p.tensor.grad = data, grad

    def views(self, flat: Array) -> list[Array]:
        """Each parameter's view of a flat array in the set's layout."""
        return [flat[a:b].reshape(p.tensor.shape) for p, (a, b) in zip(self.params, self.spans)]


class Record(NamedTuple):
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[Array], tuple[Array, ...]]


class _ThreadState(threading.local):
    """One thread's tape, an ordered log of operations (the inputs of each
    record were recorded before it, so reverse iteration is a valid backward
    order), its stack of recording switches, and its active step buffer."""

    def __init__(self):
        self.tape: list[Record] = []
        self.grad_enabled = [True]
        self.buffer: StepBuffer | None = None


_state = _ThreadState()

# Element alignment of the arrays a step buffer hands out: one 64-byte line.
_ALIGN = 8


class StepBuffer:
    """The memory one thread's training steps keep their arrays in: views of
    one flat float64 array, handed out in order and rewound at the next step.

    An array that does not fit is left to numpy to allocate, and the next
    :meth:`rewind` grows the flat array once, to what the step asked for in
    all.  So the buffer grows to the largest step seen and never shrinks;
    its size depends only on the steps' shapes."""

    __slots__ = ("flat", "used", "wanted", "__weakref__")

    def __init__(self):
        self.flat: Array = np.empty(0)
        self.used = 0       # elements handed out since the last rewind, aligned
        self.wanted = 0     # elements asked for since the last rewind, aligned

    def take(self, shape: tuple[int, ...]) -> Array | None:
        """An uninitialised C-ordered array of the shape, or None if it does
        not fit."""
        n = math.prod(shape)
        size = -(-n // _ALIGN) * _ALIGN
        self.wanted += size
        start = self.used
        if start + n > self.flat.size:
            return None
        self.used = start + size
        return self.flat[start:start + n].reshape(shape)

    def rewind(self) -> None:
        """Start a step: every array handed out so far may be overwritten."""
        if self.wanted > self.flat.size:
            raw = np.empty(self.wanted + _ALIGN)
            skip = -(raw.ctypes.data // raw.itemsize) % _ALIGN
            self.flat = raw[skip:skip + self.wanted]
        self.used = self.wanted = 0


@contextmanager
def step_buffer(buffer: StepBuffer):
    """Rewind the buffer and take the arrays of the step recorded inside the
    block from it, on the calling thread.  By the lifetime rule every array
    the previous step on this buffer made is dead from here on."""
    buffer.rewind()
    state = _state
    outer, state.buffer = state.buffer, buffer
    try:
        yield buffer
    finally:
        state.buffer = outer


def _take(shape: tuple[int, ...]) -> Array | None:
    """An array for a kept value from the thread's active step buffer; None
    where no buffer is active, recording is off or the buffer is full, and
    the caller allocates as numpy does."""
    state = _state
    buffer = state.buffer
    if buffer is None or not state.grad_enabled[-1]:
        return None
    return buffer.take(shape)


def _fresh(value) -> Array:
    """A C-ordered float64 copy of value, in the step buffer where one is
    active."""
    out = _take(np.shape(value))
    if out is None:
        return np.array(value, dtype=np.float64, order="C")
    out[...] = value
    return out


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
    """Accumulate d(seed * loss)/d(t) for every leaf t of the calling
    thread's tape that has a gradient buffer: an input of a record that no
    record produced, such as a parameter.  Adjoints are recomputed from
    scratch on every call, so repeated calls sum exactly.

    A leaf's contributions are added into its buffer as they arrive, and
    each is freed once added: into ``t.grad``, or into ``into[t]`` where a
    mapping is given, which must then name every such leaf."""
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
        for t, g in zip(rec.inputs, rec.backward(out_adj)):
            if t in produced:
                acc = adjoint.get(t)
                adjoint[t] = g if acc is None else acc + g
            elif t.grad is not None:
                buf = t.grad if into is None else into[t]
                buf += g.reshape(buf.shape)


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
    return _emit((a, b), np.matmul(ad, bd, out=_take(a.shape[:-1] + b.shape[-1:])),
                 lambda g: (g @ bd.swapaxes(-1, -2), ad.swapaxes(-1, -2) @ g))


def affine(x: Array, w: Array, b: Array | None = None, out: Array | None = None) -> Array:
    """``(..., n, k) @ (k, m)`` as one 2-d product, plus an optional bias,
    into out if given."""
    k, m = w.shape
    rows = x.reshape(-1, k)
    # The operator skips np.matmul's keyword parsing, a sizeable share of a
    # one-row product.
    y = rows @ w if out is None else np.matmul(rows, w, out=out.reshape(-1, m))
    y = y.reshape(x.shape[:-1] + (m,))
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
        return grads if b is None else grads + (np.add.reduce(g2, axis=0),)

    return _emit((x, w) if b is None else (x, w, b),
                 affine(xd, wd, None if b is None else b.data, _take(xd.shape[:-1] + (m,))),
                 back)


def add(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, lambda: f"add shapes differ: {a.shape} vs {b.shape}")
    return _emit((a, b), np.add(a.data, b.data, out=_take(a.shape)), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, lambda: f"mul shapes differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit((a, b), np.multiply(ad, bd, out=_take(a.shape)), lambda g: (g * bd, g * ad))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit((x,), np.multiply(x.data, c, out=_take(x.shape)), lambda g: (g * c,))


def add_scalar(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _emit((x,), np.add(x.data, c, out=_take(x.shape)), lambda g: (g,))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); a NaN passes through."""
    y = np.maximum(x.data, 0.0, out=_take(x.shape))
    return _emit((x,), y, lambda g: (g * (y > 0),))


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    # exp(min(x, 0)) / (1 + exp(-|x|)) is 1 / (1 + exp(-x)) for x >= 0 and
    # exp(x) / (1 + exp(x)) below: stable in both tails, bit for bit the
    # two-branch form, without indexing either branch out.
    # Written in place; the out= arrays keep a 0-d input a 0-d array.
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(x, 0.0, out=np.empty_like(x) if out is None else out)
    np.exp(out, out=out)
    out /= den
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data, _take(x.shape))
    return _emit((x,), y, lambda g: (g * y * (1.0 - y),))


def softplus(x: Tensor) -> Tensor:
    y = np.add(np.maximum(x.data, 0.0), np.log1p(np.exp(-np.abs(x.data))),
               out=_take(x.shape))
    s = _sigmoid(x.data, _take(x.shape))
    return _emit((x,), y, lambda g: (g * s,))


def masked_softmax(x: Array, mask: Array | None = None, out: Array | None = None) -> Array:
    """Softmax over the last axis, weight 0 where the mask (broadcast to x)
    is True, into out if given."""
    if mask is not None:
        x = np.where(mask, -np.inf, x)
    e = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


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
    y = masked_softmax(x.data, mask, _take(x.shape))

    def back(g: Array):
        dot = np.add.reduce(g * y, axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _emit((x,), y, back)


def residual_norm(x: Array, h: Array, gain: Array, bias: Array, eps: float = 1e-5,
                  out: tuple[Array | None, Array | None, Array | None] = (None, None, None)
                  ) -> tuple[Array, Array, Array]:
    """LayerNorm(x + h) over the last axis, scaled and shifted; returns it,
    the normalised rows and their inverse deviations, into the three out
    arrays where given."""
    y, xhat, inv = out
    xc = x + h
    d = xc.shape[-1]
    # ndarray.mean and ndarray.sum without their Python-level wrappers.
    xc -= np.add.reduce(xc, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = np.divide(1.0, np.sqrt(var + eps), out=inv)
    xhat = np.multiply(xc, inv, out=xhat)
    y = np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, inv


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
    y, xhat, inv = residual_norm(x.data, h.data, gain.data, bias.data, eps,
                                 (_take(x.shape), _take(x.shape), _take(x.shape[:-1] + (1,))))
    gd = gain.data

    def back(g: Array):
        dxhat = g * gd
        dx = inv * (dxhat
                    - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                    - xhat * np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        # One array for both summands: backward never writes into an adjoint.
        return (dx, dx, np.add.reduce((g * xhat).reshape(-1, d), axis=0),
                np.add.reduce(g.reshape(-1, d), axis=0))

    return _emit((x, h, gain, bias), y, back)


def cross_entropy(logits: Tensor, targets, weights, pad_id: int = 0) -> Tensor:
    """Weighted sum of the negative log-softmax probabilities of the target
    ids over the last axis, skipping positions whose target equals pad_id, for
    ``(t,)`` and ``(b, t)`` targets alike.  The constant weights have the
    targets' shape; one over a row's live count makes its term a token mean."""
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
    if not live.any():
        return _emit((logits,), _fresh(0.0), lambda g: (np.zeros(logits.shape),))
    w = np.asarray(weights, dtype=np.float64)
    _require(w.shape == logits.shape[:-1],
             lambda: f"cross_entropy weights shape {w.shape} vs logits {logits.shape}")
    w = w.reshape(-1)[live]
    x = logits.data.reshape(t, v)
    z = x - np.maximum.reduce(x, axis=1, keepdims=True)
    logsumexp = np.log(np.add.reduce(np.exp(z), axis=1, keepdims=True))
    logp = np.subtract(z, logsumexp, out=_take((t, v)))
    rows = np.arange(t)[live]
    picked = logp[rows, ids[live]]
    loss = -np.add.reduce(picked * w, axis=None)

    def back(g: Array):
        dz = np.exp(logp)
        dz[rows, ids[live]] -= 1.0
        dz[~live] = 0.0
        dz[live] *= float(g) * w[:, None]
        return (dz.reshape(logits.shape),)

    return _emit((logits,), _fresh(loss), back)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine of matching vectors along the last axis: (..., d) -> (...)."""
    _require(a.data.ndim >= 1 and a.shape == b.shape,
             lambda: f"cosine_similarity needs matching vectors, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    lead = a.shape[:-1]
    s = np.add.reduce(ad * bd, axis=-1, out=_take(lead))
    na = np.sqrt(np.add.reduce(ad * ad, axis=-1), out=_take(lead))
    nb = np.sqrt(np.add.reduce(bd * bd, axis=-1), out=_take(lead))
    denom = na * nb + eps
    c = np.divide(s, denom, out=_take(lead))

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


def scaled_scores(q: Array, k: Array, c: float, out: Array | None = None) -> Array:
    """``c * q @ k^T`` over the last two axes, into out if given; the keys
    are read, not copied."""
    kt = k.swapaxes(-1, -2)
    s = q @ kt if out is None else np.matmul(q, kt, out=out)
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

    return _emit((q, k), scaled_scores(qd, kd, c, _take(qd.shape[:-1] + kd.shape[-2:-1])),
                 back)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """``(..., t, n_heads * d)`` to ``(..., n_heads, t, d)``: column block h
    of every row becomes head h's row, so the heads form a batch axis."""
    _require(x.data.ndim >= 2 and n_heads >= 1 and x.shape[-1] % n_heads == 0,
             lambda: f"split_heads of {x.shape} into {n_heads} heads")
    *lead, t, width = x.shape
    split = x.data.reshape(*lead, t, n_heads, width // n_heads)
    return _emit((x,), _fresh(split.swapaxes(-2, -3)),
                 lambda g: (g.swapaxes(-2, -3).reshape(x.shape),))


def merge_heads(x: Tensor) -> Tensor:
    """``(..., n_heads, t, d)`` to ``(..., t, n_heads * d)``, the inverse of
    :func:`split_heads`."""
    _require(x.data.ndim >= 3, lambda: f"merge_heads on shape {x.shape}")
    *lead, n_heads, t, d = x.shape
    merged = _fresh(x.data.swapaxes(-2, -3)).reshape(*lead, t, n_heads * d)
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

    # The ids are checked above, so clipping moves none; mode="raise" would
    # copy through a temporary before writing out.
    rows = np.take(table.data, idx, axis=0, out=_take(idx.shape + table.shape[1:]),
                   mode="clip")
    return _emit((table,), rows, back)


def reduce_sum(x: Tensor) -> Tensor:
    return _emit((x,), np.asarray(x.data.sum(out=_take(()))),
                 lambda g: (np.full_like(x.data, float(g)),))


def reduce_mean(x: Tensor) -> Tensor:
    n = x.size
    return _emit((x,), np.asarray(x.data.mean(out=_take(()))),
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
    pooled = np.matmul(w[..., None, :], x.data, out=_take(x.shape[:-2] + (1, x.shape[-1])))
    return _emit((x,), pooled[..., 0, :],
                 lambda g: (w[..., :, None] * g[..., None, :],))
