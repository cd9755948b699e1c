"""Shared test utilities: central finite-difference gradient checking, a
registry of gradient cases for every differentiable primitive, and for its
batched form where it has one, a full-recompute greedy decoder that cached
decoding is checked against, the logistic-noise and infer-gate oracles that
gates are checked against, the sum-then-add backward that ``backward`` is
checked against, leaf tensors with a gradient buffer, readers of a noise
stream's position and of an encoding's mean gates, and a loader for the
benchmark's tracer, whose names tests check against the package.  Each
gradient case factory draws random inputs in [-2, 2] (resampled away from
relu/hinge kinks) and returns (forward, leaves, tol)."""

from __future__ import annotations

import importlib.util
import zlib
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from gumbel_mmt import autodiff as ad
from gumbel_mmt.autodiff import Tensor
from gumbel_mmt.data import BOS_ID, EOS_ID
from gumbel_mmt.gumbel import GateMode, NoiseSource


def numeric_gradient(forward: Callable[[], Tensor], leaf: Tensor, h: float = 1e-5) -> np.ndarray:
    """d(forward)/d(leaf) by central differences, perturbing leaf.data in place."""
    flat = leaf.data.reshape(-1)
    out = np.zeros_like(flat)
    with ad.no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = forward().item()
            flat[i] = keep - h
            down = forward().item()
            flat[i] = keep
            out[i] = (up - down) / (2.0 * h)
    return out.reshape(leaf.shape)


def gradient_error(forward: Callable[[], Tensor], leaves: Sequence[Tensor],
                   h: float = 1e-5) -> float:
    """Max relative error between tape gradients and central differences.

    Every probe rebuilds the forward pass from scratch, so any stochastic
    piece inside ``forward`` must be re-seeded by it (e.g. a fresh NoiseSource
    with a fixed seed on each call).  Each leaf gets a fresh zero gradient
    buffer.  The error for each leaf is ||analytic - numeric||_inf normalised
    by the combined gradient magnitude, which keeps near-zero gradients from
    inflating the ratio.
    """
    for leaf in leaves:
        leaf.grad = np.zeros(leaf.shape)
    ad.reset_tape()
    ad.backward(forward())
    analytic = [leaf.grad.copy() for leaf in leaves]
    ad.reset_tape()

    worst = 0.0
    for leaf, a in zip(leaves, analytic):
        n = numeric_gradient(forward, leaf, h=h)
        scale = max(float(np.abs(a).max(initial=0.0)),
                    float(np.abs(n).max(initial=0.0)), 1e-8)
        worst = max(worst, float(np.abs(a - n).max(initial=0.0)) / scale)
    return worst


def summed_adjoints(loss: Tensor, seed: float = 1.0) -> dict[Tensor, np.ndarray]:
    """The reference backward, without writing anything: walk the calling
    thread's tape, summing every tensor's whole adjoint before it is used,
    and return the complete adjoint of each leaf that has a gradient
    buffer."""
    adjoint = {loss: np.full_like(loss.data, seed)}
    for rec in reversed(ad._state.tape):
        out_adj = adjoint.pop(rec.output, None)
        if out_adj is None:
            continue
        for t, g in zip(rec.inputs, rec.backward(out_adj)):
            acc = adjoint.get(t)
            adjoint[t] = g if acc is None else acc + g
    return {t: g.reshape(t.shape) for t, g in adjoint.items() if t.grad is not None}


def grad_leaf(value) -> Tensor:
    """A tensor with a zeroed gradient buffer, made the way the model makes
    its parameters: as the one parameter of an ``ad.ParameterSet``."""
    t = Tensor(value)
    ad.ParameterSet([ad.Parameter("leaf", t)])
    return t


def rand_tensor(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


def rand_away_from_zero(rng, shape, gap=1e-3):
    x = rng.uniform(-2.0, 2.0, size=shape)
    while (np.abs(x) < gap).any():
        bad = np.abs(x) < gap
        x[bad] = rng.uniform(-2.0, 2.0, size=int(bad.sum()))
    return Tensor(x)


def _case_matmul(rng):
    a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 2))
    return lambda: ad.reduce_sum(ad.matmul(a, b)), [a, b], 1e-6


def _case_add(rng):
    a, b = rand_tensor(rng, (3, 3)), rand_tensor(rng, (3, 3))
    return lambda: ad.reduce_sum(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b], 1e-4


def _case_mul(rng):
    a, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 3))
    return lambda: ad.reduce_sum(ad.mul(a, b)), [a, b], 1e-4


def _case_scale(rng):
    x = rand_tensor(rng, (3, 4))
    c = float(rng.uniform(-2, 2))
    return lambda: ad.reduce_sum(ad.mul(ad.scale(x, c), x)), [x], 1e-4


def _case_add_scalar(rng):
    x = rand_tensor(rng, (6,))
    return lambda: ad.reduce_sum(ad.mul(ad.add_scalar(x, 1.5), x)), [x], 1e-4


def _case_linear(rng):
    x, w = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 2))
    return lambda: ad.reduce_sum(ad.mul(ad.linear(x, w), ad.linear(x, w))), [x, w], 1e-4


def _case_linear_bias(rng):
    x, w, b = rand_tensor(rng, (4, 3)), rand_tensor(rng, (3, 2)), rand_tensor(rng, (2,))
    return (lambda: ad.reduce_sum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))),
            [x, w, b], 1e-4)


def _case_relu(rng):
    x = rand_away_from_zero(rng, (5, 4))
    return lambda: ad.reduce_sum(ad.mul(ad.relu(x), x)), [x], 1e-4


def _case_sigmoid(rng):
    x = rand_tensor(rng, (4, 4))
    return lambda: ad.reduce_sum(ad.sigmoid(x)), [x], 1e-6


def _case_softplus(rng):
    x = rand_tensor(rng, (7,))
    return lambda: ad.reduce_sum(ad.softplus(x)), [x], 1e-4


def _case_softmax_rows(rng):
    x = rand_tensor(rng, (3, 5))
    w = Tensor(rng.uniform(-1, 1, size=(3, 5)))
    return lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(x), w)), [x], 1e-4


def _residual_layer_norm_case(rng, shape):
    x, h = rand_tensor(rng, shape), rand_tensor(rng, shape)
    gain, bias = rand_tensor(rng, shape[-1:]), rand_tensor(rng, shape[-1:])
    w = Tensor(rng.uniform(-1, 1, size=shape))

    def forward():
        y = ad.residual_layer_norm(x, h, gain, bias)
        return ad.reduce_sum(ad.mul(ad.mul(y, y), w))

    return forward, [x, h, gain, bias], 1e-4


def _case_residual_layer_norm(rng):
    return _residual_layer_norm_case(rng, (3, 6))


def _case_cross_entropy(rng):
    logits = rand_tensor(rng, (5, 7))
    targets = rng.integers(0, 7, size=5)
    targets[0] = 0  # exercise pad skipping
    return lambda: ad.cross_entropy(logits, targets, pad_id=0), [logits], 1e-5


def _case_cosine_similarity(rng):
    a, b = rand_tensor(rng, (6,)), rand_tensor(rng, (6,))
    return lambda: ad.cosine_similarity(a, b), [a, b], 1e-4


def _case_attention_scores(rng):
    q, k = rand_tensor(rng, (3, 4)), rand_tensor(rng, (5, 4))
    w = Tensor(rng.uniform(-1, 1, size=(3, 5)))
    return lambda: ad.reduce_sum(ad.mul(ad.attention_scores(q, k, 0.5), w)), [q, k], 1e-4


def _case_embedding_lookup(rng):
    table = rand_tensor(rng, (8, 4))
    ids = rng.integers(0, 8, size=5)
    w = Tensor(rng.uniform(-1, 1, size=(5, 4)))
    return lambda: ad.reduce_sum(ad.mul(ad.embedding_lookup(table, ids), w)), [table], 1e-4


def _case_reduce_sum(rng):
    x = rand_tensor(rng, (4, 5))
    return lambda: ad.mul(ad.reduce_sum(x), ad.reduce_sum(x)), [x], 1e-4


def _case_reduce_mean(rng):
    x = rand_tensor(rng, (4, 5))
    return lambda: ad.mul(ad.reduce_mean(x), ad.reduce_mean(x)), [x], 1e-4


def _case_softmax_rows_masked(rng):
    x = rand_tensor(rng, (4, 5))
    mask = rng.random((4, 5)) < 0.4
    mask[:, 0] = False  # every row keeps a key
    w = Tensor(rng.uniform(-1, 1, size=(4, 5)))
    return lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(x, mask), w)), [x], 1e-4


# Batched forms: the same primitives over a leading batch axis.

def _case_linear_two_leading(rng):
    x, w, b = rand_tensor(rng, (2, 3, 2, 4)), rand_tensor(rng, (4, 3)), rand_tensor(rng, (3,))
    return (lambda: ad.reduce_sum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))),
            [x, w, b], 1e-4)


def _case_matmul_batched_pairs(rng):
    a, b = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (2, 4, 5))
    return lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b], 1e-4


def _case_matmul_batched_heads(rng):
    a, b = rand_tensor(rng, (2, 2, 3, 4)), rand_tensor(rng, (2, 2, 4, 3))
    return lambda: ad.reduce_sum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))), [a, b], 1e-4


def _case_softmax_rows_batched(rng):
    x = rand_tensor(rng, (2, 3, 5))
    w = Tensor(rng.uniform(-1, 1, size=(2, 3, 5)))
    return lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(x), w)), [x], 1e-4


def _case_residual_layer_norm_batched(rng):
    return _residual_layer_norm_case(rng, (2, 3, 6))


def _case_cross_entropy_weighted(rng):
    logits = rand_tensor(rng, (2, 4, 7))
    targets = rng.integers(0, 7, size=(2, 4))
    targets[1, 2:] = 0  # padding
    weights = rng.uniform(0.1, 1.0, size=(2, 4))
    return (lambda: ad.cross_entropy(logits, targets, pad_id=0, weights=weights),
            [logits], 1e-5)


def _case_cosine_similarity_rows(rng):
    a, b = rand_tensor(rng, (3, 6)), rand_tensor(rng, (3, 6))
    w = Tensor(rng.uniform(-1, 1, size=(3,)))
    return lambda: ad.reduce_sum(ad.mul(ad.cosine_similarity(a, b), w)), [a, b], 1e-4


def _case_attention_scores_heads(rng):
    q, k = rand_tensor(rng, (2, 2, 3, 4)), rand_tensor(rng, (2, 2, 5, 4))
    w = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 5)))
    return lambda: ad.reduce_sum(ad.mul(ad.attention_scores(q, k, -0.7), w)), [q, k], 1e-4


def _case_embedding_lookup_batched(rng):
    table = rand_tensor(rng, (8, 4))
    ids = rng.integers(0, 8, size=(2, 5))
    w = Tensor(rng.uniform(-1, 1, size=(2, 5, 4)))
    return lambda: ad.reduce_sum(ad.mul(ad.embedding_lookup(table, ids), w)), [table], 1e-4


def _case_mean_pool(rng):
    x = rand_tensor(rng, (3, 5, 2))
    lengths = np.array([5, 2, 1])
    w = Tensor(rng.uniform(-1, 1, size=(3, 2)))
    return lambda: ad.reduce_sum(ad.mul(ad.mean_pool(x, lengths), w)), [x], 1e-4


def _case_mean_pool_single(rng):
    x = rand_tensor(rng, (5, 3))
    w = Tensor(rng.uniform(-1, 1, size=(3,)))
    return lambda: ad.reduce_sum(ad.mul(ad.mean_pool(x, 3), w)), [x], 1e-4


def _case_mean_pool_two_leading(rng):
    x = rand_tensor(rng, (2, 3, 4, 2))
    lengths = np.array([[4, 1, 2], [3, 4, 1]])
    w = Tensor(rng.uniform(-1, 1, size=(2, 3, 2)))
    return lambda: ad.reduce_sum(ad.mul(ad.mean_pool(x, lengths), w)), [x], 1e-4


def _case_split_heads(rng):
    x = rand_tensor(rng, (2, 3, 6))
    w = Tensor(rng.uniform(-1, 1, size=(2, 3, 3, 2)))
    return lambda: ad.reduce_sum(ad.mul(ad.split_heads(x, 3), w)), [x], 1e-4


def _case_split_heads_two_leading(rng):
    x = rand_tensor(rng, (2, 2, 3, 4))
    w = Tensor(rng.uniform(-1, 1, size=(2, 2, 2, 3, 2)))
    return lambda: ad.reduce_sum(ad.mul(ad.split_heads(x, 2), w)), [x], 1e-4


def _case_merge_heads(rng):
    x = rand_tensor(rng, (2, 3, 4, 2))
    w = Tensor(rng.uniform(-1, 1, size=(2, 4, 6)))
    return lambda: ad.reduce_sum(ad.mul(ad.merge_heads(x), w)), [x], 1e-4


def _case_merge_heads_two_leading(rng):
    x = rand_tensor(rng, (2, 2, 2, 3, 2))
    w = Tensor(rng.uniform(-1, 1, size=(2, 2, 3, 4)))
    return lambda: ad.reduce_sum(ad.mul(ad.merge_heads(x), w)), [x], 1e-4


def _case_softmax_rows_masked_heads(rng):
    # As attention passes it: one (b, 1, 1, n) mask for every head and query.
    x = rand_tensor(rng, (2, 3, 4, 5))
    mask = (np.arange(5) >= np.array([5, 2])[:, None])[:, None, None, :]
    w = Tensor(rng.uniform(-1, 1, size=x.shape))
    return lambda: ad.reduce_sum(ad.mul(ad.softmax_rows(x, mask), w)), [x], 1e-4


PRIMITIVE_CASES = {
    "linear": _case_linear,
    "linear_bias": _case_linear_bias,
    "matmul": _case_matmul,
    "add": _case_add,
    "mul": _case_mul,
    "scale": _case_scale,
    "add_scalar": _case_add_scalar,
    "relu": _case_relu,
    "sigmoid": _case_sigmoid,
    "softplus": _case_softplus,
    "softmax_rows": _case_softmax_rows,
    "residual_layer_norm": _case_residual_layer_norm,
    "cross_entropy": _case_cross_entropy,
    "cosine_similarity": _case_cosine_similarity,
    "attention_scores": _case_attention_scores,
    "embedding_lookup": _case_embedding_lookup,
    "reduce_sum": _case_reduce_sum,
    "reduce_mean": _case_reduce_mean,
    "softmax_rows_masked": _case_softmax_rows_masked,
    "linear_two_leading": _case_linear_two_leading,
    "matmul_batched_pairs": _case_matmul_batched_pairs,
    "matmul_batched_heads": _case_matmul_batched_heads,
    "softmax_rows_batched": _case_softmax_rows_batched,
    "residual_layer_norm_batched": _case_residual_layer_norm_batched,
    "cross_entropy_weighted": _case_cross_entropy_weighted,
    "cosine_similarity_rows": _case_cosine_similarity_rows,
    "attention_scores_heads": _case_attention_scores_heads,
    "embedding_lookup_batched": _case_embedding_lookup_batched,
    "mean_pool": _case_mean_pool,
    "mean_pool_single": _case_mean_pool_single,
    "mean_pool_two_leading": _case_mean_pool_two_leading,
    "softmax_rows_masked_heads": _case_softmax_rows_masked_heads,
    "split_heads": _case_split_heads,
    "split_heads_two_leading": _case_split_heads_two_leading,
    "merge_heads": _case_merge_heads,
    "merge_heads_two_leading": _case_merge_heads_two_leading,
}


def load_bench_tracing():
    """The benchmark's tracer module, loaded from its file: it lives outside
    the package, and tests check the names it reads from the package."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def check_primitive(name: str, n_cases: int, seed: int = 0) -> float:
    """Run n_cases random gradient checks for one primitive; returns the worst
    relative error seen (asserting each case against its tolerance).  The
    inputs are fixed by (seed, name), in every process."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    worst = 0.0
    for _ in range(n_cases):
        forward, leaves, tol = PRIMITIVE_CASES[name](rng)
        err = gradient_error(forward, leaves)
        assert err < tol, f"{name}: rel err {err:.3g} >= {tol}"
        worst = max(worst, err)
    return worst


def infer_gate_oracle(e: np.ndarray) -> np.ndarray:
    """Infer-mode gates as the zero-noise Gumbel-Sigmoid rounded at one half:
    1.0 where sigmoid(e) > 0.5.  exp overflows to inf for e below about
    -709, and the sigmoid is then 0, so the overflow is silenced."""
    with np.errstate(over="ignore"):
        return (1.0 / (1.0 + np.exp(-e)) > 0.5).astype(np.float64)


def logistic_noise(src: NoiseSource, shape) -> np.ndarray:
    """G' - G'' for two independent Gumbel draws of the given shape: the
    per-block noise that the attention's single noise draw must reproduce."""
    return src.gumbel(shape) - src.gumbel(shape)


def stream_state(src: NoiseSource) -> dict:
    """The position of a noise stream: its bit generator's state.  Two
    sources with equal states draw the same values from here on."""
    return src._rng.bit_generator.state


def mean_gates(enc) -> np.ndarray | None:
    """Each example's mean gate over heads, real text rows and regions, as a
    (b,) array (one entry for a single sentence); None without gates."""
    stats = enc.gate_stats()
    return None if stats is None else stats.open[:, 0] / stats.count[:, 0]


def full_recompute_greedy(model, src_ids, image, max_len: int):
    """Greedy decoding of one sentence without a cache: every step re-runs the
    decoder over BOS and all tokens emitted so far, and reads the last row.
    Returns the emitted tokens and each step's next-token logits."""
    with ad.no_grad():
        enc = model.encode(src_ids, image, None, GateMode.infer())
        out, step_logits = [BOS_ID], []
        for _ in range(max_len):
            step_logits.append(model.decode(out, enc.fused).data[-1])
            nxt = int(np.argmax(step_logits[-1]))
            if nxt == EOS_ID:
                break
            out.append(nxt)
    return out[1:], step_logits
