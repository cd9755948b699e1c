"""Adam optimisation, the training loop, and split evaluation.

A (seed, config) pair fixes parameter init, shuffling and gate noise.  The
loss trajectory is fixed by the seed, the config, the split rule, the BLAS
build and the BLAS thread count: a BLAS product can sum in a different order
on another build or thread count, which moves the last bits of the losses and
parameters.

The split rule: a training batch whose second half holds at least
``_SPLIT_MIN`` source tokens x d_model runs as two halves, in example order,
each forward and backward on its own thread's tape, and their parameter
gradients are added first half first.  That sums the weight gradients in
another order than one pass over the whole batch, so it is part of what fixes
the trajectory.  The rule reads only the batch and the model's shape, never
the number of cores or a timing, so a (seed, config) pair trains the same on
any machine.  The caller draws the whole batch's gate noise once, by
``gumbel.gate_noise``, and hands each half its examples' rows, so each
example's gate noise is the serial step's bit for bit.

The split step's tail runs on both threads too.  The caller's half adds its
weight gradients into .grad, as the serial step does, and the worker's half
into one flat buffer that lives for the ``train`` call; both add each one as
it arrives.  The parameters are cut once into two contiguous groups of about
equal element count.  Once both halves are done, each thread adds its group's
part of the worker's buffer into .grad, zeroes that part and takes each
parameter's squared norm; the step returns the squares with its loss, and
``adam_step`` sums them in parameter order, as the serial norm does; then
each thread runs Adam's per-parameter arithmetic on its group.  The worker's
half, merge and update are three tasks, and no thread waits on another
inside a task.  None of this can move a bit: every sum has
the operands and order of the serial merge, norm and update, and the grouping
only decides which thread does a parameter's arithmetic.  Adding a gradient
into a zeroed buffer can turn a -0 into +0, and a zero's sign reaches no loss,
moment or parameter.

The zeroing rule: every step zeroes .grad once, before the caller's
backward.  A serial step zeroes it before its pass; a split step once the
worker's half is submitted, while the worker runs a forward pass, which
reads no gradient.  The worker's buffer is zero whenever a step starts,
because each merge zeroes what it read.  A split step that fails waits for
the worker, then zeroes .grad and the worker's buffer before it raises, so a
failed step leaves no gradient behind for a later step on the same memory.

The memory plan: a ``train`` call reuses its memory from step to step, so a
steady-state step takes none from the system.  The model owns the parameters'
values and gradients as views of two flat arrays, in parameter order, from
construction on; ``train`` adopts them as they are (``_Arena``), and the
worker's gradient buffer and Adam's moments, made zeroed with the arena, share
that layout; a model that never splits never writes the worker's buffer, so
its pages are never faulted in.  Zeroing the gradients is then one fill, a
split merge one add and one fill per group, and Adam one loop over the whole
arena, or one per group, in chunks that fit one core's L2, through scratch
kept for the call.  Each thread's forward and backward take the arrays they
keep from that thread's autodiff step buffer, which grows to the largest step
and is rewound, not freed, when the thread starts its next step; nothing a
step makes is read after that, and nothing from a step leaves ``train``.  None
of this can move a bit: every element goes through the same ufuncs, with the
same operands in the same order, and the gradient norm still sums
per-parameter dot products in parameter order.  Only where each array lives
changes.
"""

from __future__ import annotations

from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .bleu import corpus_bleu
from .data import Dataset, Example, random_image_for
from .errors import ConfigError, TrainingError
from .gumbel import GateMode, NoiseSource, gate_noise
from .model import MMTModel, ModelConfig, pad_batch

# stream tags for the per-purpose RNGs derived from the training seed
_NOISE_STREAM = 1
_SHUFFLE_STREAM = 2

# examples per forward pass of teacher_forced_loss, and per greedy decode of evaluate
_EVAL_BATCH = 64

# Elements per chunk of Adam's flat update.  A chunk's gradient, moments,
# parameters and two scratch arrays take 768 KiB, inside one core's 2 MiB L2.  On
# a 2-core x86 box, one thread, a default-model update took 34.8 ms in
# 16K-element chunks, 43.9 ms in 4K-element chunks and 39-50 ms parameter by
# parameter.
_ADAM_CHUNK = 16384

# Source tokens x d_model in a batch's second half at or above which its two
# halves train on two threads.  Below it numpy's arrays are too small to run
# long outside the interpreter lock, and two threads are slower than one.  On
# a 2-core x86 box, one BLAS thread, a training pass split took 1.17-1.49x the
# serial time at ~2.6k, 0.94-1.11x at ~5.2k, 0.99x at ~7.8k and 0.68-0.78x at
# ~10k.  Batches of 16 with 8-12 token sources hold 2.6k-3.1k at d_model 32
# and 8.2k-12.3k at d_model 128.
_SPLIT_MIN = 6144


@dataclass
class TrainConfig:
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    batch_size: int = 16
    epochs: int = 4
    clip_norm: float = 1.0          # <= 0 disables clipping
    tau: float = 1.0
    tau_end: float = 1.0            # linear per-step anneal from tau to tau_end
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError(f"betas must lie in (0,1), got {self.beta1}, {self.beta2}")
        # Written so that NaN fails each check too.
        for name in ("lr", "eps", "tau", "tau_end"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if np.isnan(self.clip_norm):
            raise ConfigError("clip_norm must be a number (<= 0 disables clipping), got nan")
        for name, low in (("batch_size", 1), ("epochs", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def tau_at(self, step: int, total_steps: int) -> float:
        if total_steps <= 1:
            return self.tau
        frac = min(step / (total_steps - 1), 1.0)
        return self.tau + (self.tau_end - self.tau) * frac


def _squares(params: list[Parameter]) -> list[float]:
    """Each parameter's squared gradient norm."""
    out = []
    for p in params:
        g = p.tensor.grad.reshape(-1)
        out.append(float(np.dot(g, g)))
    return out


def _norm(squares: list[float]) -> float:
    """The square root of the squares' sum, taken in list order."""
    total = 0.0
    for sq in squares:
        total += sq
    return float(np.sqrt(total))


def adam_step(cfg: TrainConfig, arena: _Arena,
              tail: tuple[Executor, list[float]] | None = None) -> None:
    """Bias-corrected Adam update of the arena's parameters in place, after
    global-norm clipping; ``arena.t`` counts the updates.

    Aborts on any non-finite gradient, naming the offending parameter, before
    any parameter, moment or step count changes; the gradients are read once
    for the norm, and scanned for the culprit only when the norm is not
    finite.  Each update changes the arena's moments ``m`` and ``v`` and its
    parameters with in-place ufuncs, in the order of the textbook expressions
    m += (1 - beta1)(g - m), v += (1 - beta2)(g^2 - v),
    w -= lr (m / bc1) / (sqrt(v / bc2) + eps).

    The update runs over the whole arena, ``_ADAM_CHUNK`` elements at a time.
    Given a split step's tail (see ``_step``), its pool and the squared norms
    its merge computed, the update runs by parameter groups, the second on
    that pool.  Each element's arithmetic is the same either way.
    """
    params = arena.params
    squares = _squares(params) if tail is None else tail[1]
    norm = _norm(squares)
    if not np.isfinite(norm):
        for p in params:
            if not np.isfinite(p.tensor.grad).all():
                raise TrainingError(f"non-finite gradient in parameter {p.name!r}")
    clip = 1.0
    if cfg.clip_norm > 0 and norm > cfg.clip_norm:
        clip = cfg.clip_norm / norm
    arena.t += 1
    if tail is None:
        _adam_update(arena.run(0, arena.size), arena.t, cfg, clip, arena.scratch[0])
        return
    later = tail[0].submit(_adam_update, arena.run(*arena.bounds[1]), arena.t, cfg, clip,
                           arena.scratch[1])
    try:
        _adam_update(arena.run(*arena.bounds[0]), arena.t, cfg, clip, arena.scratch[0])
    finally:
        later.result()


def _adam_update(run: tuple[np.ndarray, ...], t: int, cfg: TrainConfig,
                 clip: float, scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """adam_step's arithmetic for update t over flat (parameter, gradient,
    moment, moment) views, chunk by chunk through the two scratch arrays."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    keep1, keep2 = 1.0 - cfg.beta1, 1.0 - cfg.beta2
    w, grad, m, v = run
    for lo in range(0, w.size, _ADAM_CHUNK):
        hi = lo + _ADAM_CHUNK
        mc, vc = m[lo:hi], v[lo:hi]
        n = mc.size
        g = np.multiply(grad[lo:hi], clip, out=scratch[0][:n])
        tmp = np.subtract(g, mc, out=scratch[1][:n])
        tmp *= keep1
        mc += tmp
        np.multiply(g, g, out=tmp)
        tmp -= vc
        tmp *= keep2
        vc += tmp
        np.divide(vc, bc2, out=g)
        np.sqrt(g, out=g)
        g += cfg.eps
        np.divide(mc, bc1, out=tmp)
        tmp *= cfg.lr
        tmp /= g
        w[lo:hi] -= tmp


@dataclass
class Metrics:
    """What ``evaluate`` measures on a split.  Each open rate pools the
    split's infer gates [score > 0] over every head and real text row: their
    sum over their count, on all regions, the relevant regions and the other
    (noise) regions.  A rate is None where it counts no gate."""

    bleu: float
    token_accuracy: float
    ambiguous_token_accuracy: float
    mean_gate_open_rate: float | None
    relevant_open_rate: float | None = None
    noise_open_rate: float | None = None


@dataclass
class EpochStats:
    """One epoch of ``train``.  ``gate_open_rate`` is the validation split's
    ``Metrics.mean_gate_open_rate``, a sum of 0/1 infer gates over their
    count.  ``mean_train_gate`` is the mean over the epoch's training examples
    of each example's mean soft gate, so every example weighs the same
    whatever its length.  Both are None without Gumbel gates."""

    epoch: int
    train_loss: float
    val_loss: float
    val_bleu: float
    val_amb_acc: float
    gate_open_rate: float | None
    mean_train_gate: float | None


@dataclass
class TrainLog:
    epochs: list[EpochStats] = field(default_factory=list)
    step_losses: list[float] = field(default_factory=list)


def _image_for(model: MMTModel, ex: Example, seed: int) -> np.ndarray:
    cfg = model.cfg
    if cfg.ablation.random_image:
        return random_image_for(ex, seed, cfg.n_regions, cfg.d_image)
    return ex.image


def _batch(model: MMTModel, examples: list[Example], seed: int):
    """Padded (b, t) source and target ids and the (b, r, d_image) images."""
    images = None
    if not model.cfg.ablation.text_only:
        images = np.stack([_image_for(model, ex, seed) for ex in examples])
    return (pad_batch([ex.src_ids for ex in examples]),
            pad_batch([ex.tgt_ids for ex in examples]), images)


def check_compatible(cfg: ModelConfig, examples: list[Example],
                     dataset: Dataset | None = None) -> None:
    """Raise ConfigError, naming the field and both values, where the data
    does not fit the model: vocabulary sizes (the dataset's when given, and
    the largest token id in use), the image shape the model reads, and the
    longest sentence against max_positions."""
    def mismatch(name: str, need: str) -> ConfigError:
        return ConfigError(f"the data needs {name}{need}, but ModelConfig has "
                           f"{name}={getattr(cfg, name)}")

    if dataset is not None:
        for name, vocab in (("vocab_src", dataset.src_vocab), ("vocab_tgt", dataset.tgt_vocab)):
            if len(vocab) != getattr(cfg, name):
                raise mismatch(name, f"={len(vocab)}")
    if not examples:
        return
    for name, seqs in (("vocab_src", [ex.src_ids for ex in examples]),
                       ("vocab_tgt", [ex.tgt_ids for ex in examples])):
        top = max(max(s, default=-1) for s in seqs)
        if top >= getattr(cfg, name):
            raise mismatch(name, f">={top + 1}")
    if not (cfg.ablation.text_only or cfg.ablation.random_image):
        for shape in {ex.image.shape for ex in examples}:
            for name, have in zip(("n_regions", "d_image"), shape):
                if have != getattr(cfg, name):
                    raise mismatch(name, f"={have}")
    longest = max(max(len(ex.src_ids), len(ex.tgt_ids)) for ex in examples)
    if longest > cfg.max_positions:
        raise mismatch("max_positions", f">={longest}")


def teacher_forced_loss(model: MMTModel, split: list[Example], seed: int) -> float:
    """Mean deterministic (infer-mode gates) loss over a split."""
    if not split:
        raise ConfigError("teacher_forced_loss on empty split")
    check_compatible(model.cfg, split)
    total = 0.0
    with ad.no_grad():
        for start in range(0, len(split), _EVAL_BATCH):
            chunk = split[start:start + _EVAL_BATCH]
            src, tgt, images = _batch(model, chunk, seed)
            loss, _ = model.loss(src, tgt, images, None, GateMode.infer())
            total += loss.item() * len(chunk)
    return total / len(split)


def evaluate(model: MMTModel, split: list[Example], seed: int = 0) -> Metrics:
    """Greedy-decode the split with infer-mode gates [score > 0], one padded batch of up
    to _EVAL_BATCH examples per ``greedy_decode`` call, for at most two steps
    past the longest target and never past max_positions, and aggregate BLEU,
    token accuracy, ambiguous-token accuracy, and the gate open rates over
    all regions, relevant regions and noise regions.  Gates are counted on
    each example's real text rows only, never on padding."""
    if not split:
        raise ConfigError("evaluate on empty split")
    check_compatible(model.cfg, split)
    max_len = min(max(len(ex.tgt_ids) for ex in split) + 2, model.cfg.max_positions)
    hyps, refs = [], []
    amb_correct = 0
    tok_accs = []
    gate_open, gate_count = np.zeros(3), np.zeros(3)
    for start in range(0, len(split), _EVAL_BATCH):
        chunk = split[start:start + _EVAL_BATCH]
        src_ids, _, images = _batch(model, chunk, seed)
        decoded, enc = model.greedy_decode(src_ids, images, max_len)
        stats = enc.gate_stats([ex.meta.relevant_regions for ex in chunk])
        if stats is not None:
            gate_open += stats.open.sum(axis=0)
            gate_count += stats.count.sum(axis=0)
        for ex, hyp in zip(chunk, decoded):
            ref = ex.tgt_ids[1:-1]
            hyps.append(hyp)
            refs.append(ref)
            matches = sum(1 for i in range(min(len(hyp), len(ref))) if hyp[i] == ref[i])
            tok_accs.append(matches / len(ref) if ref else 1.0)
            pos = ex.meta.amb_tgt_pos
            if pos < len(hyp) and hyp[pos] == ref[pos]:
                amb_correct += 1
    gate_rate, rel_rate, noise_rate = (float(o / c) if c else None
                                       for o, c in zip(gate_open, gate_count))
    return Metrics(
        bleu=corpus_bleu(hyps, refs),
        token_accuracy=float(np.mean(tok_accs)),
        ambiguous_token_accuracy=amb_correct / len(split),
        mean_gate_open_rate=gate_rate,
        relevant_open_rate=rel_rate,
        noise_open_rate=noise_rate,
    )


class _Arena:
    """The memory a ``train`` call reuses from one step to the next.

    ``data`` and ``grad`` are the flat arrays of the parameter store it is
    made from, adopted as they are: the arena copies and rebinds nothing.
    ``m`` and ``v`` hold Adam's moments in the same layout, made zeroed
    here, and ``t`` counts the updates.  ``buffers`` holds one autodiff step
    buffer per thread, the caller's and the split worker's, and ``scratch``
    each thread's two arrays for the Adam update.

    For the split step, ``worker_grad`` is the flat gradient buffer the
    worker's half adds into, in the same layout, made zeroed here, and
    ``into`` maps each tensor to its view of it.  ``groups`` cuts the
    parameters into two contiguous runs of about equal element count, one
    per thread for the merge and the Adam update, and ``bounds`` gives their
    element ranges.  The arena holds no state of a step: a split step hands
    its squared norms to ``adam_step`` as a value.
    """

    def __init__(self, store: ad.ParameterSet):
        self.params, self.size = store.params, store.size
        self.data, self.grad = store.data, store.grad
        ends = [b for _, b in store.spans]
        cut = int(np.searchsorted(ends, self.size / 2)) + 1
        self.groups = (self.params[:cut], self.params[cut:])
        self.bounds = ((0, ends[cut - 1]), (ends[cut - 1], self.size))
        self.buffers = (ad.StepBuffer(), ad.StepBuffer())
        self.scratch = tuple((np.empty(_ADAM_CHUNK), np.empty(_ADAM_CHUNK)) for _ in range(2))
        self.t = 0
        self.m, self.v, self.worker_grad = (np.zeros(self.size) for _ in range(3))
        self.into = {p.tensor: view for p, view in
                     zip(self.params, store.views(self.worker_grad))}

    def merge(self, i: int) -> list[float]:
        """Add group i's part of the worker's buffer into .grad, zero that
        part, and return the group's squared norms."""
        lo, hi = self.bounds[i]
        grad, worker = self.grad[lo:hi], self.worker_grad[lo:hi]
        np.add(grad, worker, out=grad)
        worker.fill(0.0)
        return _squares(self.groups[i])

    def run(self, lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """Elements [lo, hi) of the parameters, gradients and moments."""
        return self.data[lo:hi], self.grad[lo:hi], self.m[lo:hi], self.v[lo:hi]


def _pass(model: MMTModel, examples: list[Example], seed: int, noise, tau: float,
          step: int, share: float, buffer: ad.StepBuffer,
          into: dict[ad.Tensor, np.ndarray] | None = None) -> tuple[float, np.ndarray | None]:
    """Forward and backward of examples on the calling thread's tape, keeping
    its arrays in ``buffer``: adds share x the loss gradient into .grad, or
    into ``into`` where given, and returns share x the loss and each
    example's mean train gate (None without gates)."""
    with ad.step_buffer(buffer):
        ad.reset_tape()
        src_ids, tgt_ids, images = _batch(model, examples, seed)
        loss, enc = model.loss(src_ids, tgt_ids, images, noise, GateMode.train(), tau)
        if not np.isfinite(loss.item()):
            raise TrainingError(f"non-finite loss at step {step}")
        ad.backward(loss, share, into)
        ad.reset_tape()
        stats = enc.gate_stats()
        return share * loss.item(), None if stats is None else stats.open[:, 0] / stats.count[:, 0]


def _step(model: MMTModel, examples: list[Example], seed: int, noise: NoiseSource,
          tau: float, step: int, pool: Executor, arena: _Arena
          ) -> tuple[float, np.ndarray | None, tuple[Executor, list[float]] | None]:
    """One batch's forward and backward: sets every parameter's .grad in
    ``arena`` to the gradient of the batch's mean loss, and returns that
    loss, each example's mean train gate (None without gates) and the tail
    for ``adam_step``.  Under the split rule the second half runs on
    ``pool``: the batch's gate noise is drawn here, once, as one pass over
    the batch draws it, and each half gets its examples' rows.  Then each
    thread merges one parameter group, the worker's as a second task, and
    the tail is the pool and the squared norms; a serial step's tail is
    None.  The module docstring gives the zeroing rule and the cleanup after
    a failed split step."""
    mc, n, cut = model.cfg, len(examples), (len(examples) + 1) // 2
    if sum(len(ex.src_ids) for ex in examples[cut:]) * mc.d_model < _SPLIT_MIN:
        arena.grad.fill(0.0)
        return *_pass(model, examples, seed, noise, tau, step, 1.0, arena.buffers[0]), None
    noise_a = noise_b = None
    if mc.gumbel_gates:
        lengths = np.array([len(ex.src_ids) for ex in examples])
        whole = gate_noise(noise, mc.n_heads, mc.n_regions, lengths, int(lengths.max()))
        noise_a = whole[:cut, :, :lengths[:cut].max()]
        noise_b = whole[cut:, :, :lengths[cut:].max()]
    later = pool.submit(_pass, model, examples[cut:], seed, noise_b, tau, step, (n - cut) / n,
                        arena.buffers[1], arena.into)
    try:
        arena.grad.fill(0.0)
        a = _pass(model, examples[:cut], seed, noise_a, tau, step, cut / n, arena.buffers[0])
        b = later.result()
    except BaseException:
        later.exception()               # waits for the worker
        arena.grad.fill(0.0)
        arena.worker_grad.fill(0.0)
        raise
    later = pool.submit(arena.merge, 1)
    tail = (pool, arena.merge(0) + later.result())
    return a[0] + b[0], None if a[1] is None else np.concatenate([a[1], b[1]]), tail


def train(model: MMTModel, dataset: Dataset, cfg: TrainConfig, *,
          on_epoch_end: Callable[[int, EpochStats], None] | None = None) -> TrainLog:
    """Seeded epoch loop from fresh Adam moments and a fresh noise stream:
    shuffle, then per batch one padded forward and backward pass, clip, Adam
    step.  The batch loss is the mean of its examples' losses.  Gates are
    stochastic (fresh noise per forward pass); validation metrics use the
    deterministic infer gates [score > 0].  After each epoch, on_epoch_end gets
    the epoch index and its stats."""
    if not dataset.train:
        raise TrainingError("training split is empty")
    if not dataset.val:
        raise TrainingError("validation split is empty")
    check_compatible(model.cfg, dataset.train + dataset.val, dataset)
    arena = _Arena(model.parameters)
    src = NoiseSource([cfg.seed, _NOISE_STREAM])
    log = TrainLog()
    n = len(dataset.train)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs

    # The worker thread starts at the first split batch and is joined on return.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="gumbel_mmt-train") as pool:
        for epoch in range(cfg.epochs):
            order = np.random.default_rng([cfg.seed, _SHUFFLE_STREAM, epoch]).permutation(n)
            epoch_losses = []
            gate_means = []
            for b in range(steps_per_epoch):
                idx = order[b * cfg.batch_size: (b + 1) * cfg.batch_size]
                step = epoch * steps_per_epoch + b
                value, means, tail = _step(model, [dataset.train[int(i)] for i in idx],
                                           cfg.seed, src, cfg.tau_at(step, total_steps), step,
                                           pool, arena)
                if means is not None:
                    gate_means.extend(means)
                adam_step(cfg, arena, tail)
                epoch_losses.append(value)
                log.step_losses.append(value)

            val = evaluate(model, dataset.val, seed=cfg.seed)
            stats = EpochStats(
                epoch=epoch,
                train_loss=float(np.mean(epoch_losses)),
                val_loss=teacher_forced_loss(model, dataset.val, cfg.seed),
                val_bleu=val.bleu,
                val_amb_acc=val.ambiguous_token_accuracy,
                gate_open_rate=val.mean_gate_open_rate,
                mean_train_gate=float(np.mean(gate_means)) if gate_means else None,
            )
            log.epochs.append(stats)
            if on_epoch_end is not None:
                on_epoch_end(epoch, stats)
    return log
