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
any machine.

The split step's tail runs on both threads too.  Each half adds its weight
gradients, as they arrive, into its own buffers, which live for the
``train`` call.  The parameters are cut once into two contiguous groups of
about equal element count.  Each thread sets its group's .grad to the first
half's buffer plus the second's and takes each parameter's squared norm; the
caller sums the squares in parameter order, as ``global_grad_norm`` does;
then each thread runs Adam's per-parameter arithmetic on its group.  None of
this can move a bit: every sum has the operands and order of the serial
merge, norm and update, and the grouping only decides which thread does a
parameter's arithmetic.  Adding a gradient into a zeroed buffer can turn a
-0 into +0, and a zero's sign reaches no loss, moment or parameter.
"""

from __future__ import annotations

import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .attention import split_gate_noise
from .autodiff import Parameter
from .bleu import corpus_bleu
from .data import Dataset, Example, random_image_for
from .errors import ConfigError, TrainingError
from .gumbel import GateMode, NoiseSource
from .model import EncoderOutput, GateStats, MMTModel, ModelConfig, pad_batch

# stream tags for the per-purpose RNGs derived from the training seed
_NOISE_STREAM = 1
_SHUFFLE_STREAM = 2

# examples per forward pass of teacher_forced_loss, and per greedy decode of evaluate
_EVAL_BATCH = 64

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


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


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


def global_grad_norm(params: list[Parameter]) -> float:
    """Euclidean norm of all gradients together; inf or nan where one of them
    is not finite."""
    return _norm(_squares(params))


def adam_step(params: list[Parameter], state: AdamState, cfg: TrainConfig,
              halves: _Halves | None = None) -> None:
    """Bias-corrected Adam update in place, after global-norm clipping.

    Aborts on any non-finite gradient, naming the offending parameter, before
    any parameter or moment changes; the gradients are read once for the
    norm, and scanned for the culprit only when the norm is not finite.  The
    moments are allocated on the first step; each step then updates them and
    the parameters with in-place ufuncs, in the order of the textbook
    expressions m += (1 - beta1)(g - m), v += (1 - beta2)(g^2 - v),
    w -= lr (m / bc1) / (sqrt(v / bc2) + eps).

    After a split step (see ``_step``), ``halves`` holds the squared norms its
    merge computed, and the update runs by parameter groups, the second on
    the split step's worker.  Each parameter's arithmetic is the same either
    way.
    """
    tail = None
    if halves is not None:
        tail, halves.tail = halves.tail, None
    squares = _squares(params) if tail is None else tail[1]
    norm = _norm(squares)
    if not np.isfinite(norm):
        for p in params:
            if not np.isfinite(p.tensor.grad).all():
                raise TrainingError(f"non-finite gradient in parameter {p.name!r}")
    clip = 1.0
    if cfg.clip_norm > 0 and norm > cfg.clip_norm:
        clip = cfg.clip_norm / norm
    state.t += 1
    for p in params:
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(p.tensor.grad)
            state.v[p.name] = np.zeros_like(p.tensor.grad)
    if tail is None:
        _adam_update(params, state, cfg, clip)
        return
    later = tail[0].submit(_adam_update, halves.groups[1], state, cfg, clip)
    try:
        _adam_update(halves.groups[0], state, cfg, clip)
    finally:
        later.result()


def _adam_update(params: list[Parameter], state: AdamState, cfg: TrainConfig,
                 clip: float) -> None:
    """adam_step's per-parameter arithmetic, on allocated moments."""
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p in params:
        # Explicit out= arrays keep 0-d parameters arrays, not numpy scalars.
        g = np.multiply(p.tensor.grad, clip, out=np.empty_like(p.tensor.grad))
        m, v = state.m[p.name], state.v[p.name]
        tmp = np.subtract(g, m, out=np.empty_like(g))
        tmp *= 1.0 - cfg.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp -= v
        tmp *= 1.0 - cfg.beta2
        v += tmp
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += cfg.eps
        np.divide(m, bc1, out=tmp)
        tmp *= cfg.lr
        tmp /= g
        p.tensor.data -= tmp


@dataclass
class Metrics:
    bleu: float
    token_accuracy: float
    ambiguous_token_accuracy: float
    mean_gate_open_rate: float | None
    relevant_open_rate: float | None = None
    noise_open_rate: float | None = None


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_bleu: float
    val_amb_acc: float
    gate_open_rate: float | None
    alpha_eff: float
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
    to _EVAL_BATCH examples per ``greedy_decode`` call, and aggregate BLEU,
    token accuracy, ambiguous-token accuracy, and the gate open rates over
    all regions, relevant regions and noise regions.  Gates are counted on
    each example's real text rows only, never on padding."""
    if not split:
        raise ConfigError("evaluate on empty split")
    check_compatible(model.cfg, split)
    max_len = max(len(ex.tgt_ids) for ex in split) + 2
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
    gate_rate, rel_rate, noise_rate = (o / c if c else None
                                       for o, c in zip(gate_open, gate_count))
    return Metrics(
        bleu=corpus_bleu(hyps, refs),
        token_accuracy=float(np.mean(tok_accs)),
        ambiguous_token_accuracy=amb_correct / len(split),
        mean_gate_open_rate=gate_rate,
        relevant_open_rate=rel_rate,
        noise_open_rate=noise_rate,
    )


def _forward(model: MMTModel, examples: list[Example], seed: int, noise, tau: float,
             step: int) -> tuple[ad.Tensor, EncoderOutput]:
    """Train-mode loss of a batch on a fresh tape of the calling thread."""
    ad.reset_tape()
    src_ids, tgt_ids, images = _batch(model, examples, seed)
    loss, enc = model.loss(src_ids, tgt_ids, images, noise, GateMode.train(), tau)
    if not np.isfinite(loss.item()):
        raise TrainingError(f"non-finite loss at step {step}")
    return loss, enc


class _Halves:
    """What the split step keeps from one batch to the next in a ``train``
    call.

    ``grads`` holds each half's gradient buffers, a {tensor: array} mapping
    per half.  They are allocated at the first split batch, so building a
    model costs what it did, and each merge zeroes them again.  ``groups``
    cuts the parameters into two contiguous runs of about equal element
    count, one per thread for the merge and the Adam update.  ``tail`` is the
    last split step's pool and per-parameter squared gradient norms, until
    ``adam_step`` takes it.
    """

    def __init__(self, params: list[Parameter]):
        sizes = np.cumsum([p.tensor.size for p in params])
        cut = int(np.searchsorted(sizes, sizes[-1] / 2)) + 1
        self.params = params
        self.groups = (params[:cut], params[cut:])
        self.grads: tuple[dict, dict] | None = None
        self.tail: tuple[Executor, list[float]] | None = None

    def merge(self, i: int) -> list[float]:
        """Set each .grad of group i to the first half's gradient plus the
        second's, zero both buffers, and return the squared norms."""
        first, second = self.grads
        squares = []
        for p in self.groups[i]:
            a, b, g = first[p.tensor], second[p.tensor], p.tensor.grad
            np.add(a, b, out=g)
            a.fill(0.0)
            b.fill(0.0)
            flat = g.reshape(-1)
            squares.append(float(np.dot(flat, flat)))
        return squares


def _half(model: MMTModel, examples: list[Example], seed: int, noise, tau: float,
          step: int, share: float, halves: _Halves, i: int, handoff: threading.Barrier):
    """Half i of a split batch on the calling thread: forward and backward on
    its own tape, adding share x its loss gradient into ``halves.grads[i]``;
    then, once both halves are past ``handoff``, the merge of parameter group
    i.  Returns share x its loss, its gate stats and the group's squared
    norms.  A failure breaks the handoff, so the other half never waits for
    this one in vain."""
    try:
        loss, enc = _forward(model, examples, seed, noise, tau, step)
        ad.backward(loss, share, halves.grads[i])
        ad.reset_tape()
        handoff.wait()
        return share * loss.item(), enc.gate_stats(), halves.merge(i)
    except BaseException:
        handoff.abort()
        raise


def _step(model: MMTModel, examples: list[Example], seed: int, noise: NoiseSource,
          tau: float, step: int, pool: Executor,
          halves: _Halves | None = None) -> tuple[float, GateStats | None]:
    """One batch's forward and backward: sets every parameter's .grad to the
    gradient of the batch's mean loss, and returns that loss and the batch's
    gate stats.  Under the split rule the second half runs on ``pool``, with
    gate noise drawn here first, as one pass over the batch draws it.  Each
    half adds into its own buffers in ``halves`` (made here when not given);
    each thread then merges one parameter group into .grad, and the squared
    norms wait in ``halves.tail`` for ``adam_step``."""
    mc, n, cut = model.cfg, len(examples), (len(examples) + 1) // 2
    if sum(len(ex.src_ids) for ex in examples[cut:]) * mc.d_model < _SPLIT_MIN:
        ad.zero_grads(model.named_parameters())
        loss, enc = _forward(model, examples, seed, noise, tau, step)
        ad.backward(loss)
        ad.reset_tape()
        return loss.item(), enc.gate_stats()
    if halves is None:
        halves = _Halves(model.named_parameters())
    if halves.grads is None:
        halves.grads = tuple({p.tensor: np.zeros(p.tensor.shape) for p in halves.params}
                             for _ in range(2))
    noise_a = noise_b = None
    if mc.gumbel_gates:
        noise_a, noise_b = split_gate_noise(noise, mc.n_heads, mc.n_regions,
                                            [len(ex.src_ids) for ex in examples], cut)
    handoff = threading.Barrier(2)
    later = pool.submit(_half, model, examples[cut:], seed, noise_b, tau, step, (n - cut) / n,
                        halves, 1, handoff)
    try:
        a = _half(model, examples[:cut], seed, noise_a, tau, step, cut / n, halves, 0, handoff)
    except threading.BrokenBarrierError:
        later.result()          # the worker's half broke the handoff: raise its error
        raise
    except BaseException:
        later.exception()       # wait for the worker; this half's error is the one raised
        raise
    b = later.result()
    halves.tail = (pool, a[2] + b[2])
    if a[1] is None:
        return a[0] + b[0], None
    return a[0] + b[0], GateStats(open=np.concatenate([a[1].open, b[1].open]),
                                  count=np.concatenate([a[1].count, b[1].count]))


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
    params = model.named_parameters()
    halves = _Halves(params)
    state = AdamState()
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
                value, gates = _step(model, [dataset.train[int(i)] for i in idx], cfg.seed,
                                     src, cfg.tau_at(step, total_steps), step, pool, halves)
                if gates is not None:
                    gate_means.extend(gates.open[:, 0] / gates.count[:, 0])
                adam_step(params, state, cfg, halves)
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
                alpha_eff=model.alpha_eff(),
                mean_train_gate=float(np.mean(gate_means)) if gate_means else None,
            )
            log.epochs.append(stats)
            if on_epoch_end is not None:
                on_epoch_end(epoch, stats)
    return log
