"""Adam optimisation, the training loop, and split evaluation.

Everything downstream of a (seed, config) pair is deterministic: parameter
init, shuffling, gate noise, and therefore the whole loss trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .bleu import corpus_bleu
from .data import Dataset, Example, random_image_for
from .errors import ConfigError, TrainingError
from .gumbel import GateMode, NoiseSource
from .model import MMTModel, ModelConfig, pad_batch

# stream tags for the per-purpose RNGs derived from the training seed
_NOISE_STREAM = 1
_SHUFFLE_STREAM = 2

# examples per forward pass of teacher_forced_loss, and per greedy decode of evaluate
_EVAL_BATCH = 64


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
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")

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


def global_grad_norm(params: list[Parameter]) -> float:
    """Euclidean norm of all gradients together; inf or nan where one of them
    is not finite."""
    total = 0.0
    for p in params:
        g = p.tensor.grad.reshape(-1)
        total += float(np.dot(g, g))
    return float(np.sqrt(total))


def adam_step(params: list[Parameter], state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update in place, after global-norm clipping.

    Aborts on any non-finite gradient, naming the offending parameter; the
    gradients are read once for the norm, and scanned for the culprit only
    when the norm is not finite.  The moments are allocated on the first
    step; each step then updates them and the parameters with in-place
    ufuncs, in the order of the textbook expressions
    m += (1 - beta1)(g - m), v += (1 - beta2)(g^2 - v),
    w -= lr (m / bc1) / (sqrt(v / bc2) + eps).
    """
    norm = global_grad_norm(params)
    if not np.isfinite(norm):
        for p in params:
            if not np.isfinite(p.tensor.grad).all():
                raise TrainingError(f"non-finite gradient in parameter {p.name!r}")
    clip = 1.0
    if cfg.clip_norm > 0 and norm > cfg.clip_norm:
        clip = cfg.clip_norm / norm
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for p in params:
        # Explicit out= arrays keep 0-d parameters arrays, not numpy scalars.
        g = np.multiply(p.tensor.grad, clip, out=np.empty_like(p.tensor.grad))
        if p.name not in state.m:
            state.m[p.name] = np.zeros_like(g)
            state.v[p.name] = np.zeros_like(g)
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


def _image_for(model: MMTModel, ex: Example, seed: int) -> np.ndarray | None:
    cfg = model.cfg
    if cfg.ablation.text_only:
        return None
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


def evaluate(model: MMTModel, split: list[Example], seed: int = 0,
             max_len: int | None = None) -> Metrics:
    """Greedy-decode the split with infer-mode gates [score > 0], one padded batch of up
    to _EVAL_BATCH examples per ``greedy_decode`` call, and aggregate BLEU,
    token accuracy, ambiguous-token accuracy, and the gate open rates over
    all regions, relevant regions and noise regions.  Gates are counted on
    each example's real text rows only, never on padding."""
    if not split:
        raise ConfigError("evaluate on empty split")
    check_compatible(model.cfg, split)
    if max_len is None:
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
    check_compatible(model.cfg, dataset.train + dataset.val, dataset)
    params = model.named_parameters()
    state = AdamState()
    src = NoiseSource([cfg.seed, _NOISE_STREAM])
    log = TrainLog()
    n = len(dataset.train)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = steps_per_epoch * cfg.epochs

    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, _SHUFFLE_STREAM, epoch]).permutation(n)
        epoch_losses = []
        gate_means = []
        for b in range(steps_per_epoch):
            idx = order[b * cfg.batch_size: (b + 1) * cfg.batch_size]
            if idx.size == 0:
                continue
            step = epoch * steps_per_epoch + b
            tau = cfg.tau_at(step, total_steps)
            ad.zero_grads(params)
            ad.reset_tape()
            src_ids, tgt_ids, images = _batch(model, [dataset.train[int(i)] for i in idx],
                                              cfg.seed)
            loss, enc = model.loss(src_ids, tgt_ids, images, src, GateMode.train(), tau)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"non-finite loss at step {step}")
            ad.backward(loss)
            ad.reset_tape()
            mg = enc.mean_gate()
            if mg is not None:
                gate_means.extend(mg)
            adam_step(params, state, cfg)
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
