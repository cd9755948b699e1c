"""The benchmark's three workloads, each driven through the package's
public API.

A workload has three parts.  ``prepare(seed)`` generates the dataset and
builds the model; ``warm_up(state)`` runs every code path the timed work
will use once, so that no timed repeat pays first-call costs; ``repeat(state)``
does one fixed unit of timed work and returns a :class:`Pass`.  Every repeat
of a workload in one run does the same computation from the same seeded
start, so the outputs it fingerprints must agree bit for bit.

Every workload reports the same end-to-end metrics, each measuring that
workload's own main operation (training or greedy decoding):

- ``tokens_per_s``: decoder positions per second;
- ``pass_s``: wall seconds of one pass, the workload's fixed unit of work;
- ``heldout_loss``: mean teacher-forced loss of the workload's model, after
  its training if it trains, on its test sentences, which it never trains
  on.  It is taken outside the timed spans.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from gumbel_mmt import autodiff, data, errors, model, training

from .stats import MIN_TAIL, percentile


@dataclass
class Pass:
    """One timed repeat.

    ``values`` holds what the metrics are computed from.  ``verify`` runs
    the output checks after timing, and returns one fingerprint per
    operation, or None for an operation whose output failed a check.
    """

    values: dict
    verify: Callable[[], list]


def model_config_for(ds: data.Dataset, **overrides) -> model.ModelConfig:
    """Size the model from the dataset, as any correct caller must.

    The package's defaults disagree: ``SyntheticTaskSpec()`` builds a
    51-token target vocabulary and ``ModelConfig()`` has ``vocab_tgt=50``,
    so training with both defaults dies inside ``embedding_lookup``.
    """
    return model.ModelConfig(vocab_src=len(ds.src_vocab), vocab_tgt=len(ds.tgt_vocab),
                             n_regions=ds.spec.n_regions, d_image=ds.spec.d_image,
                             **overrides)


def fingerprint(loss: float):
    """The exact bits of a loss, or None for a non-finite one."""
    return loss.hex() if math.isfinite(loss) else None


def loss_fingerprints(log: training.TrainLog | None, steps: int) -> list:
    """One fingerprint per training step.  A pass whose ``train`` raised
    fails every step."""
    if log is None:
        return [None] * steps
    return [fingerprint(v) for v in log.step_losses]


def decoder_positions(examples: list[data.Example]) -> int:
    """Teacher-forced decoder positions: every target token after BOS."""
    return sum(len(ex.tgt_ids) - 1 for ex in examples)


def heldout_loss(m: model.MMTModel, ds: data.Dataset, seed: int) -> float:
    return training.teacher_forced_loss(m, ds.test, seed)


def training_metrics(passes: list[Pass]) -> dict[str, float]:
    """End-to-end metrics of a training workload.  ``tokens_per_s`` is a
    median over epochs; an epoch's wall time includes its validation."""
    return {
        "tokens_per_s": statistics.median(
            p.values["tokens"] / s for p in passes for s in p.values["epoch_s"]),
        "pass_s": statistics.median(p.values["pass_s"] for p in passes),
        "heldout_loss": passes[0].values["heldout_loss"],
    }


def training_notes(passes: list[Pass]) -> list[str]:
    rates = [p.values["examples"] / s for p in passes for s in p.values["epoch_s"]]
    return [f"training: {statistics.median(rates):.4g} examples/s (median over "
            f"{len(rates)} epochs), last-epoch training loss {passes[0].values['loss_end']:.6g}"]


def timed_train(m: model.MMTModel, ds: data.Dataset, cfg: training.TrainConfig):
    """Run ``train`` and return (log or None if it aborted, per-epoch wall
    seconds, total wall seconds)."""
    marks = [time.perf_counter()]
    try:
        log = training.train(m, ds, cfg,
                             on_epoch_end=lambda *_: marks.append(time.perf_counter()))
    except errors.TrainingError:
        log = None
    wall = time.perf_counter() - marks[0]
    return log, [b - a for a, b in zip(marks, marks[1:])], wall


def warm_up_training(m: model.MMTModel, ds: data.Dataset, seed: int) -> None:
    """One tiny epoch: forward, backward, Adam, greedy decoding and the
    teacher-forced validation loss each run once."""
    tiny = dataclasses.replace(ds, train=ds.train[:2], val=ds.val[:1])
    training.train(m, tiny, training.TrainConfig(batch_size=2, epochs=1, seed=seed))


def decode_is_consistent(m: model.MMTModel, decoded: list[int], memory: autodiff.Tensor,
                         max_len: int) -> bool:
    """Self-consistency of a greedy decode: one teacher-forced pass over BOS
    plus the output must give each emitted token, and the EOS that ended a
    short output, as its row's argmax.  This holds for any correct
    implementation of greedy decoding, cached or not."""
    with autodiff.no_grad():
        logits = m.decode([data.BOS_ID] + decoded, memory).data
    expected = decoded + ([data.EOS_ID] if len(decoded) < max_len else [])
    return logits[:len(expected)].argmax(axis=1).tolist() == expected


def decode_steps(decoded: list[int], max_len: int) -> int:
    """Decoder steps: the emitted tokens plus the EOS that ended a short output."""
    return len(decoded) + (len(decoded) < max_len)


def chance_threshold(n_ambiguous: int) -> float:
    """Two standard errors above the 0.5 a model ignoring the image gets on
    the two-way ambiguous token."""
    return 0.5 + 2.0 * math.sqrt(0.25 / n_ambiguous)


@dataclass
class State:
    seed: int
    ds: data.Dataset
    cfg: model.ModelConfig
    model: model.MMTModel


class TrainDefault:
    """Training throughput of the default model on 6-10 token sentences."""

    name = "train-default"
    batches = 4  # of 16 examples per epoch
    epochs = 2  # per pass
    heldout = 32  # sentences
    min_passes = 1

    def prepare(self, seed: int) -> State:
        ds = data.generate_dataset(data.SyntheticTaskSpec(
            n_train=16 * self.batches, n_val=2, n_test=self.heldout, seed=seed))
        cfg = model_config_for(ds)
        return State(seed, ds, cfg, model.MMTModel(cfg, seed))

    def warm_up(self, st: State) -> None:
        warm_up_training(st.model, st.ds, st.seed)

    def repeat(self, st: State) -> Pass:
        m = model.MMTModel(st.cfg, st.seed)
        log, epochs, wall = timed_train(m, st.ds, training.TrainConfig(
            batch_size=16, epochs=self.epochs, seed=st.seed))
        loss = heldout_loss(m, st.ds, st.seed) if log else math.nan
        values = {"tokens": decoder_positions(st.ds.train), "examples": len(st.ds.train),
                  "epoch_s": epochs, "pass_s": wall, "heldout_loss": loss,
                  "loss_end": log.epochs[-1].train_loss if log else math.nan}
        return Pass(values, lambda: loss_fingerprints(log, self.epochs * self.batches)
                    + [fingerprint(loss)])

    def metrics(self, st: State, passes: list[Pass]) -> dict[str, float]:
        return training_metrics(passes)

    def notes(self, passes: list[Pass]) -> list[str]:
        return training_notes(passes)


class DecodeLong:
    """Greedy decoding of 20-28 token sentences by the untrained default
    model, one sentence at a time (closed loop, one caller).

    --seed picks the sentences; the model's init seed is pinned.  An
    untrained model stops wherever its argmax happens to be EOS: from init
    seed 4 half the sentences stop within a few tokens, from init seed 0
    none of 24 did, so every step decodes a long prefix.
    """

    name = "decode-long"
    sentences = 32  # per pass
    min_passes = math.ceil(10 * MIN_TAIL / sentences)  # p90 needs 10 samples beyond it
    model_seed = 0

    def prepare(self, seed: int) -> State:
        ds = data.generate_dataset(data.SyntheticTaskSpec(
            seq_len_min=20, seq_len_max=28, n_train=0, n_val=0, n_test=self.sentences,
            seed=seed))
        cfg = model_config_for(ds)
        return State(self.model_seed, ds, cfg, model.MMTModel(cfg, self.model_seed))

    def warm_up(self, st: State) -> None:
        ex = st.ds.test[0]
        st.model.greedy_decode(ex.src_ids, ex.image, 2)

    def repeat(self, st: State) -> Pass:
        ms_per_token, steps, seconds, outputs = [], [], [], []
        for ex in st.ds.test:
            max_len = len(ex.tgt_ids)  # reference length (no BOS/EOS) + 2
            t0 = time.perf_counter()
            decoded, enc = st.model.greedy_decode(ex.src_ids, ex.image, max_len)
            dt = time.perf_counter() - t0
            n = decode_steps(decoded, max_len)
            ms_per_token.append(dt * 1e3 / n)
            steps.append(n)
            seconds.append(dt)
            outputs.append((decoded, enc.fused, max_len))

        def verify():
            return [" ".join(map(str, d)) if decode_is_consistent(st.model, d, mem, k) else None
                    for d, mem, k in outputs]

        return Pass({"ms_per_token": ms_per_token, "steps": steps, "seconds": seconds},
                    verify)

    def metrics(self, st: State, passes: list[Pass]) -> dict[str, float]:
        return {
            "tokens_per_s": statistics.median(
                sum(p.values["steps"]) / sum(p.values["seconds"]) for p in passes),
            "pass_s": statistics.median(sum(p.values["seconds"]) for p in passes),
            # The model is fixed, so the loss is taken once, after timing.
            "heldout_loss": heldout_loss(st.model, st.ds, st.seed),
        }

    def notes(self, passes: list[Pass]) -> list[str]:
        samples = [x for p in passes for x in p.values["ms_per_token"]]
        return [f"ms per token per sentence over {len(samples)} sentences: "
                f"p50 {percentile(samples, 50):.4g}, p90 {percentile(samples, 90):.4g}"]


class LearnSmall:
    """The learning check: a small model trained to convergence on the
    disambiguation task, then evaluated on held-out sentences.

    Its seeds are pinned (the default dataset seed, model and training
    seed 0) rather than taken from --seed: its losses are exact regression
    checks, and across dataset and model seeds amb_acc alone ranges over
    0.75-0.89.
    """

    name = "learn-small"
    min_passes = 2
    seed = 0
    epochs = 6

    def prepare(self, seed: int) -> State:
        ds = data.generate_dataset(data.SyntheticTaskSpec(
            n_regions=12, d_image=32, n_train=400, n_val=50, n_test=100))
        cfg = model_config_for(ds, n_enc_layers=1, n_dec_layers=1, d_model=32, d_ffn=128)
        return State(self.seed, ds, cfg, model.MMTModel(cfg, self.seed))

    def warm_up(self, st: State) -> None:
        warm_up_training(st.model, st.ds, st.seed)

    def repeat(self, st: State) -> Pass:
        m = model.MMTModel(st.cfg, st.seed)
        cfg = training.TrainConfig(epochs=self.epochs, seed=st.seed)
        steps = self.epochs * math.ceil(len(st.ds.train) / cfg.batch_size)
        log, epochs, wall = timed_train(m, st.ds, cfg)
        loss, result, eval_s = math.nan, None, 0.0
        if log:
            loss = heldout_loss(m, st.ds, st.seed)
            t0 = time.perf_counter()
            result = training.evaluate(m, st.ds.test, seed=st.seed)
            eval_s = time.perf_counter() - t0
        values = {"tokens": decoder_positions(st.ds.train), "examples": len(st.ds.train),
                  "epoch_s": epochs, "pass_s": wall + eval_s, "heldout_loss": loss,
                  "loss_end": log.epochs[-1].train_loss if log else math.nan,
                  "eval_examples_per_s": len(st.ds.test) / eval_s if eval_s else math.nan,
                  "result": result}
        threshold = chance_threshold(sum(ex.meta.amb_tgt_pos >= 0 for ex in st.ds.test))

        def verify():
            # The model must still use the image: it must beat chance on the
            # ambiguous token and open its gates more on relevant regions.
            ok = (result is not None and result.ambiguous_token_accuracy > threshold
                  and result.relevant_open_rate > result.noise_open_rate)
            return (loss_fingerprints(log, steps) + [fingerprint(loss)]
                    + [repr(result) if ok else None])

        return Pass(values, verify)

    def metrics(self, st: State, passes: list[Pass]) -> dict[str, float]:
        return training_metrics(passes)

    def notes(self, passes: list[Pass]) -> list[str]:
        r = passes[0].values["result"]
        if r is None:
            return [*training_notes(passes), "final evaluate did not run: train aborted"]
        rate = statistics.median(p.values["eval_examples_per_s"] for p in passes)
        return [*training_notes(passes),
                f"final evaluate: {rate:.4g} examples/s (median over passes), "
                f"amb_acc {r.ambiguous_token_accuracy:.4g}, bleu {r.bleu:.4g}, "
                f"relevant_open_rate {r.relevant_open_rate:.4g}, "
                f"noise_open_rate {r.noise_open_rate:.4g}"]


WORKLOADS = {w.name: w for w in (TrainDefault(), DecodeLong(), LearnSmall())}
