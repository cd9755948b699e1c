import dataclasses
import math

import numpy as np
import pytest

from gumbel_mmt import autodiff as ad
from gumbel_mmt import training
from gumbel_mmt.autodiff import Parameter, Tensor
from gumbel_mmt.data import SyntheticTaskSpec, generate_dataset
from gumbel_mmt.errors import ConfigError, TrainingError
from gumbel_mmt.gumbel import GateMode, NoiseSource
from gumbel_mmt.model import LossWeightMode, MMTModel, ModelConfig
from gumbel_mmt.training import (AdamState, Metrics, TrainConfig, adam_step, evaluate,
                                 teacher_forced_loss, train)


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# -- Adam ------------------------------------------------------------------------

def hand_adam(grads, lr, b1, b2, eps):
    """Reference bias-corrected Adam on one scalar: the parameter deltas."""
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        out.append(-lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps))
    return out


@pytest.mark.parametrize("clip_norm", [0.0, 100.0], ids=["off", "not_reached"])
def test_adam_step_matches_hand_computed_update(clip_norm):
    cfg = TrainConfig(lr=0.1, beta1=0.8, beta2=0.9, eps=1e-8, clip_norm=clip_norm)
    p = Parameter("w", Tensor(np.array([1.0, -2.0]), grad=True))
    state = AdamState()
    steps = [np.array([0.5, -3.0]), np.array([-1.0, 0.25])]
    want = [hand_adam([g[i] for g in steps], 0.1, 0.8, 0.9, 1e-8) for i in range(2)]
    start = p.tensor.data.copy()
    for k, g in enumerate(steps):
        p.tensor.grad[:] = g
        adam_step([p], state, cfg)
        expected = start + [sum(want[i][:k + 1]) for i in range(2)]
        np.testing.assert_allclose(p.tensor.data, expected, rtol=1e-14)
    assert state.t == 2


def test_adam_step_clips_by_global_norm():
    cfg = TrainConfig(lr=0.1, beta1=0.8, beta2=0.9, eps=1e-8, clip_norm=1.0)
    a = Parameter("a", Tensor(np.zeros(1), grad=True))
    b = Parameter("b", Tensor(np.zeros(1), grad=True))
    state = AdamState()
    # Step 1 has global norm 5 and is scaled by 1/5; step 2 has norm 0.5 and
    # is not.  The moments carry the clipped step into step 2.
    for ga, gb in ((3.0, 4.0), (0.3, -0.4)):
        a.tensor.grad[:] = ga
        b.tensor.grad[:] = gb
        adam_step([a, b], state, cfg)
    assert a.tensor.data[0] == pytest.approx(sum(hand_adam([0.6, 0.3], 0.1, 0.8, 0.9, 1e-8)),
                                             rel=1e-14)
    assert b.tensor.data[0] == pytest.approx(sum(hand_adam([0.8, -0.4], 0.1, 0.8, 0.9, 1e-8)),
                                             rel=1e-14)


def test_adam_step_is_bit_identical_to_the_textbook_expressions():
    # The in-place update must give exactly what the plain expressions give,
    # and keep the moment arrays it allocated on the first step.
    cfg = TrainConfig(lr=0.01, clip_norm=1.0)
    rng = np.random.default_rng(0)
    # Zero start: the parameters are the summed updates, with every bit of them.
    params = [Parameter("w", Tensor(np.zeros((3, 4)), grad=True)),
              Parameter("raw", Tensor(np.asarray(0.0), grad=True))]
    want = {p.name: p.tensor.data.copy() for p in params}
    m = {name: np.zeros_like(w) for name, w in want.items()}
    v = {name: np.zeros_like(w) for name, w in want.items()}
    state = AdamState()
    for t in range(1, 4):
        for p in params:
            p.tensor.grad[...] = rng.normal(size=p.tensor.shape) * 2.0
        norm = np.sqrt(sum(float((p.tensor.grad ** 2).sum()) for p in params))
        clip = cfg.clip_norm / norm if norm > cfg.clip_norm else 1.0
        for p in params:
            g = p.tensor.grad * clip
            m[p.name] = m[p.name] + (1.0 - cfg.beta1) * (g - m[p.name])
            v[p.name] = v[p.name] + (1.0 - cfg.beta2) * (g * g - v[p.name])
            want[p.name] = want[p.name] - cfg.lr * (m[p.name] / (1.0 - cfg.beta1 ** t)) / (
                np.sqrt(v[p.name] / (1.0 - cfg.beta2 ** t)) + cfg.eps)
        moments = dict(state.m)
        adam_step(params, state, cfg)
        for p in params:
            np.testing.assert_array_equal(p.tensor.data, want[p.name])
            np.testing.assert_array_equal(state.m[p.name], m[p.name])
            np.testing.assert_array_equal(state.v[p.name], v[p.name])
            assert t == 1 or state.m[p.name] is moments[p.name]


def test_adam_step_rejects_non_finite_gradient():
    p = Parameter("bad.w", Tensor(np.zeros(2), grad=True))
    p.tensor.grad[:] = [1.0, np.nan]
    with pytest.raises(TrainingError, match="bad.w"):
        adam_step([p], AdamState(), TrainConfig())


# -- temperature schedule ---------------------------------------------------------

def test_tau_at_endpoints():
    cfg = TrainConfig(tau=2.0, tau_end=0.5)
    assert cfg.tau_at(0, 10) == 2.0
    assert cfg.tau_at(9, 10) == 0.5
    assert cfg.tau_at(0, 1) == 2.0


# -- configuration ------------------------------------------------------------------

@pytest.mark.parametrize("field,value,pattern", [
    ("lr", math.nan, r"^lr must be positive and finite, got nan$"),
    ("lr", 0.0, r"^lr must"),
    ("lr", math.inf, r"^lr must"),
    ("eps", math.inf, r"^eps must be positive and finite, got inf$"),
    ("eps", -1e-9, r"^eps must"),
    ("tau", math.nan, r"^tau must"),
    ("tau", 0.0, r"^tau must"),
    ("tau_end", math.nan, r"^tau_end must"),
    ("tau_end", math.inf, r"^tau_end must"),
    ("clip_norm", math.nan, r"^clip_norm must be a number"),
    ("beta1", math.nan, r"^betas must lie in \(0,1\), got nan"),
    ("beta2", 1.0, r"^betas must lie in \(0,1\), got 0.9, 1.0"),
])
def test_train_config_rejects_bad_values_naming_the_field(field, value, pattern):
    with pytest.raises(ConfigError, match=pattern):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("clip_norm", [0.0, -1.0, math.inf])
def test_train_config_accepts_any_clip_norm_but_nan(clip_norm):
    # clip_norm <= 0 turns clipping off; an infinite bound is never reached.
    assert TrainConfig(clip_norm=clip_norm).clip_norm == clip_norm


# -- the training loop ------------------------------------------------------------

def tiny_task():
    ds = generate_dataset(SyntheticTaskSpec(
        vocab_size=12, seq_len_min=2, seq_len_max=5, n_regions=4, d_image=6,
        n_relevant_regions=1, n_train=10, n_val=2, n_test=3, seed=3))
    cfg = ModelConfig(n_enc_layers=1, n_dec_layers=1, n_heads=2, d_model=8, d_ffn=16,
                      d_image=6, n_regions=4, vocab_src=len(ds.src_vocab),
                      vocab_tgt=len(ds.tgt_vocab),
                      loss_alpha=LossWeightMode("trainable", 0.5))
    return ds, cfg


TINY_TRAIN = TrainConfig(batch_size=4, epochs=2, seed=5, tau=1.0, tau_end=0.5)

# Step losses of tiny_task() under TINY_TRAIN, recorded with the loop that
# ran one example at a time; a batched step reassociates sums, so they agree
# to rounding, not bit for bit.
GOLDEN_STEP_LOSSES = [2.8223932677579793, 2.750271447098495, 2.6251126648103584,
                      2.7149738481658043, 2.688651480304401, 2.6122398526265287]
GOLDEN_TRAIN_GATES = [0.47128846843358857, 0.5163118823128816]
GOLDEN_TEST_LOSS = 2.829031029604831


def test_train_matches_golden_losses():
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    log = train(m, ds, TINY_TRAIN)
    np.testing.assert_allclose(log.step_losses, GOLDEN_STEP_LOSSES, rtol=0, atol=1e-10)
    np.testing.assert_allclose([e.mean_train_gate for e in log.epochs], GOLDEN_TRAIN_GATES,
                               rtol=0, atol=1e-10)
    assert teacher_forced_loss(m, ds.test, TINY_TRAIN.seed) == pytest.approx(
        GOLDEN_TEST_LOSS, abs=1e-10)


def test_train_is_deterministic_in_seed_and_config():
    ds, cfg = tiny_task()
    runs = [train(MMTModel(cfg, seed=7), ds, TINY_TRAIN).step_losses for _ in range(2)]
    assert runs[0] == runs[1]
    other = train(MMTModel(cfg, seed=7), ds, dataclasses.replace(TINY_TRAIN, seed=6))
    assert other.step_losses != runs[0]


# evaluate() of the tiny model after TINY_TRAIN on its train, val and test
# splits (15 sentences), recorded at the commit that decoded one sentence at a
# time with a full recompute per step.  The batched, cached path must give the
# same tokens and gate counts, so every field matches exactly.
GOLDEN_METRICS = Metrics(
    bleu=float.fromhex("0x1.3a7a8ea472c27p-5"),
    token_accuracy=float.fromhex("0x1.7e4b17e4b17e4p-5"),
    ambiguous_token_accuracy=0.0,
    mean_gate_open_rate=float.fromhex("0x1.c242424242424p-2"),
    relevant_open_rate=float.fromhex("0x1.1b1b1b1b1b1b2p-2"),
    noise_open_rate=float.fromhex("0x1.f9f9f9f9f9fa0p-2"),
)


@pytest.mark.parametrize("eval_batch", [64, 4], ids=["one_batch", "four_batches"])
def test_evaluate_matches_golden_metrics(eval_batch, monkeypatch):
    monkeypatch.setattr(training, "_EVAL_BATCH", eval_batch)
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    train(m, ds, TINY_TRAIN)
    assert evaluate(m, ds.train + ds.val + ds.test, seed=TINY_TRAIN.seed) == GOLDEN_METRICS


# The tiny model after TINY_TRAIN, encoding its 15 sentences as one padded
# batch, recorded at the commit that attended head by head: the infer-mode
# gate sums and counts per example (all, relevant, noise regions), and, for a
# train-mode encode from NoiseSource(11), the values drawn and the next draw.
GOLDEN_GATE_OPEN = [[22, 4, 18], [22, 5, 17], [16, 4, 12], [24, 2, 22], [7, 2, 5],
                    [18, 1, 17], [24, 5, 19], [10, 2, 8], [11, 3, 8], [17, 1, 16],
                    [27, 3, 24], [35, 7, 28], [19, 3, 16], [35, 3, 32], [12, 2, 10]]
GOLDEN_GATE_ROWS = [7, 5, 7, 6, 5, 5, 7, 4, 5, 4, 6, 6, 6, 7, 5]   # real text rows
GOLDEN_NOISE_DRAWN = 1360
GOLDEN_NEXT_UNIFORM = float.fromhex("0x1.c8e89f27e9222p-2")


def test_gate_stats_and_noise_stream_match_golden():
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    train(m, ds, TINY_TRAIN)
    split = ds.train + ds.val + ds.test
    src, _, images = training._batch(m, split, TINY_TRAIN.seed)
    relevant = [ex.meta.relevant_regions for ex in split]
    enc = m.encode(src, images, None, GateMode.infer())
    assert isinstance(enc.gates, Tensor)
    assert enc.gates.shape == (len(split), cfg.n_heads, src.shape[1], cfg.n_regions)
    stats = enc.gate_stats(relevant)
    np.testing.assert_array_equal(stats.open, GOLDEN_GATE_OPEN)
    per_row = cfg.n_heads * np.array(GOLDEN_GATE_ROWS)[:, None]
    np.testing.assert_array_equal(stats.count, per_row * [4, 1, 3])   # 4 regions, 1 relevant

    noise = NoiseSource(11)
    m.encode(src, images, noise, GateMode.train(), tau=0.5)
    assert noise.n_drawn == GOLDEN_NOISE_DRAWN
    assert noise.uniform(1)[0] == GOLDEN_NEXT_UNIFORM


def test_teacher_forced_loss_is_mean_of_example_losses():
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    whole = teacher_forced_loss(m, ds.test, 0)
    each = [teacher_forced_loss(m, [ex], 0) for ex in ds.test]
    assert whole == pytest.approx(np.mean(each), rel=1e-12)


# -- rejecting data the model cannot read -----------------------------------------

def test_empty_split_is_rejected_before_compute():
    _, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    ad.reset_tape()
    for run in (teacher_forced_loss, evaluate):
        with pytest.raises(ConfigError, match=f"^{run.__name__} on empty split$"):
            run(m, [], 0)
    assert ad._tape == []


def test_default_spec_fits_the_default_config():
    ds = generate_dataset(SyntheticTaskSpec(n_train=2, n_val=1, n_test=1))
    m = MMTModel(ModelConfig())
    training.check_compatible(m.cfg, ds.train + ds.val + ds.test, ds)
    ends = []
    log = train(m, ds, TrainConfig(batch_size=2, epochs=1),
                on_epoch_end=lambda epoch, stats: ends.append((epoch, stats)))
    assert len(log.step_losses) == 1 and math.isfinite(log.step_losses[0])
    assert ends == [(0, log.epochs[0])]


def test_too_small_target_vocabulary_is_rejected_before_compute():
    ds = generate_dataset(SyntheticTaskSpec(n_train=2, n_val=1, n_test=1))
    m = MMTModel(ModelConfig(vocab_tgt=50))
    before = [p.tensor.data.copy() for p in m.named_parameters()]
    # ds.train holds both labels, so the last target id, 50, is in use
    for run in (lambda: train(m, ds, TrainConfig()),
                lambda: evaluate(m, ds.train),
                lambda: teacher_forced_loss(m, ds.train, 0)):
        with pytest.raises(ConfigError, match=r"vocab_tgt\D+51\D+vocab_tgt=50"):
            run()
    assert all((p.tensor.data == b).all() for p, b in zip(m.named_parameters(), before))


@pytest.mark.parametrize("field,value,pattern", [
    ("vocab_src", 30, r"vocab_src=\d+, but ModelConfig has vocab_src=30"),
    ("n_regions", 5, r"n_regions=4, but ModelConfig has n_regions=5"),
    ("d_image", 7, r"d_image=6, but ModelConfig has d_image=7"),
    ("max_positions", 4, r"max_positions>=\d+, but ModelConfig has max_positions=4"),
])
def test_compatibility_check_names_field_and_values(field, value, pattern):
    ds, cfg = tiny_task()
    m = MMTModel(dataclasses.replace(cfg, **{field: value}))
    with pytest.raises(ConfigError, match=pattern):
        train(m, ds, TINY_TRAIN)
