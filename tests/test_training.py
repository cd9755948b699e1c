import contextlib
import dataclasses
import gc
import math
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gumbel_mmt import autodiff as ad
from gumbel_mmt import training
from gumbel_mmt.autodiff import Parameter, Tensor
from gumbel_mmt.data import EOS_ID, SyntheticTaskSpec, generate_dataset, random_image_for
from gumbel_mmt.errors import ConfigError, TrainingError
from gumbel_mmt.gumbel import GateMode, NoiseSource, gate_noise
from gumbel_mmt.model import AblationFlags, MMTModel, ModelConfig
from gumbel_mmt.training import (Metrics, TrainConfig, adam_step, evaluate,
                                 teacher_forced_loss, train)
from helpers import stream_state, summed_adjoints


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# -- Adam ------------------------------------------------------------------------

def arena_of(params):
    """An arena over a parameter store made of params."""
    return training._Arena(ad.ParameterSet(params))


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
    p = Parameter("w", Tensor(np.array([1.0, -2.0])))
    arena = arena_of([p])
    steps = [np.array([0.5, -3.0]), np.array([-1.0, 0.25])]
    want = [hand_adam([g[i] for g in steps], 0.1, 0.8, 0.9, 1e-8) for i in range(2)]
    start = p.tensor.data.copy()
    for k, g in enumerate(steps):
        p.tensor.grad[:] = g
        adam_step(cfg, arena)
        expected = start + [sum(want[i][:k + 1]) for i in range(2)]
        np.testing.assert_allclose(p.tensor.data, expected, rtol=1e-14)
    assert arena.t == 2


def test_adam_step_clips_by_global_norm():
    cfg = TrainConfig(lr=0.1, beta1=0.8, beta2=0.9, eps=1e-8, clip_norm=1.0)
    a = Parameter("a", Tensor(np.zeros(1)))
    b = Parameter("b", Tensor(np.zeros(1)))
    arena = arena_of([a, b])
    # Step 1 has global norm 5 and is scaled by 1/5; step 2 has norm 0.5 and
    # is not.  The moments carry the clipped step into step 2.
    for ga, gb in ((3.0, 4.0), (0.3, -0.4)):
        a.tensor.grad[:] = ga
        b.tensor.grad[:] = gb
        adam_step(cfg, arena)
    assert a.tensor.data[0] == pytest.approx(sum(hand_adam([0.6, 0.3], 0.1, 0.8, 0.9, 1e-8)),
                                             rel=1e-14)
    assert b.tensor.data[0] == pytest.approx(sum(hand_adam([0.8, -0.4], 0.1, 0.8, 0.9, 1e-8)),
                                             rel=1e-14)


def test_adam_step_is_bit_identical_to_the_textbook_expressions():
    # The in-place update must give exactly what the plain expressions give,
    # and keep the arena's moment arrays.
    cfg = TrainConfig(lr=0.01, clip_norm=1.0)
    rng = np.random.default_rng(0)
    # Zero start: the parameters are the summed updates, with every bit of them.
    params = [Parameter("w", Tensor(np.zeros((3, 4)))),
              Parameter("raw", Tensor(np.asarray(0.0)))]
    want = {p.name: p.tensor.data.copy() for p in params}
    m = {name: np.zeros_like(w) for name, w in want.items()}
    v = {name: np.zeros_like(w) for name, w in want.items()}
    store = ad.ParameterSet(params)
    arena = training._Arena(store)
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
        moments = arena.m, arena.v
        adam_step(cfg, arena)
        assert arena.t == t
        assert arena.m is moments[0] and arena.v is moments[1]
        for p, m_view, v_view in zip(params, store.views(arena.m), store.views(arena.v)):
            np.testing.assert_array_equal(p.tensor.data, want[p.name])
            np.testing.assert_array_equal(m_view, m[p.name])
            np.testing.assert_array_equal(v_view, v[p.name])


def test_adam_step_rejects_non_finite_gradient():
    p = Parameter("bad.w", Tensor(np.zeros(2)))
    arena = arena_of([p])
    p.tensor.grad[:] = [1.0, np.nan]
    with pytest.raises(TrainingError, match="bad.w"):
        adam_step(TrainConfig(), arena)
    assert arena.t == 0 and not arena.m.any() and not arena.v.any()


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
    ("batch_size", 0, r"^batch_size must be >= 1, got 0$"),
    ("epochs", -1, r"^epochs must be >= 0, got -1$"),
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
                      vocab_tgt=len(ds.tgt_vocab))
    return ds, cfg


TINY_TRAIN = TrainConfig(batch_size=4, epochs=2, seed=5, tau=1.0, tau_end=0.5)

# Step losses of tiny_task() under TINY_TRAIN, recorded with the loop that
# ran one example at a time (commit 8e156ad, one BLAS thread, similarity
# weight fixed at 0.5); a batched step reassociates sums, so they agree to
# rounding, not bit for bit.
GOLDEN_STEP_LOSSES = [2.8223932677579793, 2.7503816364766296, 2.625364280836151,
                      2.7153172442811773, 2.6891048548620664, 2.6127226317605925]
GOLDEN_TRAIN_GATES = [0.4712884701013265, 0.5163119436896542]
GOLDEN_TEST_LOSS = 2.82985429285527


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


def test_evaluate_returns_python_floats():
    # A numpy scalar compares equal to its float, but its repr differs, and
    # a caller that prints or serialises the metrics sees np.float64(...).
    ds, cfg = tiny_task()
    metrics = evaluate(MMTModel(cfg, seed=7), ds.train + ds.val + ds.test)
    assert metrics.noise_open_rate is not None
    values = [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]
    assert all(type(x) is float for x in values if x is not None)


def test_evaluate_decodes_no_further_than_max_positions():
    # check_compatible accepts a sentence as long as max_positions; evaluate
    # stops decoding there, even for a model that never emits EOS.
    ds, cfg = tiny_task()
    split = ds.train + ds.val + ds.test
    longest = max(max(len(ex.src_ids), len(ex.tgt_ids)) for ex in split)
    m = MMTModel(dataclasses.replace(cfg, max_positions=longest), seed=7)
    m.out_b.data[EOS_ID] = -100.0   # never stop early
    assert isinstance(evaluate(m, split), Metrics)


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
    drawn = np.random.default_rng(11)
    drawn.random(GOLDEN_NOISE_DRAWN)
    assert stream_state(noise) == drawn.bit_generator.state
    assert drawn.random() == GOLDEN_NEXT_UNIFORM


class CountingPool(ThreadPoolExecutor):
    """A one-worker pool that counts the work submitted to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


@pytest.mark.parametrize("n", [4, 5], ids=["even", "odd"])
@pytest.mark.parametrize("ablation", ["none", "vanilla_attention"])
def test_split_step_matches_the_serial_step(n, ablation, monkeypatch):
    # The split rule keeps the tiny model's batches serial; with the size
    # constant lowered, the second half runs on the pool.  The halves'
    # gradients sum in another order, so they agree to rounding, and the
    # noise stream ends where the serial step leaves it.
    ds, cfg = tiny_task()
    flags = AblationFlags() if ablation == "none" else AblationFlags(vanilla_attention=True)
    cfg = dataclasses.replace(cfg, ablation=flags)
    runs = []
    for split in (False, True):
        if split:
            monkeypatch.setattr(training, "_SPLIT_MIN", 0)
        m = MMTModel(cfg, seed=7)
        noise = NoiseSource(11)
        pool = CountingPool()
        try:
            value, gates, tail = training._step(m, ds.train[:n], 5, noise, 0.5, 0, pool,
                                                training._Arena(m.parameters))
        finally:
            pool.shutdown()
        assert pool.submitted == 2 * split   # the worker's half, then its merge
        assert (tail is None) != split
        runs.append((value, gates, [p.tensor.grad.copy() for p in m.parameters.params],
                     noise._rng.random()))
    (value, gates, grads, uniform), (split_value, split_gates, split_grads, split_uniform) = runs
    assert split_value == pytest.approx(value, rel=1e-12, abs=0)
    for serial_grad, split_grad in zip(grads, split_grads):
        np.testing.assert_allclose(split_grad, serial_grad, rtol=0, atol=1e-10)
    assert split_uniform == uniform
    if ablation == "vanilla_attention":
        assert gates is None and split_gates is None
    else:
        assert split_gates.shape == gates.shape == (n,)
        np.testing.assert_allclose(split_gates, gates, rtol=0, atol=1e-12)


def test_split_training_matches_the_golden_losses(monkeypatch):
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    log = train(m, ds, TINY_TRAIN)
    np.testing.assert_allclose(log.step_losses, GOLDEN_STEP_LOSSES, rtol=0, atol=1e-10)
    np.testing.assert_allclose([e.mean_train_gate for e in log.epochs], GOLDEN_TRAIN_GATES,
                               rtol=0, atol=1e-10)
    assert teacher_forced_loss(m, ds.test, TINY_TRAIN.seed) == pytest.approx(
        GOLDEN_TEST_LOSS, abs=1e-10)


def test_a_non_finite_loss_on_the_worker_aborts_the_split_step(monkeypatch):
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    batch = ds.train[:2] + nan_images(ds).train[2:4]
    m = MMTModel(cfg, seed=7)
    pool = CountingPool()
    try:
        with pytest.raises(TrainingError, match="^non-finite loss at step 3$"):
            training._step(m, batch, 5, NoiseSource(11), 0.5, 3, pool,
                           training._Arena(m.parameters))
    finally:
        pool.shutdown()
    assert pool.submitted == 1
    assert all((p.tensor.grad == 0.0).all() for p in m.parameters.params)


@pytest.mark.parametrize("nan_half", ["worker", "caller"])
def test_a_failed_split_step_leaves_the_arena_clean(nan_half, monkeypatch):
    # Whichever half fails, the other half finishes its backward first: the
    # caller's into .grad, the worker's into its buffer.  A good split step
    # on the same arena must give what it gives on a fresh arena and model:
    # loss, .grad and squared norms, bit for bit.
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    bad = ds.train[:2] + nan_images(ds).train[2:4]
    if nan_half == "caller":
        bad = nan_images(ds).train[:2] + ds.train[2:4]
    runs = []
    for fail_first in (True, False):
        m = MMTModel(cfg, seed=7)
        arena = training._Arena(m.parameters)
        pool = CountingPool()
        try:
            if fail_first:
                with pytest.raises(TrainingError, match="^non-finite loss at step 3$"):
                    training._step(m, bad, 5, NoiseSource(11), 0.5, 3, pool, arena)
                assert not arena.worker_grad.any()
            value, _, tail = training._step(m, ds.train[4:8], 5, NoiseSource(11), 0.5, 4, pool,
                                            arena)
        finally:
            pool.shutdown()
        assert pool.submitted == 2 + fail_first
        assert not arena.worker_grad.any()
        runs.append((value.hex(), arena.grad.tobytes(), np.array(tail[1]).tobytes()))
    assert runs[0] == runs[1]


class FuturePool(CountingPool):
    """A counting pool that keeps every future it hands out."""

    def __init__(self):
        super().__init__()
        self.futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future


def test_the_split_tail_matches_the_serial_norm_and_update_bit_for_bit(monkeypatch):
    # Two split steps on identical models: one model's Adam runs by
    # parameter groups on both threads, from the squared norms the merge
    # took; the other's runs serially over the merged .grad.
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    tcfg = dataclasses.replace(TINY_TRAIN, clip_norm=0.05)
    runs = []
    for by_groups in (False, True):
        m = MMTModel(cfg, seed=7)
        params = m.parameters.params
        arena = training._Arena(m.parameters)
        first, second = arena.groups
        assert first and second and first + second == params
        sizes = [sum(p.tensor.size for p in group) for group in arena.groups]
        assert abs(sizes[0] - sizes[1]) <= max(p.tensor.size for p in params)
        pool, noise = FuturePool(), NoiseSource(11)
        try:
            for step, start in enumerate((0, 4, 6)):
                _, _, tail = training._step(m, ds.train[start:start + 4], 5, noise, 0.5, step,
                                            pool, arena)
                assert tail[0] is pool
                assert training._norm(tail[1]) == training._norm(training._squares(params)) > 0.05
                adam_step(tcfg, arena, tail if by_groups else None)
        finally:
            pool.shutdown()
        assert pool.submitted == 3 * (2 + by_groups)
        assert all(f.done() and f.exception() is None for f in pool.futures)
        runs.append((params, arena, m.parameters))
    (params, arena, store), (group_params, group_arena, group_store) = runs
    assert group_arena.t == arena.t == 3
    for p, q, m_view, group_m, v_view, group_v in zip(
            params, group_params, store.views(arena.m), group_store.views(group_arena.m),
            store.views(arena.v), group_store.views(group_arena.v)):
        assert q.tensor.data.tobytes() == p.tensor.data.tobytes()
        assert group_m.tobytes() == m_view.tobytes()
        assert group_v.tobytes() == v_view.tobytes()


def test_the_split_gradient_adds_each_halfs_summed_adjoints_first_half_first(monkeypatch):
    # The merged .grad is (0 + first half's summed adjoint) + second half's,
    # the sum the split step made before leaf contributions were added as
    # they arrive.
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    batch = ds.train[:5]
    m = MMTModel(cfg, seed=7)
    params = m.parameters.params
    lengths = np.array([len(ex.src_ids) for ex in batch])
    whole = gate_noise(NoiseSource(11), cfg.n_heads, cfg.n_regions, lengths, lengths.max())
    noise_a = whole[:3, :, :lengths[:3].max()]
    noise_b = whole[3:, :, :lengths[3:].max()]
    want = [np.zeros(p.tensor.shape) for p in params]
    for part, noise, share in ((batch[:3], noise_a, 3 / 5), (batch[3:], noise_b, 2 / 5)):
        ad.reset_tape()
        loss, _ = m.loss(*training._batch(m, part, 5), noise, GateMode.train(), 0.5)
        adjoints = summed_adjoints(loss, share)
        for w, p in zip(want, params):
            w += adjoints[p.tensor]
    pool = CountingPool()
    try:
        training._step(m, batch, 5, NoiseSource(11), 0.5, 0, pool, training._Arena(m.parameters))
    finally:
        pool.shutdown()
    for w, p in zip(want, params):
        np.testing.assert_array_equal(p.tensor.grad, w)


@pytest.mark.parametrize("group", [0, 1], ids=["caller_group", "worker_group"])
def test_a_non_finite_gradient_under_the_split_tail_aborts_before_any_update(group,
                                                                             monkeypatch):
    # The loss is finite; the worker's half adds a NaN into one parameter's
    # buffer.  Adam must name that parameter and change nothing: no
    # parameter, no moment, no step count.
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    params = m.parameters.params
    arena = training._Arena(m.parameters)
    pool, noise = FuturePool(), NoiseSource(11)
    target = arena.groups[group][-1]
    caller = threading.get_ident()
    backward = ad.backward

    def poisoned(loss, seed=1.0, into=None):
        backward(loss, seed, into)
        if threading.get_ident() != caller:
            into[target.tensor].reshape(-1)[0] = np.nan

    try:
        _, _, tail = training._step(m, ds.train[:4], 5, noise, 0.5, 0, pool, arena)
        adam_step(TINY_TRAIN, arena, tail)
        before = ([p.tensor.data.copy() for p in params],
                  [x.copy() for x in m.parameters.views(arena.m)],
                  [x.copy() for x in m.parameters.views(arena.v)])
        monkeypatch.setattr(ad, "backward", poisoned)
        value, _, tail = training._step(m, ds.train[4:8], 5, noise, 0.5, 1, pool, arena)
        assert math.isfinite(value)
        with pytest.raises(TrainingError,
                           match=f"^non-finite gradient in parameter {target.name!r}$"):
            adam_step(TINY_TRAIN, arena, tail)
    finally:
        pool.shutdown()
    # Two halves, two merges and one update; the failed update submits none.
    assert pool.submitted == 5
    assert all(f.done() and f.exception() is None for f in pool.futures)
    assert arena.t == 1
    data, moments, variances = before
    for p, d, m_view, m_before, v_view, v_before in zip(
            params, data, m.parameters.views(arena.m), moments,
            m.parameters.views(arena.v), variances):
        np.testing.assert_array_equal(p.tensor.data, d)
        np.testing.assert_array_equal(m_view, m_before)
        np.testing.assert_array_equal(v_view, v_before)


def test_split_training_repeats_bit_for_bit_under_fast_thread_switching(monkeypatch):
    # Four split runs of six steps each, from three caller threads that each
    # start a worker: more threads than cores, switching every microsecond.
    # A record on another thread's tape, or a gradient added out of order,
    # would change a loss or a parameter.
    monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()

    def run():
        m = MMTModel(cfg, seed=7)
        log = train(m, ds, TINY_TRAIN)
        return log.step_losses, [p.tensor.data.copy() for p in m.parameters.params]

    losses, params = run()
    interval = sys.getswitchinterval()
    callers = ThreadPoolExecutor(max_workers=3)
    sys.setswitchinterval(1e-6)
    try:
        futures = [callers.submit(run) for _ in range(4)]
        results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
        callers.shutdown(wait=False, cancel_futures=True)
    assert all(f.done() for f in futures)
    for run_losses, run_params in results:
        assert run_losses == losses
        for a, b in zip(run_params, params):
            np.testing.assert_array_equal(a, b)


# -- step memory ------------------------------------------------------------------

def assert_views_the_store(m):
    """Each parameter's value and gradient are views of the model's flat
    arrays, at consecutive offsets in the store's order, covering them
    exactly."""
    store, offset = m.parameters, 0
    for p in m.parameters.params:
        for view, flat in ((p.tensor.data, store.data), (p.tensor.grad, store.grad)):
            assert view.base is flat and view.flags["C_CONTIGUOUS"]
            assert view.ctypes.data == flat.ctypes.data + offset * flat.itemsize
        offset += p.tensor.size
    assert offset == store.size == store.data.size == store.grad.size


@pytest.mark.parametrize("ablation", ["none", "shared_encoders"])
def test_the_model_owns_its_parameter_memory_and_train_adopts_it(ablation, monkeypatch):
    ds, cfg = tiny_task()
    flags = AblationFlags(**({} if ablation == "none" else {ablation: True}))
    m = MMTModel(dataclasses.replace(cfg, ablation=flags), seed=7)
    if ablation == "shared_encoders":
        assert m.img_layers[0].attn.wq is m.text_layers[0].attn.wq
    assert_views_the_store(m)
    data, grad = m.parameters.data, m.parameters.grad
    arenas = []
    make = training._Arena.__init__

    def watched(arena, store):
        make(arena, store)
        arenas.append(arena)

    monkeypatch.setattr(training._Arena, "__init__", watched)
    for _ in range(2):
        train(m, ds, TINY_TRAIN)
    assert m.parameters.data is data and m.parameters.grad is grad
    assert_views_the_store(m)
    assert len(arenas) == 2
    assert all(a.data is data and a.grad is grad for a in arenas)

def trained_outputs(ds, cfg):
    """Step losses, mean train gates, final parameters and Metrics on every
    split of a tiny model after TINY_TRAIN."""
    m = MMTModel(cfg, seed=7)
    log = train(m, ds, TINY_TRAIN)
    return (log.step_losses, [e.mean_train_gate for e in log.epochs],
            [p.tensor.data.tobytes() for p in m.parameters.params],
            evaluate(m, ds.train + ds.val + ds.test, seed=TINY_TRAIN.seed))


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_no_step_reads_an_array_of_its_buffer_outside_its_lifetime(split, monkeypatch):
    # A step buffer is made empty and grows only when it is rewound, so
    # filling it with NaN at every rewind poisons every array a previous
    # step made in it, and every out= destination before an op writes it.
    # Training must not notice.
    if split:
        monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    ds, cfg = tiny_task()
    want = trained_outputs(ds, cfg)
    rewind = ad.StepBuffer.rewind
    rewound = []

    def poisoned(buffer):
        rewind(buffer)
        buffer.flat.fill(np.nan)
        rewound.append(buffer.flat.size)

    monkeypatch.setattr(ad.StepBuffer, "rewind", poisoned)
    got = trained_outputs(ds, cfg)
    assert len(rewound) == 6 * (1 + split) and max(rewound) > 0
    assert got == want
    losses, gates, _, metrics = got
    np.testing.assert_allclose(losses, GOLDEN_STEP_LOSSES, rtol=0, atol=1e-10)
    np.testing.assert_allclose(gates, GOLDEN_TRAIN_GATES, rtol=0, atol=1e-10)
    assert metrics == GOLDEN_METRICS


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_a_step_buffer_grows_to_the_largest_step_and_then_serves_every_step(split,
                                                                             monkeypatch):
    # Per buffer and step: what the step asked for, and the flat array it
    # had.  The buffer holds what the largest earlier step asked for; after
    # the largest step, every request fits, so nothing falls back to numpy,
    # and the flat array stays the same.
    if split:
        monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    steps = {}
    step_buffer = ad.step_buffer

    @contextlib.contextmanager
    def recorded(buffer):
        with step_buffer(buffer):
            yield buffer
        steps.setdefault(buffer, []).append((buffer.wanted, buffer.flat))

    monkeypatch.setattr(ad, "step_buffer", recorded)
    ds, cfg = tiny_task()
    # Shuffled by seed 2, each buffer's largest step comes after its first
    # and before its last.
    train(MMTModel(cfg, seed=7), ds, dataclasses.replace(TINY_TRAIN, epochs=3, seed=2))
    assert len(steps) == 1 + split
    for record in steps.values():
        wanted = [w for w, _ in record]
        largest = wanted.index(max(wanted))
        assert 0 < largest < len(record) - 1
        for k, (w, flat) in enumerate(record):
            assert flat.size == max(wanted[:k], default=0)
            if k > largest:
                assert w <= flat.size and flat is record[largest + 1][1]


def test_no_step_buffer_is_active_once_train_returns_or_raises():
    ds, cfg = tiny_task()

    def fresh_output():
        assert ad._state.buffer is None
        out = ad.scale(Tensor(np.ones(3)), 2.0)
        ad.reset_tape()
        return out.data.base is None

    train(MMTModel(cfg, seed=7), ds, TINY_TRAIN)
    assert fresh_output()
    with pytest.raises(TrainingError, match="^non-finite loss at step 0$"):
        train(MMTModel(cfg, seed=7), nan_images(ds), TINY_TRAIN)
    assert fresh_output()


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_train_releases_its_step_buffers_when_it_returns(split, monkeypatch):
    if split:
        monkeypatch.setattr(training, "_SPLIT_MIN", 0)
    refs = []
    make = training._Arena.__init__

    def watched(arena, params):
        make(arena, params)
        refs.append(weakref.ref(arena))
        refs.extend(weakref.ref(b) for b in arena.buffers)

    monkeypatch.setattr(training._Arena, "__init__", watched)
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    flats = []
    rewind = ad.StepBuffer.rewind

    def kept(buffer):
        rewind(buffer)
        flats.append(weakref.ref(buffer.flat.base if buffer.flat.size else buffer.flat))

    monkeypatch.setattr(ad.StepBuffer, "rewind", kept)
    enabled = gc.isenabled()
    gc.disable()
    try:
        train(m, ds, TINY_TRAIN)
        assert len(refs) == 3 and len(flats) == 6 * (1 + split)
        assert all(ref() is None for ref in refs + flats)
    finally:
        if enabled:
            gc.enable()


def with_images(examples, image_of):
    return [dataclasses.replace(ex, image=image_of(ex)) for ex in examples]


def nan_images(ds):
    """The dataset with every image replaced by NaN features."""
    def nan(ex):
        return np.full_like(ex.image, np.nan)
    return dataclasses.replace(ds, train=with_images(ds.train, nan),
                               val=with_images(ds.val, nan), test=with_images(ds.test, nan))


@pytest.mark.parametrize("ablation", ["random_image", "text_only"])
def test_image_ablations_train_and_evaluate_without_the_dataset_images(ablation):
    # Neither ablation reads an example's image, so NaN images change nothing.
    ds, cfg = tiny_task()
    cfg = dataclasses.replace(cfg, ablation=AblationFlags(**{ablation: True}))
    m = MMTModel(cfg, seed=7)
    log = train(m, nan_images(ds), TINY_TRAIN)
    assert len(log.step_losses) == 6 and np.isfinite(log.step_losses).all()
    metrics = evaluate(m, nan_images(ds).test, seed=TINY_TRAIN.seed)
    assert 0.0 <= metrics.bleu <= 1.0
    gates = [metrics.mean_gate_open_rate] + [e.mean_train_gate for e in log.epochs]
    if ablation == "text_only":
        assert gates == [None] * 3 and metrics.noise_open_rate is None
        return
    assert all(0.0 < g < 1.0 for g in gates)
    # random_image reads random_image_for(example, training seed): the full
    # model given those images as data takes the same steps, bit for bit.
    def replacement(ex):
        return random_image_for(ex, TINY_TRAIN.seed, cfg.n_regions, cfg.d_image)
    full = MMTModel(dataclasses.replace(cfg, ablation=AblationFlags()), seed=7)
    swapped = dataclasses.replace(ds, train=with_images(ds.train, replacement),
                                  val=with_images(ds.val, replacement))
    assert train(full, swapped, TINY_TRAIN).step_losses == log.step_losses


@pytest.mark.parametrize("split,name", [("train", "training"), ("val", "validation")])
def test_train_rejects_an_empty_split_before_compute(split, name):
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    before = [p.tensor.data.copy() for p in m.parameters.params]
    ad.reset_tape()
    with pytest.raises(TrainingError, match=f"^{name} split is empty$"):
        train(m, dataclasses.replace(ds, **{split: []}), TINY_TRAIN)
    assert ad._state.tape == []
    assert all((p.tensor.data == b).all() for p, b in zip(m.parameters.params, before))


def test_train_aborts_on_a_non_finite_loss_before_any_update():
    ds, cfg = tiny_task()
    m = MMTModel(cfg, seed=7)
    before = [p.tensor.data.copy() for p in m.parameters.params]
    with pytest.raises(TrainingError, match="^non-finite loss at step 0$"):
        train(m, nan_images(ds), TINY_TRAIN)
    assert all((p.tensor.data == b).all() for p, b in zip(m.parameters.params, before))


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
    assert ad._state.tape == []


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
    before = [p.tensor.data.copy() for p in m.parameters.params]
    # ds.train holds both labels, so the last target id, 50, is in use
    for run in (lambda: train(m, ds, TrainConfig()),
                lambda: evaluate(m, ds.train),
                lambda: teacher_forced_loss(m, ds.train, 0)):
        with pytest.raises(ConfigError, match=r"vocab_tgt\D+51\D+vocab_tgt=50"):
            run()
    assert all((p.tensor.data == b).all() for p, b in zip(m.parameters.params, before))


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
