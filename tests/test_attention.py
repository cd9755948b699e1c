import math

import numpy as np
import pytest

from gumbel_mmt import autodiff as ad
from gumbel_mmt.attention import (_gate_noise, causal_mask, init_attention_weights,
                                  key_padding_mask, multi_head_attention,
                                  multi_head_gumbel_attention)
from gumbel_mmt.autodiff import Tensor
from gumbel_mmt.errors import ShapeError
from gumbel_mmt.gradcheck import gradient_error
from gumbel_mmt.gumbel import NoiseSource
from helpers import infer_gate_oracle, logistic_noise


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def rand_weights(seed, d_q, d_kv, d_model, heads):
    rng = np.random.default_rng(seed)
    return init_attention_weights(rng, d_q, d_kv, d_model, heads)


def identity_weights(d, heads):
    w = rand_weights(0, d, d, d, heads)
    for m in (w.wq, w.wk, w.wv, w.wo):
        m.data[:] = np.eye(d)
    return w


# -- per-head oracles: each head attends with its own column block -------------

def head_projections(w, q, k, v, h):
    cols = slice(h * w.d_head, (h + 1) * w.d_head)
    return q @ w.wq.data[:, cols], k @ w.wk.data[:, cols], v @ w.wv.data[:, cols]


def softmax_oracle(w, q, k, v, mask=None):
    heads = []
    for h in range(w.n_heads):
        qh, kh, vh = head_projections(w, q, k, v, h)
        s = qh @ kh.swapaxes(-1, -2) / math.sqrt(w.d_head)
        if mask is not None:
            s = np.where(mask, -np.inf, s)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        heads.append(p / p.sum(axis=-1, keepdims=True) @ vh)
    return np.concatenate(heads, axis=-1) @ w.wo.data


def gumbel_oracle(w, x_text, x_image, noise=None):
    """Gated values per head; noise is (H, t, r) for train-mode gates with
    tau 1, None for infer-mode gates."""
    heads, gates = [], []
    for h in range(w.n_heads):
        qh, kh, vh = head_projections(w, x_text, x_image, x_image, h)
        s = qh @ kh.T / math.sqrt(w.d_head)
        if noise is None:
            alpha = infer_gate_oracle(s)
        else:
            alpha = 1.0 / (1.0 + np.exp(-(s + noise[h])))
        gates.append(alpha)
        heads.append(alpha @ vh)
    return np.concatenate(heads, axis=-1) @ w.wo.data, np.stack(gates)


# -- softmax selection ---------------------------------------------------------

def test_single_key_passes_value_through():
    rng = np.random.default_rng(0)
    w = rand_weights(1, 4, 4, 4, 2)
    q = Tensor(rng.normal(size=(3, 4)))
    kv = Tensor(rng.normal(size=(1, 4)))
    out = multi_head_attention(q, kv, w)
    np.testing.assert_allclose(out.data, np.tile(kv.data @ w.wv.data @ w.wo.data, (3, 1)),
                               atol=1e-12)


def test_zero_scores_average_values():
    w = identity_weights(3, 1)
    w.wq.data[:] = 0.0
    kv = Tensor(np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 1.0], [5.0, 6.0, 2.0]]))
    out = multi_head_attention(Tensor(np.ones((2, 3))), kv, w)
    np.testing.assert_allclose(out.data, np.tile(kv.data.mean(axis=0), (2, 1)))


def test_scaled_dot_hand_case():
    w = identity_weights(2, 1)
    q = Tensor([[1.0, 0.0]])
    kv = Tensor([[1.0, 0.0], [0.0, 1.0]])
    out = multi_head_attention(q, kv, w)
    np.testing.assert_allclose(out.data, [[0.6698, 0.3302]], atol=1e-4)


def test_mask_blocks_future_positions():
    rng = np.random.default_rng(1)
    w = rand_weights(2, 4, 4, 4, 2)
    x = Tensor(rng.normal(size=(4, 4)))
    masked = multi_head_attention(x, x, w, causal_mask(4))
    # row 0 may only see key 0
    np.testing.assert_allclose(masked.data[0], x.data[0] @ w.wv.data @ w.wo.data, atol=1e-12)
    np.testing.assert_allclose(masked.data, softmax_oracle(w, x.data, x.data, x.data,
                                                           causal_mask(4)), atol=1e-12)


def test_shape_mismatch_raises():
    w = rand_weights(3, 3, 3, 4, 2)
    with pytest.raises(ShapeError):
        multi_head_attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 3))), w)


def test_mask_is_a_view_over_the_heads(monkeypatch):
    # One key-padding mask serves every head as a broadcast view, not a copy.
    seen = []
    softmax = ad.softmax_rows

    def spy(x, mask=None):
        seen.append(mask)
        return softmax(x, mask)

    monkeypatch.setattr(ad, "softmax_rows", spy)
    rng = np.random.default_rng(4)
    w = rand_weights(5, 4, 4, 4, 2)
    x = Tensor(rng.normal(size=(2, 3, 4)))
    mask = key_padding_mask(np.array([3, 1]), 3, 3)
    multi_head_attention(x, x, w, mask)
    assert seen[0].shape == (2, 2, 3, 3)
    assert seen[0].strides[1] == 0 and np.shares_memory(seen[0], mask)


# -- multi-head ------------------------------------------------------------------

def test_single_head_identity_output_projection():
    rng = np.random.default_rng(2)
    w = rand_weights(3, 4, 4, 4, 1)
    w.wo = Tensor(np.eye(4), grad=True)
    q, kv = (Tensor(rng.normal(size=(3, 4))) for _ in range(2))
    got = multi_head_attention(q, kv, w)
    s = (q.data @ w.wq.data) @ (kv.data @ w.wk.data).T / 2.0
    p = np.exp(s) / np.exp(s).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got.data, p @ kv.data @ w.wv.data, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_softmax_attention_matches_per_head_oracle(heads):
    rng = np.random.default_rng(heads)
    w = rand_weights(heads, 6, 5, 8, heads)
    q = Tensor(rng.normal(size=(2, 3, 6)))
    kv = Tensor(rng.normal(size=(2, 4, 5)))
    mask = key_padding_mask(np.array([4, 2]), 3, 4)
    got = multi_head_attention(q, kv, w, mask)
    np.testing.assert_allclose(got.data, softmax_oracle(w, q.data, kv.data, kv.data, mask),
                               rtol=1e-12, atol=1e-13)


def test_multi_head_output_shape():
    rng = np.random.default_rng(3)
    w = rand_weights(4, 8, 8, 8, 4)
    out = multi_head_attention(Tensor(rng.normal(size=(5, 8))),
                               Tensor(rng.normal(size=(7, 8))), w)
    assert out.shape == (5, 8)
    assert w.wq.shape == (8, 8) and w.n_heads == 4 and w.d_head == 2


def test_stacked_weights_keep_the_per_head_draw_order():
    # Head h's columns hold the h-th per-head draw: wq heads, wk heads, wv
    # heads, then wo, from one generator.
    w = rand_weights(6, 4, 3, 6, 3)
    rng = np.random.default_rng(6)
    for m, d_in in ((w.wq, 4), (w.wk, 3), (w.wv, 3)):
        for h in range(3):
            bound = 1.0 / math.sqrt(d_in)
            want = rng.uniform(-bound, bound, size=(d_in, 2))
            np.testing.assert_array_equal(m.data[:, 2 * h:2 * h + 2], want)
    np.testing.assert_array_equal(w.wo.data, rng.uniform(-1 / math.sqrt(6), 1 / math.sqrt(6),
                                                         size=(6, 6)))


def test_head_count_must_divide_d_model():
    with pytest.raises(ShapeError):
        init_attention_weights(np.random.default_rng(0), 8, 8, 8, 3)


def test_multi_head_gradients():
    rng = np.random.default_rng(4)
    w = rand_weights(5, 6, 6, 6, 2)
    q = Tensor(rng.uniform(-1, 1, size=(2, 3, 6)))
    kv = Tensor(rng.uniform(-1, 1, size=(2, 4, 6)))
    mask = key_padding_mask(np.array([4, 3]), 3, 4)
    leaves = [w.wq, w.wk, w.wv, w.wo, q, kv]

    def forward():
        return ad.reduce_sum(ad.mul(multi_head_attention(q, kv, w, mask), q))

    assert gradient_error(forward, leaves) < 1e-4


# -- gated cross-modal attention ---------------------------------------------

def test_score_divisor_is_sqrt_d_head():
    # d_model 8 in 2 heads of 4: each head's score is its 4 columns' dot
    # product over sqrt(4), not over sqrt(8).
    w = identity_weights(8, 2)
    x_text = Tensor([[1.0, 0, 0, 0, 0, 0, 0, 0]])
    x_image = Tensor([[1.0, 0, 0, 0, 0, 0, 0, 0], [0.0, 1, 0, 0, 0, 0, 0, 0]])
    soft = multi_head_attention(x_text, x_image, w)
    assert soft.data[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-12)
    # The train-mode gate of region 0 in head 0 is sigmoid(1/2 + noise); a
    # divisor of sqrt(8) would give sigmoid(0.354 + noise) instead.
    src, oracle_src = NoiseSource(4), NoiseSource(4)
    _, gates = multi_head_gumbel_attention(x_text, x_image, w, 1.0, src)
    noise = np.stack([logistic_noise(oracle_src, (1, 2)) for _ in range(2)])
    _, want = gumbel_oracle(w, x_text.data, x_image.data, noise)
    np.testing.assert_allclose(gates.data, want, rtol=1e-12)
    assert gates.data[0, 0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-0.5 - noise[0, 0, 0])),
                                                rel=1e-12)


def test_empty_text_gives_empty_gates():
    w = rand_weights(5, 4, 6, 4, 2)
    out, gates = multi_head_gumbel_attention(Tensor(np.zeros((0, 4))), Tensor(np.ones((3, 6))),
                                             w, 1.0, NoiseSource(0))
    assert out.shape == (0, 4)
    assert gates.shape == (2, 0, 3)


def test_zero_projection_gates_average_half():
    # all scores 0 => train gates are symmetric around 0.5
    w = rand_weights(6, 2, 2, 2, 2)
    w.wq.data[:] = 0.0
    _, gates = multi_head_gumbel_attention(Tensor(np.ones((100, 2))), Tensor(np.ones((500, 2))),
                                           w, 1.0, NoiseSource(12))
    assert gates.shape == (2, 100, 500)
    assert gates.data.mean() == pytest.approx(0.5, abs=5e-3)


def test_infer_gates_threshold_scores():
    w = identity_weights(1, 1)
    _, gates = multi_head_gumbel_attention(Tensor([[1.0]]), Tensor([[3.0], [-3.0]]), w, 1.0, None)
    np.testing.assert_array_equal(gates.data, [[[1.0, 0.0]]])


def test_score_shift_opens_gates():
    t = r = 100  # 10k gate draws
    ones_t, ones_r = Tensor(np.ones((t, 1))), Tensor(np.ones((r, 1)))
    means = []
    for s in (0.0, 5.0):
        w = identity_weights(1, 1)
        w.wk.data[:] = s
        _, gates = multi_head_gumbel_attention(ones_t, ones_r, w, 1.0, NoiseSource(21))
        means.append(gates.data.mean())
    assert means[1] > means[0]


def test_gate_rows_select_regions():
    # wq = wk = wo = I: region j's score for text row i is x_i . x_j / sqrt(3),
    # and a diagonal image makes each one-hot text row score one region only.
    w = identity_weights(3, 1)
    rng = np.random.default_rng(5)
    w.wv.data[:] = rng.normal(size=(3, 3))
    x_image = Tensor(np.diag([1.0, 2.0, 3.0]))
    proj = x_image.data @ w.wv.data

    w.wq.data[:] = 0.0      # every score 0: no gate opens
    closed, _ = multi_head_gumbel_attention(Tensor(np.ones((2, 3))), x_image, w, 1.0, None)
    np.testing.assert_array_equal(closed.data, np.zeros((2, 3)))

    w.wq.data[:] = np.eye(3)
    pick = Tensor(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    picked, gates = multi_head_gumbel_attention(pick, x_image, w, 1.0, None)
    np.testing.assert_array_equal(gates.data[0], [[0, 1, 0], [0, 0, 1]])
    np.testing.assert_allclose(picked.data, proj[[1, 2]], atol=1e-12)

    all_open, _ = multi_head_gumbel_attention(Tensor(np.ones((2, 3))), x_image, w, 1.0, None)
    oracle = np.zeros((2, 3))
    for i in range(2):
        for j in range(3):
            oracle[i] += proj[j]
    np.testing.assert_allclose(all_open.data, oracle, atol=1e-12)


def test_multi_head_gumbel_shape_and_single_head_composition():
    rng = np.random.default_rng(6)
    w = rand_weights(7, 4, 6, 4, 1)
    x_text = Tensor(rng.normal(size=(3, 4)))
    x_image = Tensor(rng.normal(size=(5, 6)))
    out, gates = multi_head_gumbel_attention(x_text, x_image, w, 1.0, NoiseSource(9))
    assert out.shape == (3, 4) and gates.shape == (1, 3, 5)
    noise = logistic_noise(NoiseSource(9), (3, 5))[None]
    want, _ = gumbel_oracle(w, x_text.data, x_image.data, noise)
    np.testing.assert_allclose(out.data, want, atol=1e-12)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_gumbel_attention_matches_per_head_oracle(heads):
    # A padded batch draws its noise example by example, then head by head,
    # for real text rows only: each example gets the gates and values it gets
    # alone, from the same stream.
    rng = np.random.default_rng(heads)
    w = rand_weights(heads, 8, 6, 8, heads)
    x_text = Tensor(rng.normal(size=(2, 3, 8)))
    x_image = Tensor(rng.normal(size=(2, 5, 6)))
    lengths = np.array([3, 2])
    for train in (True, False):
        src = NoiseSource(3)
        out, gates = multi_head_gumbel_attention(x_text, x_image, w, 1.0,
                                                 src if train else None, lengths)
        assert gates.shape == (2, heads, 3, 5)
        oracle_src = NoiseSource(3)
        for i, n in enumerate(lengths):
            noise = None
            if train:
                noise = np.stack([logistic_noise(oracle_src, (n, 5)) for _ in range(heads)])
            want, alpha = gumbel_oracle(w, x_text.data[i, :n], x_image.data[i], noise)
            np.testing.assert_allclose(out.data[i, :n], want, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(gates.data[i, :, :n], alpha, rtol=1e-12)
        assert src.state() == oracle_src.state()


def test_forced_open_gates_match_loop_oracle():
    # huge positive scores => infer gates all 1 => plain unweighted sum of
    # projected regions per head
    rng = np.random.default_rng(7)
    w = rand_weights(8, 4, 6, 4, 2)
    w.wq.data[:] = np.abs(w.wq.data) * 100.0
    w.wk.data[:] = np.abs(w.wk.data) * 100.0
    x_text = Tensor(np.abs(rng.normal(size=(3, 4))) + 0.1)
    x_image = Tensor(np.abs(rng.normal(size=(5, 6))) + 0.1)
    out, gates = multi_head_gumbel_attention(x_text, x_image, w, 1.0, None)
    assert (gates.data == 1.0).all()
    heads = []
    for h in range(2):
        v = np.zeros((3, 2))
        for i in range(3):
            for j in range(5):
                v[i] += x_image.data[j] @ w.wv.data[:, 2 * h:2 * h + 2]
        heads.append(v)
    oracle = np.concatenate(heads, axis=1) @ w.wo.data
    np.testing.assert_allclose(out.data, oracle, atol=1e-10)


def test_infer_mode_is_deterministic():
    rng = np.random.default_rng(8)
    w = rand_weights(9, 4, 6, 4, 2)
    x_text = Tensor(rng.normal(size=(3, 4)))
    x_image = Tensor(rng.normal(size=(5, 6)))
    a, gates_a = multi_head_gumbel_attention(x_text, x_image, w, 1.0, None)
    b, gates_b = multi_head_gumbel_attention(x_text, x_image, w, 1.0, None)
    np.testing.assert_array_equal(a.data, b.data)
    np.testing.assert_array_equal(gates_a.data, gates_b.data)


def test_gumbel_attention_gradients_with_frozen_noise():
    rng = np.random.default_rng(10)
    w = rand_weights(11, 4, 6, 4, 2)
    x_text = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)))
    x_image = Tensor(rng.uniform(-1, 1, size=(2, 5, 6)))
    leaves = [w.wq, w.wk, w.wv, w.wo, x_text, x_image]

    def forward():
        values, _ = multi_head_gumbel_attention(x_text, x_image, w, 1.0, NoiseSource(31),
                                                np.array([3, 2]))
        return ad.reduce_sum(ad.mul(values, x_text))

    assert gradient_error(forward, leaves) < 1e-4


def test_heads_draw_independent_noise():
    rng = np.random.default_rng(12)
    w = rand_weights(13, 4, 6, 4, 2)
    x_text = Tensor(rng.normal(size=(3, 4)))
    x_image = Tensor(rng.normal(size=(5, 6)))
    _, gates = multi_head_gumbel_attention(x_text, x_image, w, 1.0, NoiseSource(1))
    assert not np.array_equal(gates.data[0], gates.data[1])

    # distinct seeds on identical inputs differ somewhere across 100 draws
    one = identity_weights(1, 1)
    draws = []
    for s in range(100):
        _, gates = multi_head_gumbel_attention(Tensor(np.ones((2, 1))), Tensor(np.ones((2, 1))),
                                               one, 1.0, NoiseSource(s))
        draws.append(gates.data)
    assert any(not np.array_equal(draws[0], d) for d in draws[1:])


def test_gate_noise_is_the_per_head_draws_bit_for_bit():
    # One draw per call, laid out as if each (example, head) block of real
    # rows drew its own G' - G'' in turn; padded rows get zeros.
    src, ref = NoiseSource(4), NoiseSource(4)
    noise = _gate_noise(src, (3, 2, 4, 5), np.array([4, 1, 3]))
    for i, n in enumerate([4, 1, 3]):
        for h in range(2):
            np.testing.assert_array_equal(noise[i, h, :n], logistic_noise(ref, (n, 5)))
            np.testing.assert_array_equal(noise[i, h, n:], 0.0)
    assert src.state() == ref.state()
    one = _gate_noise(NoiseSource(4), (2, 3, 5))
    ref = NoiseSource(4)
    np.testing.assert_array_equal(one, [logistic_noise(ref, (3, 5)) for _ in range(2)])
