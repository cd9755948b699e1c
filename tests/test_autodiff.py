import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gumbel_mmt import autodiff as ad
from gumbel_mmt.autodiff import Tensor
from gumbel_mmt.errors import ConfigError, DataError, ShapeError
from helpers import PRIMITIVE_CASES, check_primitive, load_bench_tracing


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


# -- hand-checked forward values ---------------------------------------------

def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    np.testing.assert_array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_uniform_row():
    out = ad.softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3])


def test_softmax_no_overflow():
    out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1.0, 0.0]])


def test_softmax_hand_case():
    out = ad.softmax_rows(Tensor([[1.0, 2.0, 3.0]]))
    np.testing.assert_allclose(out.data, [[0.09003, 0.24473, 0.66524]], atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-1e6, 1e6)))
def test_softmax_rows_sum_to_one(x):
    out = ad.softmax_rows(Tensor(x))
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


def test_sigmoid_values():
    out = ad.sigmoid(Tensor([0.0, 50.0, -50.0]))
    assert out.data[0] == 0.5
    assert out.data[1] == pytest.approx(1.0)
    assert out.data[2] == pytest.approx(0.0, abs=1e-20)
    assert np.isfinite(out.data).all()


def two_branch_sigmoid(x):
    """The reference form: 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x))
    elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bit_identical_to_the_two_branch_form():
    rng = np.random.default_rng(12)
    x = np.concatenate([
        rng.normal(scale=3.0, size=2000),
        rng.uniform(-800.0, 800.0, size=2000),        # both tails, past exp's range
        -np.logspace(-320, 3, 500), np.logspace(-320, 3, 500),
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 709.0, -745.0]])
    want = two_branch_sigmoid(x)
    got = ad.sigmoid(Tensor(x)).data
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert ad.sigmoid(Tensor(-3.0)).data.shape == ()


def test_relu_matches_the_where_form():
    rng = np.random.default_rng(13)
    x = np.concatenate([rng.normal(size=500), [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e-300]])
    np.testing.assert_array_equal(ad.relu(Tensor(x)).data, np.where(x > 0, x, 0.0))
    # A NaN passes through rather than being zeroed.
    assert np.isnan(ad.relu(Tensor([np.nan])).data).all()


def test_attention_scores_hand_case_and_shape_errors():
    q = Tensor([[1.0, 2.0], [0.0, 1.0]])
    k = Tensor([[3.0, 1.0], [1.0, -1.0], [0.0, 2.0]])
    np.testing.assert_array_equal(ad.attention_scores(q, k, 0.5).data,
                                  [[2.5, -0.5, 2.0], [0.5, -0.5, 1.0]])
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 3\)"):
        ad.attention_scores(q, Tensor(np.zeros((3, 3))), 1.0)
    with pytest.raises(ShapeError):
        ad.attention_scores(Tensor(np.zeros((2, 3, 2))), Tensor(np.zeros((3, 3, 2))), 1.0)


def test_masked_softmax_zeroes_masked_keys():
    x = np.array([[1.0, 5.0, 2.0], [0.0, 3.0, -1.0]])
    mask = np.array([[False, True, False], [False, False, True]])
    got = ad.softmax_rows(Tensor(x), mask).data
    np.testing.assert_array_equal(got[mask], 0.0)
    np.testing.assert_allclose(got[0, [0, 2]], ad.softmax_rows(Tensor(x[:1, [0, 2]])).data[0])
    with pytest.raises(ShapeError, match="mask shape"):
        ad.softmax_rows(Tensor(x), mask[:, :2])


def test_layer_norm_constant_row_is_bias():
    # The residual sum is constant along the row, whatever x and h are.
    out = ad.residual_layer_norm(Tensor([[1.0, 2.0, 3.0, 4.0]]), Tensor([[4.0, 3.0, 2.0, 1.0]]),
                                 Tensor(np.ones(4)), Tensor(np.full(4, 0.25)))
    np.testing.assert_allclose(out.data, 0.25, atol=1e-12)


def test_layer_norm_statistics():
    rng = np.random.default_rng(0)
    x, h = rng.normal(size=(6, 16)), rng.normal(size=(6, 16))
    gain = Tensor(np.full(16, 1.7))
    bias = Tensor(np.full(16, -0.4))
    out = ad.residual_layer_norm(Tensor(x), Tensor(h), gain, bias)
    np.testing.assert_allclose(out.data.mean(axis=1), -0.4, atol=1e-6)
    np.testing.assert_allclose(out.data.std(axis=1), 1.7, atol=1e-3)
    # Only the sum matters: moving h into x gives the same bits.
    moved = ad.residual_layer_norm(Tensor(x + h), Tensor(np.zeros_like(h)), gain, bias)
    np.testing.assert_array_equal(moved.data, out.data)


def test_linear_hand_case():
    x = Tensor([[[1.0, 2.0], [3.0, 4.0]], [[0.0, 1.0], [1.0, 0.0]]])
    w = Tensor([[5.0, 1.0], [6.0, -1.0]])
    np.testing.assert_array_equal(ad.linear(x, w, Tensor([0.5, -0.5])).data,
                                  [[[17.5, -1.5], [39.5, -1.5]], [[6.5, -1.5], [5.5, 0.5]]])
    np.testing.assert_array_equal(ad.linear(x, w).data, ad.matmul(x, Tensor([w.data] * 2)).data)


@pytest.mark.parametrize("call,pattern", [
    (lambda: ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3))),
     r"\(2, 3\) x \(3, 4\) \+ \(3,\)"),
    (lambda: ad.linear(Tensor(np.zeros((2, 2, 3))), Tensor(np.zeros((2, 3, 4)))),
     r"linear shapes disagree: \(2, 2, 3\) x \(2, 3, 4\)"),
    (lambda: ad.residual_layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                                    Tensor(np.ones(4)), Tensor(np.zeros(4))),
     r"\(2, 4\) and \(3, 4\)"),
    (lambda: ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5)))),
     r"matmul shapes disagree: \(2, 3, 4\) x \(4, 5\)"),
], ids=["linear_bias_width", "linear_3d_weight", "residual_shapes", "matmul_2d_weight"])
def test_layer_step_shape_errors(call, pattern):
    with pytest.raises(ShapeError, match=pattern):
        call()


def test_cross_entropy_uniform():
    loss = ad.cross_entropy(Tensor(np.zeros((3, 4))), [1, 2, 3], pad_id=0)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_confident():
    logits = np.zeros((2, 5))
    logits[0, 2] = 1000.0
    logits[1, 4] = 1000.0
    loss = ad.cross_entropy(Tensor(logits), [2, 4])
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_skips_padding():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 6))
    full = ad.cross_entropy(Tensor(logits), [1, 2, 0, 0])
    live = ad.cross_entropy(Tensor(logits[:2]), [1, 2])
    assert full.item() == pytest.approx(live.item())


def test_cross_entropy_rejects_out_of_range_target():
    with pytest.raises(DataError, match=r"target id 7 out of range \[0, 3\)"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), [1, 7])


def test_cosine_similarity_values():
    v = Tensor([1.0, -2.0, 0.5])
    assert ad.cosine_similarity(v, Tensor(v.data.copy())).item() == pytest.approx(1.0)
    assert ad.cosine_similarity(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0
    got = ad.cosine_similarity(Tensor([1.0, 2.0, 3.0]), Tensor([4.0, 5.0, 6.0])).item()
    assert got == pytest.approx(0.97463, abs=1e-5)


# -- backward semantics -------------------------------------------------------

def test_backward_linear():
    p = Tensor([1.0, 2.0, 3.0], grad=True)
    ad.backward(ad.reduce_sum(p))
    np.testing.assert_array_equal(p.grad, np.ones(3))


def test_backward_quadratic():
    p = Tensor([1.0, 2.0, 3.0], grad=True)
    ad.backward(ad.reduce_sum(ad.mul(p, p)))
    np.testing.assert_array_equal(p.grad, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    p = Tensor([1.0, 2.0], grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        ad.backward(ad.mul(p, p))


def test_backward_twice_doubles_exactly():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(3, 3)), grad=True)
    b = Tensor(rng.normal(size=(3, 3)), grad=True)
    loss = ad.cross_entropy(ad.softmax_rows(ad.matmul(a, b)), [0, 1, 2])
    ad.backward(loss)
    once_a, once_b = a.grad.copy(), b.grad.copy()
    ad.backward(loss)
    np.testing.assert_array_equal(a.grad, 2.0 * once_a)
    np.testing.assert_array_equal(b.grad, 2.0 * once_b)


def test_backward_fills_an_intermediate_gradient_buffer():
    # Adjoints are freed during the walk; an op output with a buffer still
    # receives its gradient, like a leaf.
    x = Tensor([1.0, -2.0, 3.0], grad=True)
    h = ad.scale(x, 2.0).alloc_grad()
    ad.backward(ad.reduce_sum(ad.mul(h, h)))
    np.testing.assert_array_equal(h.grad, 2.0 * h.data)
    np.testing.assert_array_equal(x.grad, 8.0 * x.data)


def test_zero_grads_resets():
    p = Tensor([1.0, 4.0], grad=True)
    ad.backward(ad.reduce_sum(ad.mul(p, p)))
    assert np.any(p.grad != 0)
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, np.zeros(2))


def test_no_grad_suppresses_recording():
    p = Tensor([1.0, 2.0], grad=True)
    with ad.no_grad():
        loss = ad.reduce_sum(ad.mul(p, p))
    assert ad._tape == []
    ad.backward(loss)
    np.testing.assert_array_equal(p.grad, np.zeros(2))


def test_reset_tape_frees_activations_without_the_cycle_collector():
    # Only the tape refers to a record, so dropping the tape and the loss
    # frees every intermediate output at once, with the collector off.
    w = Tensor(np.ones((3, 4)), grad=True)
    hidden = ad.relu(ad.linear(Tensor(np.ones((2, 3))), w))
    loss = ad.reduce_sum(ad.mul(hidden, hidden))
    ref = weakref.ref(hidden.data)
    del hidden
    enabled = gc.isenabled()
    gc.disable()
    try:
        ad.backward(loss)
        ad.reset_tape()
        del loss
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    np.testing.assert_array_equal(w.grad, np.full((3, 4), 12.0))


def test_backward_composite_matches_finite_differences():
    from gumbel_mmt.gradcheck import gradient_error
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-2, 2, size=(3, 4)))
    b = Tensor(rng.uniform(-2, 2, size=(4, 3)))

    def forward():
        return ad.cross_entropy(ad.softmax_rows(ad.matmul(a, b)), [2, 0, 1], pad_id=0)

    assert gradient_error(forward, [a, b]) < 1e-4


# -- structural invariants ----------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, (4, 6), elements=st.floats(-100, 100)))
def test_reshape_transpose_roundtrip_bit_exact(x):
    t = Tensor(x)
    back = ad.merge_heads(ad.split_heads(t, 3))
    np.testing.assert_array_equal(back.data, x)


def test_tensor_invariants():
    t = Tensor(np.arange(12.0).reshape(3, 4))
    assert int(np.prod(t.shape)) == t.size
    t.alloc_grad()
    assert t.grad.shape == t.shape
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.data.dtype == np.float64


def test_parameter_names_unique():
    from gumbel_mmt.autodiff import Parameter, check_unique_names
    a = Parameter("w", Tensor(np.zeros(2), grad=True))
    b = Parameter("w", Tensor(np.zeros(2), grad=True))
    with pytest.raises(ConfigError, match="duplicate parameter name: 'w'"):
        check_unique_names([a, b])


def test_embedding_lookup_rejects_bad_ids():
    # The message names the first bad id in row-major order and the valid range.
    with pytest.raises(DataError, match=r"^token id 5 out of range \[0, 4\)$"):
        ad.embedding_lookup(Tensor(np.zeros((4, 2))), [[0, 5], [-1, 9]])
    with pytest.raises(DataError, match=r"^token id -1 out of range \[0, 4\)$"):
        ad.embedding_lookup(Tensor(np.zeros((4, 2))), [3, -1])


# -- finite differences for every primitive -----------------------------------

def test_every_primitive_has_a_gradient_case():
    # The primitives as the benchmark's tracer counts them: every public
    # function of autodiff that returns a Tensor.
    primitives = load_bench_tracing().primitive_names(ad)
    assert "split_heads" in primitives and "matmul" in primitives
    assert [p for p in primitives if p not in PRIMITIVE_CASES] == []


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients(name):
    check_primitive(name, n_cases=5)


# -- op outputs own fresh memory ----------------------------------------------

@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_op_outputs_are_fresh_float64_arrays(name, monkeypatch):
    # Op outputs are wrapped without a copy, so each op must hand over a new
    # C-ordered float64 array that shares no memory with its inputs.
    emit = ad._emit
    seen = []

    def spy(inputs, out_data, backward):
        seen.append(name)
        assert out_data.dtype == np.float64 and out_data.flags["C_CONTIGUOUS"]
        assert not any(np.shares_memory(out_data, t.data) for t in inputs)
        return emit(inputs, out_data, backward)

    monkeypatch.setattr(ad, "_emit", spy)
    forward, _, _ = PRIMITIVE_CASES[name](np.random.default_rng(0))
    forward()
    assert seen


def test_constructor_copies_caller_data():
    src = np.arange(6.0).reshape(2, 3)
    t = Tensor(src)
    src[0, 0] = 99.0
    assert t.data[0, 0] == 0.0
    out = ad.scale(t, 1.0)
    out.data[0, 0] = -1.0
    assert t.data[0, 0] == 0.0


def test_cross_entropy_weights_give_mean_of_row_means():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(2, 4, 5))
    targets = np.array([[1, 2, 3, 4], [2, 3, 0, 0]])
    per_example = [ad.cross_entropy(Tensor(logits[i]), targets[i]).item() for i in range(2)]
    live = targets != 0
    weights = live / (2 * live.sum(axis=1))[:, None]
    got = ad.cross_entropy(Tensor(logits), targets, weights=weights).item()
    assert got == pytest.approx(np.mean(per_example), rel=1e-12)


def test_batched_primitives_match_per_example_loop():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 4, 6))
    w = rng.normal(size=(6, 5))
    gain, bias = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))
    mask = rng.random(size=(3, 4, 6)) < 0.3
    mask[..., 0] = False
    y, shift = rng.normal(size=(3, 4, 6)), Tensor(rng.normal(size=5))
    batched = [ad.linear(Tensor(x), Tensor(w), shift), ad.softmax_rows(Tensor(x)),
               ad.softmax_rows(Tensor(x), mask),
               ad.residual_layer_norm(Tensor(x), Tensor(y), gain, bias),
               ad.attention_scores(Tensor(x), Tensor(x), 0.3)]
    for i in range(3):
        xi = Tensor(x[i])
        single = [ad.linear(xi, Tensor(w), shift), ad.softmax_rows(xi),
                  ad.softmax_rows(xi, mask[i]),
                  ad.residual_layer_norm(xi, Tensor(y[i]), gain, bias),
                  ad.attention_scores(xi, xi, 0.3)]
        for b, s in zip(batched, single):
            np.testing.assert_allclose(b.data[i], s.data, rtol=1e-13, atol=1e-14)
    pooled = ad.mean_pool(Tensor(x), [4, 2, 1])
    for i, n in enumerate([4, 2, 1]):
        np.testing.assert_allclose(pooled.data[i], x[i, :n].mean(axis=0), rtol=1e-13)
        np.testing.assert_array_equal(ad.mean_pool(Tensor(x[i]), n).data, pooled.data[i])


def test_split_heads_hand_case_and_round_trip():
    x = Tensor(np.arange(12.0).reshape(2, 6))       # (t=2, 3 heads of 2)
    heads = ad.split_heads(x, 3)
    assert heads.shape == (3, 2, 2)
    np.testing.assert_array_equal(heads.data[1], [[2.0, 3.0], [8.0, 9.0]])
    batch = Tensor(np.random.default_rng(11).normal(size=(2, 3, 4, 6)))
    for n_heads in (1, 2, 3, 6):
        split = ad.split_heads(batch, n_heads)
        assert split.shape == (2, 3, n_heads, 4, 6 // n_heads)
        np.testing.assert_array_equal(ad.merge_heads(split).data, batch.data)
    with pytest.raises(ShapeError):
        ad.split_heads(x, 4)


def test_matmul_rejects_mismatched_batches():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
