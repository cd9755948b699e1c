import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gumbel_mmt import autodiff as ad
from gumbel_mmt.autodiff import Tensor
from gumbel_mmt.errors import ConfigError
from gumbel_mmt.gumbel import GateMode, NoiseSource, gumbel_sigmoid
from helpers import gradient_error, infer_gate_oracle, logistic_noise, stream_state

EULER_GAMMA = 0.5772156649015329


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def test_noise_source_reproducible():
    a, b = NoiseSource(42), NoiseSource(42)
    np.testing.assert_array_equal(a.gumbel((100,)), b.gumbel((100,)))
    assert stream_state(a) == stream_state(b)


class FixedUniforms:
    """Stands in for a NoiseSource's generator: every draw returns these values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        return np.broadcast_to(self.values, size).copy()


def test_uniform_draws_clamped_and_finite():
    # The extremes a uniform draw can take, 0 and the largest double below 1,
    # are clamped, so both logs stay finite.
    src = NoiseSource(0)
    src._rng = FixedUniforms([0.0, 1.0 - 2.0 ** -53])
    g = src.gumbel((2,))
    assert np.isfinite(g).all() and g[0] < g[1]
    assert np.isfinite(NoiseSource(0).gumbel((200_000,))).all()


def test_gumbel_fixed_point_at_one_over_e():
    src = NoiseSource(0)
    src._rng = FixedUniforms(1.0 / math.e)  # u = 1/e => g = 0
    np.testing.assert_allclose(src.gumbel((4,)), 0.0, atol=1e-15)


def test_gumbel_moments():
    g = NoiseSource(7).gumbel((1_000_000,))
    assert g.mean() == pytest.approx(EULER_GAMMA, abs=5e-3)
    assert g.var() == pytest.approx(math.pi ** 2 / 6, abs=2e-2)


# -- gumbel_sigmoid --------------------------------------------------------------

def train_gates(e, tau, seed):
    return gumbel_sigmoid(e, tau, logistic_noise(NoiseSource(seed), e.shape))


def test_gumbel_sigmoid_symmetry_at_zero():
    out = train_gates(Tensor(np.zeros(100_000)), 1.0, 2)
    assert (out.data > 0.5).mean() == pytest.approx(0.5, abs=5e-3)
    assert ((out.data > 0) & (out.data < 1)).all()


def test_gumbel_sigmoid_exceedance_matches_sigmoid():
    out = train_gates(Tensor(np.full(100_000, 4.0)), 1.0, 3)
    assert (out.data > 0.5).mean() == pytest.approx(1 / (1 + math.exp(-4)), abs=5e-3)


def test_gumbel_sigmoid_infer_thresholds():
    # Without noise a gate opens where the score is positive: 2^-60 opens,
    # though sigmoid(2^-60) rounds to exactly 1/2, and both zeros stay closed.
    out = gumbel_sigmoid(Tensor([3.0, 2.0 ** -60, 0.0, -0.0, -3.0]), 1.0, None)
    np.testing.assert_array_equal(out.data, [1.0, 1.0, 0.0, 0.0, 0.0])
    assert out.data.dtype == np.float64 and ad._state.tape == []


# Finite scores at least 2^-52 from zero, where sigmoid(e) > 1/2 exactly when e > 0.
_SCORES = st.one_of(st.floats(min_value=2.0 ** -52, allow_infinity=False),
                    st.floats(max_value=-2.0 ** -52, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, (4, 5), elements=_SCORES))
def test_infer_gates_are_sigmoid_above_one_half(e):
    out = gumbel_sigmoid(Tensor(e), 1.0, None)
    np.testing.assert_array_equal(out.data, infer_gate_oracle(e))


def test_gumbel_sigmoid_infer_is_deterministic():
    e = Tensor(np.linspace(-2, 2, 13))
    a = gumbel_sigmoid(e, 1.0, None)
    b = gumbel_sigmoid(e, 1.0, None)
    np.testing.assert_array_equal(a.data, b.data)
    assert set(np.unique(a.data)) <= {0.0, 1.0}


def test_gumbel_sigmoid_gradient_with_frozen_noise():
    rng = np.random.default_rng(8)
    e = Tensor(rng.uniform(-2, 2, size=(3, 4)))

    def forward():
        return ad.reduce_sum(train_gates(e, 0.8, 55))

    assert gradient_error(forward, [e]) < 1e-4


def test_gumbel_sigmoid_rejects_bad_temperature():
    with pytest.raises(ConfigError):
        train_gates(Tensor([0.0]), -0.5, 0)


def test_gate_mode_is_train():
    assert GateMode.train().is_train
    assert not GateMode.infer().is_train


def test_same_seed_same_gates():
    e = Tensor(np.linspace(-1, 1, 20).reshape(4, 5))
    a = train_gates(e, 1.0, 99)
    b = train_gates(e, 1.0, 99)
    np.testing.assert_array_equal(a.data, b.data)
