import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbel_mmt import autodiff as ad
from gumbel_mmt.autodiff import Tensor
from gumbel_mmt.data import BOS_ID, EOS_ID
from gumbel_mmt.errors import ConfigError, DataError, ShapeError
from gumbel_mmt.gumbel import GateMode, NoiseSource, gate_noise
from gumbel_mmt.model import (AblationFlags, DecoderState, MMTModel, ModelConfig, embed,
                              gated_fusion, pad_batch, sequence_lengths, similarity_loss,
                              sinusoid_position_encoding, total_loss)

from helpers import (full_recompute_greedy, gradient_error, load_bench_tracing, mean_gates,
                     stream_state)


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.reset_tape()
    yield
    ad.reset_tape()


def tiny_config(**kw):
    base = dict(n_enc_layers=1, n_dec_layers=1, n_heads=2, d_model=8, d_ffn=16,
                d_image=6, n_regions=5, vocab_src=10, vocab_tgt=10)
    base.update(kw)
    return ModelConfig(**base)


RNG = np.random.default_rng(0)


def tiny_image(cfg, seed=0):
    return np.random.default_rng(seed).normal(size=(cfg.n_regions, cfg.d_image))


# -- embeddings ----------------------------------------------------------------

def test_position_zero_adds_sin0_cos0():
    pe = sinusoid_position_encoding(4, 8)
    np.testing.assert_allclose(pe[0, 0::2], 0.0)
    np.testing.assert_allclose(pe[0, 1::2], 1.0)


def test_pe_hand_value():
    pe = sinusoid_position_encoding(2, 128)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)


def test_same_token_differs_only_by_pe():
    table = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
    pe = sinusoid_position_encoding(4, 8)
    out = embed([3, 3], table, pe)
    np.testing.assert_allclose(out.data[1] - out.data[0], pe[1] - pe[0], atol=1e-12)


def test_embed_rejects_bad_ids():
    table = Tensor(np.zeros((5, 8)))
    with pytest.raises(DataError, match=r"token id 7 out of range \[0, 5\)"):
        embed([7], table, sinusoid_position_encoding(4, 8))


# -- fusion and losses -----------------------------------------------------------

def test_fusion_zero_image_returns_text_exactly():
    rng = np.random.default_rng(2)
    h_text = Tensor(rng.normal(size=(4, 6)))
    w, u = Tensor(rng.normal(size=(6, 6))), Tensor(rng.normal(size=(6, 6)))
    fused = gated_fusion(Tensor(np.zeros((4, 6))), h_text, w, u)
    np.testing.assert_array_equal(fused.data, h_text.data)


def test_fusion_zero_weights_gate_half():
    rng = np.random.default_rng(3)
    h_img = Tensor(rng.normal(size=(3, 4)))
    h_text = Tensor(rng.normal(size=(3, 4)))
    zeros = Tensor(np.zeros((4, 4)))
    fused = gated_fusion(h_img, h_text, zeros, zeros)
    np.testing.assert_allclose(fused.data, h_text.data + 0.5 * h_img.data, atol=1e-12)


def test_fusion_gradients():
    rng = np.random.default_rng(4)
    h_img = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    h_text = Tensor(rng.uniform(-1, 1, size=(3, 4)))
    w = Tensor(rng.uniform(-1, 1, size=(4, 4)))
    u = Tensor(rng.uniform(-1, 1, size=(4, 4)))

    def forward():
        return ad.reduce_sum(gated_fusion(h_img, h_text, w, u))

    assert gradient_error(forward, [w, u]) < 1e-4


def test_similarity_loss_cases():
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(size=(3, 4)))
    n = np.array(3)
    same = similarity_loss(h, Tensor(h.data.copy()), 0.3, n)
    assert same.item() == 0.0

    a = Tensor(np.tile([1.0, 0.0], (3, 1)))
    b = Tensor(np.tile([0.0, 1.0], (3, 1)))
    assert similarity_loss(a, b, 0.3, n).item() == pytest.approx(0.7, abs=1e-12)

    anti = Tensor(-a.data)
    # the eps guard in cosine shifts the value by ~1e-8 at cos = -1
    assert similarity_loss(a, anti, 0.3, n).item() == pytest.approx(1.7, abs=1e-7)


def test_total_loss_composition():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(4, 7)))
    targets = [1, 2, 3, 0]
    h_img = Tensor(rng.normal(size=(4, 5)))
    h_txt = Tensor(rng.normal(size=(4, 5)))
    n = np.array(4)
    ce = ad.cross_entropy(logits, targets, np.array([1, 1, 1, 0]) / 3).item()
    sim = similarity_loss(h_img, h_txt, 0.3, n).item()
    total = total_loss(logits, targets, h_img, h_txt, 0.5, margin=0.3, src_lengths=n)
    assert total.item() == pytest.approx(ce + 0.5 * sim, abs=1e-12)
    only_ce = total_loss(logits, targets, None, h_txt, 0.5, src_lengths=n)
    assert only_ce.item() == pytest.approx(ce, abs=1e-12)


# -- encoder paths ----------------------------------------------------------------

def test_text_only_fused_equals_text_encoding():
    cfg = tiny_config(ablation=AblationFlags(text_only=True))
    m = MMTModel(cfg, seed=3)
    enc = m.encode([BOS_ID, 4, 5, EOS_ID], None, None, GateMode.infer())
    assert enc.h_image is None and enc.gates is None
    ref = embed([BOS_ID, 4, 5, EOS_ID], m.src_table, m.pos_enc)
    for layer in m.text_layers:
        ref = layer(ref)
    np.testing.assert_array_equal(enc.fused.data, ref.data)


def test_text_only_matches_full_model_text_branch():
    # per-component seeding: the text branch of the full model and the
    # text-only model share initial values at the same seed
    full = MMTModel(tiny_config(), seed=9)
    text = MMTModel(tiny_config(ablation=AblationFlags(text_only=True)), seed=9)
    ids = [BOS_ID, 6, 2]
    enc_full = full.encode(ids, tiny_image(full.cfg), None, GateMode.infer())
    enc_text = text.encode(ids, None, None, GateMode.infer())
    np.testing.assert_array_equal(enc_full.h_text.data, enc_text.fused.data)


def test_encoder_output_shapes_and_gates():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=1)
    ids = [BOS_ID, 4, 5, 6, EOS_ID]
    enc = m.encode(ids, tiny_image(cfg), NoiseSource(0), GateMode.train())
    assert enc.h_text.shape == (5, 8)
    assert enc.h_image.shape == (5, 8)
    assert enc.fused.shape == (5, 8)
    assert enc.gates.shape == (cfg.n_heads, 5, cfg.n_regions)
    assert 0.0 < mean_gates(enc)[0] < 1.0


def test_single_position_sequence():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=2)
    enc = m.encode([4], tiny_image(cfg), NoiseSource(1), GateMode.train())
    assert enc.fused.shape == (1, 8)


def test_closed_gates_encode_zero_values():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=5)
    # zero projections => all scores 0 => no infer gate opens
    m.cross_weights.wq.data[:] = 0.0
    ids = [BOS_ID, 3, 7, EOS_ID]
    enc = m.encode(ids, tiny_image(cfg), None, GateMode.infer())
    assert (enc.gates.data == 0.0).all()
    zeros = Tensor(np.zeros((len(ids), cfg.d_model)))
    direct = zeros
    for layer in m.img_layers:
        direct = layer(direct)
    np.testing.assert_allclose(enc.h_image.data, direct.data, atol=1e-12)


def test_gumbel_layer_placements_run():
    for L in (1, 2, 3):
        cfg = tiny_config(n_enc_layers=2, gumbel_layer=L)
        m = MMTModel(cfg, seed=4)
        enc = m.encode([BOS_ID, 4, EOS_ID], tiny_image(cfg), NoiseSource(0),
                       GateMode.train())
        assert enc.fused.shape == (3, 8)
        has_proj = m.img_proj_w is not None
        assert has_proj == (L >= 2)


def test_gumbel_layer_after_stack_uses_encoded_text_query():
    cfg = tiny_config(n_enc_layers=2, gumbel_layer=3)
    m = MMTModel(cfg, seed=6)
    enc = m.encode([BOS_ID, 4, EOS_ID], tiny_image(cfg), NoiseSource(0), GateMode.train())
    # with L = n_enc+1 the gated attention output IS the image branch
    assert enc.h_image.shape == (3, 8)


def test_train_mode_encode_needs_a_noise_source_for_gumbel_gates():
    m = MMTModel(ModelConfig(), seed=0)
    ids = [BOS_ID, 4, EOS_ID]
    ad.reset_tape()
    with pytest.raises(ConfigError, match="NoiseSource"):
        m.encode(ids, tiny_image(m.cfg), None, GateMode.train())
    assert ad._state.tape == []   # raised before any op was recorded
    for flags in (AblationFlags(text_only=True), AblationFlags(vanilla_attention=True)):
        m = MMTModel(tiny_config(ablation=flags), seed=0)
        image = None if flags.text_only else tiny_image(m.cfg)
        enc = m.encode(ids, image, None, GateMode.train())
        assert enc.gates is None and enc.fused.shape == (3, 8)


def test_vanilla_attention_has_no_gates():
    cfg = tiny_config(ablation=AblationFlags(vanilla_attention=True))
    m = MMTModel(cfg, seed=7)
    enc = m.encode([BOS_ID, 4, EOS_ID], tiny_image(cfg), None, GateMode.infer())
    assert enc.gates is None
    assert enc.h_image is not None


def test_no_gated_fusion_sums_branches():
    cfg = tiny_config(ablation=AblationFlags(no_gated_fusion=True))
    m = MMTModel(cfg, seed=8)
    enc = m.encode([BOS_ID, 4, EOS_ID], tiny_image(cfg), None, GateMode.infer())
    np.testing.assert_allclose(enc.fused.data, enc.h_text.data + enc.h_image.data,
                               atol=1e-12)
    assert m.fusion_w is None


def test_shared_encoders_halve_encoder_params():
    full = MMTModel(tiny_config(n_enc_layers=2), seed=10)
    shared = MMTModel(tiny_config(n_enc_layers=2,
                                  ablation=AblationFlags(shared_encoders=True)), seed=10)
    full_names = {p.name for p in full.parameters.params}
    shared_names = {p.name for p in shared.parameters.params}
    assert any(n.startswith("img_enc.") for n in full_names)
    assert not any(n.startswith("img_enc.") for n in shared_names)
    n_text = sum(1 for n in full_names if n.startswith("text_enc."))
    assert len(full_names) - len(shared_names) == n_text
    # one tensor set serves both branches
    assert shared.img_layers is shared.text_layers


ENC_LAYER = ["self_attn.wq", "self_attn.wk", "self_attn.wv", "self_attn.wo",
             "ln1.gain", "ln1.bias", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
             "ln2.gain", "ln2.bias"]
DEC_LAYER = ["self_attn.wq", "self_attn.wk", "self_attn.wv", "self_attn.wo",
             "ln1.gain", "ln1.bias",
             "cross_attn.wq", "cross_attn.wk", "cross_attn.wv", "cross_attn.wo",
             "ln2.gain", "ln2.bias", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
             "ln3.gain", "ln3.bias"]


def test_named_parameters_are_listed_in_creation_order():
    # The store's order is its layout and the one the global gradient norm
    # sums in before clipping.
    m = MMTModel(tiny_config(gumbel_layer=2), seed=9)
    want = (["embed.src_table", "embed.tgt_table"]
            + [f"text_enc.layer0.{n}" for n in ENC_LAYER]
            + [f"img_enc.layer0.{n}" for n in ENC_LAYER]
            + ["img_proj.w", "img_proj.b",
               "cross_attn.wq", "cross_attn.wk", "cross_attn.wv", "cross_attn.wo",
               "fusion.w", "fusion.u"]
            + [f"dec.layer0.{n}" for n in DEC_LAYER]
            + ["out_proj.w", "out_proj.b"])
    assert [p.name for p in m.parameters.params] == want
    assert m.parameters.params[0].tensor is m.src_table


def _reachable_trainable_tensors(model):
    """Tensors with a gradient buffer reachable from the model's attributes,
    its layers and their attention weights, each once, skipping the
    parameter store, which lists them all."""
    found, seen = [], set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            if obj.grad is not None:
                found.append(obj)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif type(obj).__module__.startswith("gumbel_mmt") and hasattr(obj, "__dict__"):
            for item in vars(obj).values():
                walk(item)

    for name, value in vars(model).items():
        if name != "parameters":
            walk(value)
    return found


@pytest.mark.parametrize("flag", [None] + [f.name for f in dataclasses.fields(AblationFlags)])
@pytest.mark.parametrize("gumbel_layer", [1, 2, 3])
def test_every_trainable_tensor_is_registered_exactly_once(flag, gumbel_layer):
    ablation = AblationFlags(**({flag: True} if flag else {}))
    m = MMTModel(tiny_config(n_enc_layers=2, gumbel_layer=gumbel_layer, ablation=ablation),
                 seed=5)
    registered = [id(p.tensor) for p in m.parameters.params]
    assert len(set(registered)) == len(registered)
    reachable = _reachable_trainable_tensors(m)
    assert reachable
    assert {id(t) for t in reachable} == set(registered)


# -- decoder ---------------------------------------------------------------------

def test_decoder_causality():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=11)
    enc = m.encode([BOS_ID, 4, EOS_ID], tiny_image(cfg), None, GateMode.infer())
    a = m.decode([BOS_ID, 5, 6, 7], enc.fused)
    b = m.decode([BOS_ID, 5, 9, 3], enc.fused)
    np.testing.assert_allclose(a.data[:2], b.data[:2], atol=1e-12)
    assert a.shape == (4, cfg.vocab_tgt)


def test_greedy_decode_immediate_eos():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=12)
    m.out_w.data[:] = 0.0
    m.out_b.data[:] = 0.0
    m.out_b.data[EOS_ID] = 100.0
    out, _ = m.greedy_decode([BOS_ID, 4, EOS_ID], tiny_image(cfg), max_len=10)
    assert out == []


def test_greedy_decode_deterministic():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=13)
    img = tiny_image(cfg)
    a, _ = m.greedy_decode([BOS_ID, 4, 5, EOS_ID], img, max_len=8)
    b, _ = m.greedy_decode([BOS_ID, 4, 5, EOS_ID], img, max_len=8)
    assert a == b


def test_greedy_decode_rejects_bad_max_len():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=14)
    with pytest.raises(ConfigError):
        m.greedy_decode([BOS_ID, EOS_ID], tiny_image(cfg), max_len=0)


def test_greedy_decode_needs_bos_in_the_target_vocabulary():
    cfg = tiny_config(vocab_tgt=BOS_ID)
    m = MMTModel(cfg, seed=14)
    with pytest.raises(DataError, match=rf"^token id {BOS_ID} out of range \[0, {BOS_ID}\)$"):
        m.greedy_decode([BOS_ID, EOS_ID], tiny_image(cfg), max_len=2)


# -- end-to-end gradients -----------------------------------------------------

def test_end_to_end_gradients_all_parameters():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=15)
    src = [BOS_ID, 4, 5, EOS_ID]
    tgt = [BOS_ID, 6, 7, EOS_ID]
    img = tiny_image(cfg, seed=3)

    def forward():
        loss, _ = m.loss(src, tgt, img, NoiseSource(42), GateMode.train())
        return loss

    params = m.parameters.params
    err = gradient_error(forward, [p.tensor for p in params])
    assert err < 1e-3, f"worst end-to-end gradient error {err:.3g}"


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_config(n_heads=3)  # does not divide d_model=8
    with pytest.raises(ConfigError):
        tiny_config(margin=1.5)
    with pytest.raises(ConfigError):
        tiny_config(gumbel_layer=5)  # n_enc_layers=1 allows 1..2
    assert tiny_config(similarity_weight=0.0).similarity_weight == 0.0


@pytest.mark.parametrize("field,value", [
    ("d_model", 0), ("d_ffn", 0), ("d_image", 0), ("vocab_src", 0), ("vocab_tgt", 0),
    ("n_regions", 0), ("max_positions", 0), ("n_heads", 0), ("n_enc_layers", -1),
    ("n_dec_layers", -1),
])
def test_config_rejects_bad_sizes_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be >= {value + 1}, got {value}$"):
        tiny_config(**{field: value})


@pytest.mark.parametrize("kind", ["construct", "replace"])
@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
def test_loss_weight_must_be_finite_and_nonnegative(kind, value):
    with pytest.raises(ConfigError,
                       match=rf"^similarity_weight must be finite and >= 0, got {value}$"):
        if kind == "construct":
            tiny_config(similarity_weight=value)
        else:
            dataclasses.replace(tiny_config(), similarity_weight=value)


# -- padded batches ---------------------------------------------------------------

BATCH_SRC = [[BOS_ID, 4, 5, 6, 7, EOS_ID], [BOS_ID, 8, EOS_ID], [BOS_ID, 3, 9, EOS_ID]]
BATCH_TGT = [[BOS_ID, 6, EOS_ID], [BOS_ID, 7, 8, 9, 5, EOS_ID], [BOS_ID, 4, 4, 5, EOS_ID]]


def batch_images(cfg):
    return np.stack([tiny_image(cfg, seed=s) for s in range(len(BATCH_SRC))])


def loss_and_grads(m, src, tgt, images, noise, mode):
    params = m.parameters.params
    for p in params:
        p.tensor.grad.fill(0.0)
    ad.reset_tape()
    loss, enc = m.loss(src, tgt, images, noise, mode, tau=0.7)
    ad.backward(loss)
    ad.reset_tape()
    return loss.item(), enc, {p.name: p.tensor.grad.copy() for p in params}


def assert_batch_matches_loop(m, srcs, tgts, images, mode):
    """The batched forward must equal running the examples one at a time:
    the mean loss, the averaged gradients, the per-example gate means, and
    the noise stream left behind."""
    single_noise = NoiseSource(42)
    losses, gates = [], []
    grads = {p.name: np.zeros_like(p.tensor.data) for p in m.parameters.params}
    for i, (s, t) in enumerate(zip(srcs, tgts)):
        value, enc, g = loss_and_grads(m, s, t, None if images is None else images[i],
                                       single_noise, mode)
        losses.append(value)
        gates.append(mean_gates(enc))
        for name in grads:
            grads[name] += g[name] / len(srcs)

    batch_noise = NoiseSource(42)
    value, enc, batch_grads = loss_and_grads(m, pad_batch(srcs), pad_batch(tgts), images,
                                             batch_noise, mode)
    assert value == pytest.approx(np.mean(losses), rel=1e-12)
    for name, g in grads.items():
        # Closed infer-mode gates can send all-zero rows through layer norm,
        # which scales their gradients by 1/sqrt(eps) per layer, so each
        # element g is held to 1e-10 * (1 + |g|), not to 1e-10 alone.
        np.testing.assert_allclose(batch_grads[name], g, rtol=1e-10, atol=1e-10,
                                   err_msg=name)
    if gates[0] is None:
        assert mean_gates(enc) is None
    else:
        assert enc.gates.shape[:2] == (len(srcs), m.cfg.n_heads)
        np.testing.assert_allclose(mean_gates(enc), np.concatenate(gates), rtol=1e-12)
    assert stream_state(batch_noise) == stream_state(single_noise)


@pytest.mark.parametrize("mode", [GateMode.train(), GateMode.infer()], ids=["train", "infer"])
@pytest.mark.parametrize("variant", [
    {}, {"n_enc_layers": 2, "gumbel_layer": 2}, {"n_enc_layers": 2, "gumbel_layer": 3},
    {"ablation": AblationFlags(vanilla_attention=True)},
    {"ablation": AblationFlags(text_only=True)},
    {"ablation": AblationFlags(no_gated_fusion=True)},
], ids=["default", "layer2", "after_stack", "vanilla", "text_only", "no_fusion"])
def test_batched_loss_matches_per_example_loop(variant, mode):
    cfg = tiny_config(**variant)
    m = MMTModel(cfg, seed=17)
    images = None if cfg.ablation.text_only else batch_images(cfg)
    assert_batch_matches_loop(m, BATCH_SRC, BATCH_TGT, images, mode)


@st.composite
def small_models(draw):
    """A tiny model of random shape: heads, layers, gumbel_layer, one ablation
    flag or none, and init seed."""
    n_enc = draw(st.integers(1, 2))
    flag = draw(st.sampled_from([None] + [f.name for f in dataclasses.fields(AblationFlags)]))
    cfg = tiny_config(n_heads=draw(st.sampled_from([1, 2, 4])), n_enc_layers=n_enc,
                      n_dec_layers=draw(st.integers(1, 2)),
                      gumbel_layer=draw(st.integers(1, n_enc + 1)),
                      ablation=AblationFlags(**({flag: True} if flag else {})))
    return MMTModel(cfg, seed=draw(st.integers(0, 2 ** 16)))


def sentences(min_len, max_len):
    return st.lists(st.integers(3, 9), min_size=min_len, max_size=max_len)


def random_images(cfg, n, seed):
    if cfg.ablation.text_only:
        return None
    return np.random.default_rng(seed).normal(size=(n, cfg.n_regions, cfg.d_image))


@settings(max_examples=25, deadline=None)
@given(m=small_models(), pairs=st.lists(st.tuples(sentences(1, 6), sentences(2, 6)),
                                        min_size=1, max_size=3),
       train_mode=st.booleans(), image_seed=st.integers(0, 100))
def test_padded_batch_matches_single_sentences_for_random_lengths(m, pairs, train_mode,
                                                                  image_seed):
    srcs = [s for s, _ in pairs]
    tgts = [t for _, t in pairs]
    mode = GateMode.train() if train_mode else GateMode.infer()
    assert_batch_matches_loop(m, srcs, tgts, random_images(m.cfg, len(pairs), image_seed),
                              mode)


def real_rows_forward(m, src, tgt, images, n_real, mode):
    """Logits, gates, and the parameter gradients of the token loss of the
    first n_real rows of a padded batch; later rows weigh nothing."""
    params = m.parameters.params
    for p in params:
        p.tensor.grad.fill(0.0)
    ad.reset_tape()
    enc = m.encode(src, images, NoiseSource(9), mode)
    logits = m.decode(tgt[:, :-1], enc.fused, enc.lengths)
    weights = np.zeros(tgt[:, 1:].shape)
    weights[:n_real] = 1.0
    ad.backward(ad.cross_entropy(logits, tgt[:, 1:], weights))
    ad.reset_tape()
    gates = None if enc.gates is None else enc.gates.data
    return logits.data, gates, {p.name: p.tensor.grad.copy() for p in params}


@settings(max_examples=15, deadline=None)
@given(m=small_models(), pairs=st.lists(st.tuples(sentences(1, 5), sentences(2, 5)),
                                        min_size=1, max_size=3),
       extra=st.lists(st.tuples(sentences(1, 5), sentences(2, 5)), max_size=2),
       extra_src_cols=st.integers(0, 2), extra_tgt_cols=st.integers(0, 2),
       train_mode=st.booleans(), image_seed=st.integers(0, 100))
def test_padding_leaves_the_real_rows_unchanged(m, pairs, extra, extra_src_cols,
                                                extra_tgt_cols, train_mode, image_seed):
    # Extra rows after the real ones and extra padding columns reach the real
    # rows only through masked keys and zero-weight losses.
    mode = GateMode.train() if train_mode else GateMode.infer()
    n, srcs, tgts = len(pairs), [s for s, _ in pairs], [t for _, t in pairs]
    images = random_images(m.cfg, n + len(extra), image_seed)
    src, tgt = pad_batch(srcs), pad_batch(tgts)
    want_logits, want_gates, want_grads = real_rows_forward(
        m, src, tgt, None if images is None else images[:n], n, mode)

    wide_src = np.pad(pad_batch(srcs + [s for s, _ in extra]), ((0, 0), (0, extra_src_cols)))
    wide_tgt = np.pad(pad_batch(tgts + [t for _, t in extra]), ((0, 0), (0, extra_tgt_cols)))
    logits, gates, grads = real_rows_forward(m, wide_src, wide_tgt, images, n, mode)

    t = tgt.shape[1] - 1
    real = (tgt[:, 1:] != 0)[..., None]
    np.testing.assert_allclose(logits[:n, :t] * real, want_logits * real, rtol=1e-12, atol=1e-12)
    if want_gates is not None:
        rows = (src != 0)[:, None, :, None]
        np.testing.assert_allclose(gates[:n, :, :src.shape[1]] * rows, want_gates * rows,
                                   rtol=1e-12, atol=1e-12)
    for name, g in want_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=1e-10, atol=1e-10, err_msg=name)


def test_one_sentence_equals_a_batch_of_one():
    # One sentence carries a 0-d length and takes its batch of one's path,
    # the loss's one token-mean reduction included, so its loss, fused
    # memory, gates and greedy tokens are the batch's bit for bit.
    rng = np.random.default_rng(21)
    h_img, h_txt = rng.normal(size=(2, 5, 4))
    one = similarity_loss(Tensor(h_img), Tensor(h_txt), 0.3, np.array(5)).item()
    batch = similarity_loss(Tensor(h_img[None]), Tensor(h_txt[None]), 0.3, np.array([5]))
    assert one > 0 and one == batch.item()
    cfg = tiny_config()
    m = MMTModel(cfg, seed=20)
    image = tiny_image(cfg, seed=4)
    # On the last pair, a plain mean of the five target tokens' losses and
    # their sum weighted by 1/5 differ in the last bit, in both gate modes.
    pairs = [*zip(BATCH_SRC, BATCH_TGT),
             ([BOS_ID, 7, 4, 7, 8, 5, EOS_ID], [BOS_ID, 9, 8, 9, 5, 7, EOS_ID])]
    for src, tgt in pairs:
        for mode in (GateMode.train(), GateMode.infer()):
            single, enc = m.loss(src, tgt, image, NoiseSource(3), mode)
            batched, batch_enc = m.loss(pad_batch([src]), pad_batch([tgt]), image[None],
                                        NoiseSource(3), mode)
            assert single.item() == batched.item()
            np.testing.assert_array_equal(enc.fused.data, batch_enc.fused.data[0])
            np.testing.assert_array_equal(enc.gates.data, batch_enc.gates.data[0])
        tokens, _ = m.greedy_decode(src, image, 6)
        batch_tokens, _ = m.greedy_decode(pad_batch([src]), image[None], 6)
        assert tokens == batch_tokens[0]


# Primitives no model path calls: gradient checks sum their outputs with
# reduce_sum, and softplus has only its own gradient check.
TEST_ONLY_PRIMITIVES = {"reduce_sum", "softplus"}


def test_model_calls_every_primitive(monkeypatch):
    # The primitive set is closed: a padded train-mode loss and backward with
    # Gumbel and with softmax cross-attention, then a batched greedy decode,
    # call every primitive the benchmark's tracer counts.
    primitives = load_bench_tracing().primitive_names(ad)
    assert TEST_ONLY_PRIMITIVES <= set(primitives)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.split(".")[0] == "gumbel_mmt"]
    called = set()
    for name in primitives:
        fn = getattr(ad, name)

        def spy(*args, _name=name, _fn=fn, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, spy)
    src, tgt = pad_batch(BATCH_SRC), pad_batch(BATCH_TGT)
    for flags in (AblationFlags(), AblationFlags(vanilla_attention=True)):
        cfg = tiny_config(ablation=flags)
        m = MMTModel(cfg, seed=22)
        loss_and_grads(m, src, tgt, batch_images(cfg), NoiseSource(0), GateMode.train())
    m.greedy_decode(src, batch_images(cfg), max_len=4)
    assert sorted(set(primitives) - called - TEST_ONLY_PRIMITIVES) == []


def test_end_to_end_gradients_padded_batch():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=15)
    src, tgt, images = pad_batch(BATCH_SRC), pad_batch(BATCH_TGT), batch_images(cfg)

    def forward():
        loss, _ = m.loss(src, tgt, images, NoiseSource(42), GateMode.train())
        return loss

    err = gradient_error(forward, [p.tensor for p in m.parameters.params])
    assert err < 1e-3, f"worst end-to-end gradient error {err:.3g}"


def test_batched_decode_rows_match_single_decodes():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=18)
    images = batch_images(cfg)
    enc = m.encode(pad_batch(BATCH_SRC), images, None, GateMode.infer())
    tgt_in = pad_batch(BATCH_TGT)[:, :-1]
    logits = m.decode(tgt_in, enc.fused, enc.lengths)
    for i, (s, t) in enumerate(zip(BATCH_SRC, BATCH_TGT)):
        one = m.encode(s, images[i], None, GateMode.infer())
        np.testing.assert_allclose(enc.fused.data[i, :len(s)], one.fused.data, atol=1e-12)
        want = m.decode(t[:-1], one.fused)
        np.testing.assert_allclose(logits.data[i, :len(t) - 1], want.data, atol=1e-12)


def test_sequence_lengths_rejects_ids_of_three_axes():
    with pytest.raises(ShapeError, match=r"1-d or \(batch, time\), got shape \(2, 3, 4\)"):
        sequence_lengths(np.ones((2, 3, 4), dtype=np.int64))


@pytest.mark.parametrize("src", [[BOS_ID, 0, 5, EOS_ID], [BOS_ID, 5, EOS_ID, 0, 0], []],
                         ids=["inner_pad", "trailing_pad", "empty"])
def test_one_sentence_with_padding_or_no_tokens_is_rejected_before_any_op(src):
    # One sentence is held to a batch row's rule, and has no row length to
    # hide padding behind: encoding it must not record an op first.
    cfg = tiny_config()
    m = MMTModel(cfg, seed=19)
    with pytest.raises(ShapeError, match="PAD_ID only after"):
        m.encode(src, tiny_image(cfg), None, GateMode.infer())
    assert ad._state.tape == []
    lengths = sequence_lengths(np.array([BOS_ID, 5, EOS_ID]))
    assert lengths.shape == () and lengths == 3


def test_encode_rejects_a_sentence_longer_than_max_positions():
    cfg = tiny_config(max_positions=4)
    m = MMTModel(cfg, seed=19)
    with pytest.raises(ShapeError, match="sequence of length 5 exceeds the 4 precomputed"):
        m.encode([BOS_ID, 4, 5, 6, EOS_ID], tiny_image(cfg), None, GateMode.infer())


def test_multimodal_encode_needs_an_image():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=19)
    with pytest.raises(ConfigError, match="multi-modal encoding needs image features"):
        m.encode([BOS_ID, 4, EOS_ID], None, None, GateMode.infer())
    text_only = MMTModel(tiny_config(ablation=AblationFlags(text_only=True)), seed=19)
    assert text_only.encode([BOS_ID, 4, EOS_ID], None, None, GateMode.infer()).h_image is None


@pytest.mark.parametrize("batch", [False, True], ids=["sentence", "batch"])
def test_drawn_gate_noise_of_the_wrong_shape_is_rejected_before_any_op(batch):
    # Drawn noise must be (b, H, t, r), or (H, t, r) for one sentence; noise
    # drawn for a different batch, with its t one row short, must not reach
    # the gates.
    cfg = tiny_config()
    m = MMTModel(cfg, seed=19)
    src, image = [BOS_ID, 4, 5, EOS_ID], tiny_image(cfg)
    if batch:
        src, image = pad_batch(BATCH_SRC), batch_images(cfg)
    want = np.shape(src)[:-1] + (cfg.n_heads, np.shape(src)[-1], cfg.n_regions)
    short = want[:-2] + (want[-2] - 1, want[-1])
    with pytest.raises(ShapeError, match=re.escape(f"drawn gate noise of shape {short} does "
                                                   f"not match {want}")):
        m.encode(src, image, np.zeros(short), GateMode.train())
    assert ad._state.tape == []
    # The right shape is accepted, and is the draw a NoiseSource would make.
    drawn = m.encode(src, image, gate_noise(NoiseSource(3), cfg.n_heads, cfg.n_regions,
                                            sequence_lengths(np.asarray(src)), want[-2]),
                     GateMode.train())
    ad.reset_tape()
    sourced = m.encode(src, image, NoiseSource(3), GateMode.train())
    np.testing.assert_array_equal(drawn.gates.data, sourced.gates.data)


def test_padded_batch_validation():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=19)
    images = batch_images(cfg)
    with pytest.raises(ShapeError, match="PAD_ID only after"):
        m.encode(np.array([[BOS_ID, 0, 4], [BOS_ID, 4, 5], [BOS_ID, 5, 6]]), images, None,
                 GateMode.infer())
    with pytest.raises(ShapeError, match="image shape"):
        m.encode(pad_batch(BATCH_SRC), images[:2], None, GateMode.infer())


# -- cached greedy decoding ---------------------------------------------------------

DECODE_VARIANTS = pytest.mark.parametrize("variant", [
    {}, {"ablation": AblationFlags(text_only=True)},
    {"ablation": AblationFlags(vanilla_attention=True)},
    {"gumbel_layer": 2},    # n_enc_layers + 1: after the whole encoder stack
], ids=["default", "text_only", "vanilla", "after_stack"])

# Init seeds of the tiny model for BATCH_SRC with max_len 6: from seed 27 some
# outputs stop early at different steps and some run to max_len; from seed 36
# every output has exactly one token.
DECODE_SEEDS = pytest.mark.parametrize("seed", [27, 36], ids=["mixed_lengths", "length_one"])
MAX_LEN = 6


def decode_inputs(variant, seed):
    cfg = tiny_config(**variant)
    images = None if cfg.ablation.text_only else batch_images(cfg)
    return MMTModel(cfg, seed=seed), images


def check_lengths(seed, lengths):
    if seed == 27:
        assert min(lengths) < MAX_LEN == max(lengths)
    else:
        assert lengths == [1] * len(BATCH_SRC)


def assert_cached_decode_matches_full_recompute(m, src, image, max_len):
    """Incremental greedy decoding emits the full recompute's tokens, and
    feeding the same tokens one row at a time through a DecoderState gives
    every step's logits.  Returns the tokens."""
    want, want_logits = full_recompute_greedy(m, src, image, max_len)
    got, enc = m.greedy_decode(src, image, max_len)
    assert got == want
    state = DecoderState(m, enc.fused.data, enc.lengths, max_len)
    for step, tok in enumerate([BOS_ID] + want[:len(want_logits) - 1]):
        logits = state.step(np.array([tok]))
        assert logits.shape == (1, m.cfg.vocab_tgt)
        np.testing.assert_allclose(logits[-1], want_logits[step], rtol=0, atol=1e-12)
    assert state.length == len(want_logits)
    return got


@DECODE_VARIANTS
@DECODE_SEEDS
def test_cached_greedy_decode_matches_full_recompute(variant, seed):
    m, images = decode_inputs(variant, seed)
    lengths = [len(assert_cached_decode_matches_full_recompute(
        m, src, None if images is None else images[i], MAX_LEN))
        for i, src in enumerate(BATCH_SRC)]
    check_lengths(seed, lengths)


@settings(max_examples=25, deadline=None)
@given(m=small_models(), src=sentences(1, 6), image_seed=st.integers(0, 100))
def test_cached_greedy_decode_matches_full_recompute_for_random_configs(m, src, image_seed):
    images = random_images(m.cfg, 1, image_seed)
    assert_cached_decode_matches_full_recompute(m, src, None if images is None else images[0],
                                                MAX_LEN)


@DECODE_VARIANTS
@DECODE_SEEDS
def test_batched_greedy_decode_matches_single_sentences(variant, seed):
    m, images = decode_inputs(variant, seed)
    singles = [m.greedy_decode(s, None if images is None else images[i], MAX_LEN)[0]
               for i, s in enumerate(BATCH_SRC)]
    batched, _ = m.greedy_decode(pad_batch(BATCH_SRC), images, MAX_LEN)
    assert batched == singles
    check_lengths(seed, [len(out) for out in singles])


def test_padded_batch_rows_that_stop_at_different_steps_keep_their_tokens():
    # Seed 27 stops some rows early and runs others to MAX_LEN.  A stopped
    # row goes on through the step with the rest of the batch: its tokens
    # must not change, and each row's tokens and every step's logits must be
    # the full recompute's for its sentence alone.
    m, images = decode_inputs({}, 27)
    src = pad_batch(BATCH_SRC)
    batched, enc = m.greedy_decode(src, images, MAX_LEN)
    lengths = [len(out) for out in batched]
    assert len(set(lengths)) > 1 and max(lengths) == MAX_LEN
    state = DecoderState(m, enc.fused.data, enc.lengths, MAX_LEN)
    want = [full_recompute_greedy(m, s, images[i], MAX_LEN) for i, s in enumerate(BATCH_SRC)]
    assert batched == [tokens for tokens, _ in want]
    rows = np.full((len(BATCH_SRC), 1), BOS_ID)
    for step in range(MAX_LEN):
        logits = state.step(rows)
        for i, (tokens, step_logits) in enumerate(want):
            if step < len(step_logits):
                np.testing.assert_allclose(logits[i, -1], step_logits[step], rtol=0, atol=1e-12)
        rows = logits.argmax(axis=-1)


def test_decoder_state_past_its_max_len_raises_before_writing():
    cfg = tiny_config()
    m = MMTModel(cfg, seed=12)
    enc = m.encode([BOS_ID, 4, EOS_ID], tiny_image(cfg), None, GateMode.infer())
    short = DecoderState(m, enc.fused.data, enc.lengths, 2)
    long = DecoderState(m, enc.fused.data, enc.lengths, 4)
    for tok in (BOS_ID, 5):
        np.testing.assert_array_equal(short.step(np.array([tok])), long.step(np.array([tok])))
    buffers = [kv.copy() for layer in short.layers for kv in layer]
    with pytest.raises(ShapeError, match="position 2 is past the state's max_len 2"):
        short.step(np.array([6]))
    assert short.length == 2
    for before, after in zip(buffers, (kv for layer in short.layers for kv in layer)):
        np.testing.assert_array_equal(before, after)


def test_a_max_len_past_max_positions_sizes_the_buffers_by_max_positions():
    cfg = tiny_config(max_positions=6)
    m = MMTModel(cfg, seed=12)
    m.out_b.data[EOS_ID] = -100.0   # never stop early
    image = tiny_image(cfg)
    with pytest.raises(ShapeError, match="sequence of length 7 exceeds the 6 precomputed"):
        m.greedy_decode([BOS_ID, 5, EOS_ID], image, max_len=10**12)
    enc = m.encode([BOS_ID, 5, EOS_ID], image, None, GateMode.infer())
    state = DecoderState(m, enc.fused.data, enc.lengths, 10**12)
    assert all(kv.shape[-2] == cfg.max_positions for layer in state.layers for kv in layer[:2])


def test_greedy_decode_past_max_positions_raises_the_embedding_error():
    cfg = tiny_config(max_positions=3)
    m = MMTModel(cfg, seed=12)
    m.out_b.data[EOS_ID] = -100.0   # never stop early
    with pytest.raises(ShapeError, match="sequence of length 4 exceeds the 3 precomputed"):
        m.greedy_decode([BOS_ID, 4, EOS_ID], tiny_image(cfg), max_len=4)
    with pytest.raises(ShapeError, match="sequence of length 4 exceeds the 3 precomputed"):
        embed([BOS_ID, 4, 5, 6], m.tgt_table, m.pos_enc)
    out, _ = m.greedy_decode([BOS_ID, 4, EOS_ID], tiny_image(cfg), max_len=3)
    assert len(out) == 3
