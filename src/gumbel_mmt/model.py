"""Dual-encoder translation model with gated image-region selection.

The text branch is a plain post-norm transformer encoder.  The image branch
inserts gated cross-modal attention before encoder layer L (configurable;
L = n_enc_layers + 1 means both modalities are fully encoded first), then the
two branch outputs are merged by an elementwise learned gate.  The decoder is
a standard causal transformer decoder over the fused memory.  The loss adds a
cosine hinge between the two branches, weighted by ``similarity_weight``.

Each layer step is one tape record: ``linear`` for a weight product and its
bias, ``residual_layer_norm`` for a post-norm sublayer LayerNorm(x + sublayer(x)).
Each component registers its parameters where it creates them, through a
seeded ``_Init``, and the model's ``parameters`` store, made once from that
list, holds them all in one flat layout that training updates in place.

Every forward takes one sentence (1-d token ids, a ``(r, d_image)`` image)
or a batch: ``(b, t)`` token ids right-padded with PAD_ID and ``(b, r,
d_image)`` images.  A batch runs through the same code with a leading axis,
and key-padding masks keep every example's real rows from reading padding.
Below the API, lengths are shaped like the ids' leading axes: ``(b,)``, or
``()`` for one sentence.  :func:`sequence_lengths` makes them, and the gate
noise, gate statistics and loss take them as given: a sentence is its batch
of one, bit for bit.

``decode`` is the autodiff forward over every target position.  Greedy
decoding moves one new row per sentence per step through the tape-free
:meth:`DecoderLayer.step`, which calls the array functions behind the
primitives in their order, and keeps keys and values in a :class:`DecoderState`.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (AttentionWeights, attend_rows, causal_mask, key_padding_mask,
                        multi_head_attention, multi_head_gumbel_attention, project_heads)
from .autodiff import Parameter, Tensor
from .data import BOS_ID, EOS_ID, PAD_ID
from .errors import ConfigError, DataError, ShapeError
from .gumbel import GateMode, NoiseSource, gate_noise


@dataclass
class AblationFlags:
    vanilla_attention: bool = False
    random_image: bool = False
    shared_encoders: bool = False
    no_gated_fusion: bool = False
    no_similarity_loss: bool = False
    text_only: bool = False


@dataclass
class ModelConfig:
    n_enc_layers: int = 4
    n_dec_layers: int = 4
    n_heads: int = 4
    d_model: int = 128
    d_ffn: int = 512
    d_image: int = 512
    n_regions: int = 49
    vocab_src: int = 50
    # The default disambiguation task has 50 source tokens, and its target
    # side holds both translations of the ambiguous word: 51 tokens.
    vocab_tgt: int = 51
    gumbel_layer: int = 1           # attention before layer L; n_enc_layers+1 = after the stack
    ablation: AblationFlags = field(default_factory=AblationFlags)
    margin: float = 0.3
    similarity_weight: float = 0.5  # the similarity hinge's weight in the loss
    max_positions: int = 512

    def __post_init__(self):
        lows = {"n_enc_layers": 0, "n_dec_layers": 0, "n_heads": 1, "d_model": 1, "d_ffn": 1,
                "d_image": 1, "n_regions": 1, "vocab_src": 1, "vocab_tgt": 1, "max_positions": 1}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise ConfigError(f"n_heads={self.n_heads} must divide d_model={self.d_model}")
        if not -1.0 <= self.margin <= 1.0:
            raise ConfigError(f"margin must lie in [-1, 1], got {self.margin}")
        # Written so that NaN fails the check too.
        if not 0.0 <= self.similarity_weight < np.inf:
            raise ConfigError(
                f"similarity_weight must be finite and >= 0, got {self.similarity_weight}")
        if not 1 <= self.gumbel_layer <= self.n_enc_layers + 1:
            raise ConfigError(
                f"gumbel_layer={self.gumbel_layer} out of range 1..{self.n_enc_layers + 1}")

    @property
    def gumbel_gates(self) -> bool:
        """Whether the cross-modal attention selects regions by Gumbel gates,
        so that a train-mode forward pass draws gate noise."""
        return not (self.ablation.text_only or self.ablation.vanilla_attention)


@dataclass
class GateStats:
    """Per example, over every head and the example's real text rows: the
    sum of its gates (``open``) and their number (``count``), in three
    columns: all regions, the example's relevant regions, and its other
    (noise) regions.  An example given no relevant regions counts zero in the
    last two columns."""

    open: np.ndarray    # (b, 3)
    count: np.ndarray   # (b, 3)


@dataclass
class EncoderOutput:
    h_text: Tensor
    h_image: Tensor | None
    fused: Tensor
    lengths: np.ndarray                 # source lengths: (b,), or () for one sentence
    gates: Tensor | None = None         # (..., H, t, r) gates of the cross-modal attention

    def gate_stats(self, relevant_regions: list[list[int]] | None = None
                   ) -> GateStats | None:
        """Gate sums and counts over the real rows, one row of GateStats per
        example (one for a single sentence); relevant_regions gives each
        example's relevant region indices.  None without gates."""
        if self.gates is None:
            return None
        heads, t, r = self.gates.shape[-3:]
        alpha = self.gates.data.reshape(-1, heads, t, r)
        b = alpha.shape[0]
        lengths = self.lengths.reshape(b)
        real = np.arange(t) < lengths[:, None]                  # (b, t)
        per_region = np.where(real[:, None, :, None], alpha, 0.0).sum(axis=(1, 2))
        relevant = np.zeros((b, r), dtype=bool)
        for i, regions in enumerate(relevant_regions or []):
            relevant[i, regions] = True
        noise = ~relevant & relevant.any(axis=1, keepdims=True)
        regions = np.stack([np.ones_like(relevant), relevant, noise], axis=1)   # (b, 3, r)
        return GateStats(open=(per_region[:, None, :] * regions).sum(axis=2),
                         count=regions.sum(axis=2) * (heads * lengths)[:, None])


def sequence_lengths(ids: np.ndarray) -> np.ndarray:
    """Lengths of token ids, shaped like their leading axes: ``(b,)`` for a
    right-padded (b, t) batch, and a 0-d array for 1-d ids, one sentence,
    which is held to the rule of a row that fills its batch."""
    if ids.ndim not in (1, 2):
        raise ShapeError(f"token ids must be 1-d or (batch, time), got shape {ids.shape}")
    real = ids != PAD_ID
    lengths = real.sum(axis=-1) if ids.ndim == 2 else np.array(ids.shape[-1])
    full = np.arange(ids.shape[-1]) < lengths[..., None]
    if not (real == full).all() or (lengths == 0).any():
        raise ShapeError(f"token ids of shape {ids.shape} need a non-empty sentence in every "
                         "row, with PAD_ID only after its last token in a padded batch")
    return lengths


def pad_batch(seqs) -> np.ndarray:
    """Right-pad token id sequences with PAD_ID into a (b, t) array."""
    out = np.full((len(seqs), max(len(s) for s in seqs)), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def sinusoid_position_encoding(n_positions: int, d_model: int) -> np.ndarray:
    pe = np.zeros((n_positions, d_model))
    pos = np.arange(n_positions)[:, None]
    idx = np.arange(0, d_model, 2)[None, :]
    angles = pos / np.power(10000.0, idx / d_model)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : d_model // 2])
    return pe


def _positions(position_encoding: np.ndarray, t: int) -> np.ndarray:
    """The encodings of positions 0 .. t - 1."""
    if t > position_encoding.shape[0]:
        raise ShapeError(f"sequence of length {t} exceeds the {position_encoding.shape[0]} "
                         "precomputed positions")
    return position_encoding[:t]


def embed(token_ids, table: Tensor, position_encoding: np.ndarray) -> Tensor:
    """Word embedding plus sinusoidal position encoding, for (t,) or (b, t) ids."""
    ids = np.asarray(token_ids, dtype=np.int64)
    x = ad.embedding_lookup(table, ids)
    return ad.add(x, Tensor(np.broadcast_to(_positions(position_encoding, ids.shape[-1]),
                                            x.shape)))


def gated_fusion(h_image: Tensor, h_text: Tensor, w: Tensor, u: Tensor) -> Tensor:
    """H = h_text + lambda * h_image with an elementwise learned gate
    lambda = sigmoid(h_image w + h_text u)."""
    if h_image.shape != h_text.shape:
        raise ShapeError(f"fusion inputs differ: {h_image.shape} vs {h_text.shape}")
    lam = ad.sigmoid(ad.add(ad.linear(h_image, w), ad.linear(h_text, u)))
    return ad.add(h_text, ad.mul(lam, h_image))


def similarity_loss(h_image: Tensor, h_text: Tensor, margin: float,
                    lengths: np.ndarray) -> Tensor:
    """Hinge on (1 - cosine - margin) between the mean-pooled branch outputs:
    each example pools its first ``lengths`` rows, and the result is the mean
    of the examples' hinges.  The source lengths are shaped like the
    branches' leading axes, ``()`` for one (t, d) sentence."""
    c = ad.cosine_similarity(ad.mean_pool(h_image, lengths), ad.mean_pool(h_text, lengths))
    return ad.reduce_mean(ad.relu(ad.add_scalar(ad.scale(c, -1.0), 1.0 - margin)))


def total_loss(logits: Tensor, targets, h_image: Tensor | None, h_text: Tensor | None,
               weight: float, *, src_lengths: np.ndarray, margin: float = 0.3,
               pad_id: int = PAD_ID) -> Tensor:
    """Cross entropy plus the weighted similarity hinge.  The similarity term
    is dropped when either branch representation is absent.

    The loss is the mean over examples of each example's token-mean cross
    entropy plus its hinge, the same as averaging the losses of the examples
    taken one at a time: (t, vocab) logits are one example, (b, t, vocab) a
    batch.  The source lengths are shaped like the targets' leading axes."""
    live = np.asarray(targets) != pad_id
    weights = live / (math.prod(live.shape[:-1])
                      * np.maximum(live.sum(axis=-1, keepdims=True), 1))
    ce = ad.cross_entropy(logits, targets, weights, pad_id=pad_id)
    if h_image is None or h_text is None:
        return ce
    sim = similarity_loss(h_image, h_text, margin, src_lengths)
    return ad.add(ce, ad.scale(sim, weight))


# ---------------------------------------------------------------------------
# layers


class _Init:
    """Per-component seeded initialiser and registrar: the same (seed,
    component name) pair always yields the same draws, so model variants that
    share component names share initial values.  Every tensor it makes wraps
    its draw uncopied and is appended to ``params`` as ``component.field``,
    so the list holds each parameter once, in the order the model creates
    them; the model's store then copies it once and gives it a gradient."""

    def __init__(self, seed: int, name: str, params: list[Parameter]):
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        self.name = name
        self.params = params

    def tensor(self, field: str, data) -> Tensor:
        t = Tensor._adopt(np.asarray(data, dtype=np.float64))
        self.params.append(Parameter(f"{self.name}.{field}", t))
        return t

    def _uniform(self, d_in: int, d_out: int) -> np.ndarray:
        bound = 1.0 / math.sqrt(d_in)
        return self.rng.uniform(-bound, bound, size=(d_in, d_out))

    def matrix(self, field: str, d_in: int, d_out: int) -> Tensor:
        return self.tensor(field, self._uniform(d_in, d_out))

    def vector(self, field: str, d: int, value: float = 0.0) -> Tensor:
        return self.tensor(field, np.full(d, value))

    def attention(self, field: str, d_model: int, d_in_kv: int, n_heads: int
                  ) -> AttentionWeights:
        """One attention block's weights, registered as ``field.wq`` .. ``field.wo``:
        uniform draws as in :meth:`matrix`, head by head for wq, then wk, then
        wv, each stacked along the columns, then wo."""
        prefix = f"{field}." if field else ""
        d_head = d_model // n_heads

        def stacked(name: str, d_in: int) -> Tensor:
            return self.tensor(prefix + name, np.concatenate(
                [self._uniform(d_in, d_head) for _ in range(n_heads)], axis=1))

        return AttentionWeights(wq=stacked("wq", d_model), wk=stacked("wk", d_in_kv),
                                wv=stacked("wv", d_in_kv),
                                wo=self.matrix(prefix + "wo", d_model, d_model),
                                n_heads=n_heads)


class LayerNorm:
    def __init__(self, init: _Init, field: str, d: int):
        self.gain = init.vector(f"{field}.gain", d, 1.0)
        self.bias = init.vector(f"{field}.bias", d, 0.0)

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        return ad.residual_layer_norm(x, h, self.gain, self.bias)

    def rows(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        return ad.residual_norm(x, h, self.gain.data, self.bias.data)[0]


class FeedForward:
    def __init__(self, init: _Init, d_model: int, d_ffn: int):
        self.w1 = init.matrix("ffn.w1", d_model, d_ffn)
        self.b1 = init.vector("ffn.b1", d_ffn)
        self.w2 = init.matrix("ffn.w2", d_ffn, d_model)
        self.b2 = init.vector("ffn.b2", d_model)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(ad.relu(ad.linear(x, self.w1, self.b1)), self.w2, self.b2)

    def rows(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(ad.affine(x, self.w1.data, self.b1.data), 0.0)
        return ad.affine(hidden, self.w2.data, self.b2.data)


class EncoderLayer:
    def __init__(self, init: _Init, d_model: int, d_ffn: int, n_heads: int):
        self.attn = init.attention("self_attn", d_model, d_model, n_heads)
        self.ln1 = LayerNorm(init, "ln1", d_model)
        self.ffn = FeedForward(init, d_model, d_ffn)
        self.ln2 = LayerNorm(init, "ln2", d_model)

    def __call__(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x, multi_head_attention(x, x, self.attn, mask))
        return self.ln2(h, self.ffn(h))


class DecoderLayer:
    def __init__(self, init: _Init, d_model: int, d_ffn: int, n_heads: int):
        self.self_attn = init.attention("self_attn", d_model, d_model, n_heads)
        self.ln1 = LayerNorm(init, "ln1", d_model)
        self.cross_attn = init.attention("cross_attn", d_model, d_model, n_heads)
        self.ln2 = LayerNorm(init, "ln2", d_model)
        self.ffn = FeedForward(init, d_model, d_ffn)
        self.ln3 = LayerNorm(init, "ln3", d_model)

    def __call__(self, x: Tensor, memory: Tensor, mask: np.ndarray | None,
                 memory_mask: np.ndarray | None = None) -> Tensor:
        h = self.ln1(x, multi_head_attention(x, x, self.self_attn, mask))
        h = self.ln2(h, multi_head_attention(h, memory, self.cross_attn, memory_mask))
        return self.ln3(h, self.ffn(h))

    def step(self, x: np.ndarray, n: int, keys: np.ndarray, values: np.ndarray,
             memory_keys: np.ndarray, memory_values: np.ndarray,
             memory_mask: np.ndarray | None) -> np.ndarray:
        """The layer on the (..., 1, d) row of position n: puts its key and
        value at index n of the (..., H, max_len, d_head) buffers, then
        attends over the first n + 1 of them and over the memory's."""
        sa = self.self_attn
        keys[..., n:n + 1, :] = project_heads(x, sa.wk, sa.n_heads)
        values[..., n:n + 1, :] = project_heads(x, sa.wv, sa.n_heads)
        h = self.ln1.rows(x, attend_rows(x, keys[..., :n + 1, :], values[..., :n + 1, :], sa))
        h = self.ln2.rows(h, attend_rows(h, memory_keys, memory_values, self.cross_attn,
                                         memory_mask))
        return self.ln3.rows(h, self.ffn.rows(h))


class MMTModel:
    """Parameters, forward passes, losses, and greedy decoding for one model
    variant.  Construction is deterministic in (config, seed)."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        ab = cfg.ablation
        d, dk = cfg.d_model, cfg.d_image
        params: list[Parameter] = []

        def init(name: str) -> _Init:
            return _Init(seed, name, params)

        emb_init = init("embed")
        self.src_table = emb_init.matrix("src_table", cfg.vocab_src, d)
        self.tgt_table = emb_init.matrix("tgt_table", cfg.vocab_tgt, d)
        self.pos_enc = sinusoid_position_encoding(cfg.max_positions, d)

        self.text_layers = [EncoderLayer(init(f"text_enc.layer{i}"), d, cfg.d_ffn, cfg.n_heads)
                            for i in range(cfg.n_enc_layers)]

        self.img_proj_w = self.img_proj_b = None
        self.img_layers: list[EncoderLayer] = []
        self.cross_weights: AttentionWeights | None = None
        self.fusion_w = self.fusion_u = None
        if not ab.text_only:
            if ab.shared_encoders:
                self.img_layers = self.text_layers
            else:
                self.img_layers = [EncoderLayer(init(f"img_enc.layer{i}"), d, cfg.d_ffn,
                                                cfg.n_heads)
                                   for i in range(cfg.n_enc_layers)]
            if cfg.gumbel_layer >= 2:
                proj_init = init("img_proj")
                self.img_proj_w = proj_init.matrix("w", dk, d)
                self.img_proj_b = proj_init.vector("b", d)
                d_kv = d
            else:
                d_kv = dk
            self.cross_weights = init("cross_attn").attention("", d, d_kv, cfg.n_heads)
            if not ab.no_gated_fusion:
                fusion_init = init("fusion")
                self.fusion_w = fusion_init.matrix("w", d, d)
                self.fusion_u = fusion_init.matrix("u", d, d)

        self.dec_layers = [DecoderLayer(init(f"dec.layer{i}"), d, cfg.d_ffn, cfg.n_heads)
                           for i in range(cfg.n_dec_layers)]
        out_init = init("out_proj")
        self.out_w = out_init.matrix("w", d, cfg.vocab_tgt)
        self.out_b = out_init.vector("b", cfg.vocab_tgt)
        self.parameters = ad.ParameterSet(params)

    # -- encoding -----------------------------------------------------------

    def _text_states(self, emb: Tensor, mask: np.ndarray | None) -> list[Tensor]:
        """Intermediate text-branch states; states[i] is after i layers."""
        states = [emb]
        for layer in self.text_layers:
            states.append(layer(states[-1], mask))
        return states

    def encode(self, src_ids, image: np.ndarray | None, noise: NoiseSource | np.ndarray | None,
               mode: GateMode, tau: float = 1.0) -> EncoderOutput:
        """Encode one sentence, or a padded batch with one image per row.
        Train-mode Gumbel gates read ``noise``: a NoiseSource that
        :func:`gate_noise` draws from once, or its draw, made ahead, of shape
        ``lengths.shape + (H, t, r)``: (b, H, t, r), or (H, t, r) for one
        sentence."""
        cfg = self.cfg
        train_gates = cfg.gumbel_gates and mode.is_train
        if train_gates and noise is None:
            raise ConfigError("train-mode Gumbel attention needs a NoiseSource or drawn noise")
        ids = np.asarray(src_ids, dtype=np.int64)
        lengths = sequence_lengths(ids)
        t = ids.shape[-1]
        if not cfg.ablation.text_only:
            if image is None:
                raise ConfigError("multi-modal encoding needs image features")
            want = ids.shape[:-1] + (cfg.n_regions, cfg.d_image)
            if image.shape != want:
                raise ShapeError(f"image shape {image.shape} does not match {want} "
                                 "(token batch, n_regions, d_image)")
        drawn = noise if train_gates else None
        if train_gates and not isinstance(noise, np.ndarray):
            drawn = gate_noise(noise, cfg.n_heads, cfg.n_regions, lengths, t)
        gate_shape = ids.shape[:-1] + (cfg.n_heads, t, cfg.n_regions)
        if drawn is not None and drawn.shape != gate_shape:
            raise ShapeError(f"drawn gate noise of shape {drawn.shape} does not match "
                             f"{gate_shape} (token batch, n_heads, t, n_regions)")
        text_mask = key_padding_mask(lengths, t)
        emb = embed(ids, self.src_table, self.pos_enc)
        if cfg.ablation.text_only:
            h_text = self._text_states(emb, text_mask)[-1]
            return EncoderOutput(h_text=h_text, h_image=None, fused=h_text, lengths=lengths)

        states = self._text_states(emb, text_mask)
        h_text = states[-1]

        L = cfg.gumbel_layer
        x_img = Tensor(image)
        if L >= 2:
            x_img = ad.linear(x_img, self.img_proj_w, self.img_proj_b)
            for layer in self.img_layers[: L - 1]:
                x_img = layer(x_img)
        query = states[L - 1]

        gates = None
        if cfg.gumbel_gates:
            v, gates = multi_head_gumbel_attention(query, x_img, self.cross_weights, tau, drawn)
        else:
            v = multi_head_attention(query, x_img, self.cross_weights)
        # From here the image branch has one row per text position.
        for layer in self.img_layers[L - 1:]:
            v = layer(v, text_mask)
        h_image = v

        if cfg.ablation.no_gated_fusion:
            fused = ad.add(h_text, h_image)
        else:
            fused = gated_fusion(h_image, h_text, self.fusion_w, self.fusion_u)
        return EncoderOutput(h_text=h_text, h_image=h_image, fused=fused, lengths=lengths,
                             gates=gates)

    # -- decoding and losses --------------------------------------------------

    def decode(self, tgt_in_ids, memory: Tensor, memory_lengths: np.ndarray | None = None
               ) -> Tensor:
        """Next-token logits for every target input position: (t, vocab) for
        one sentence, (b, t, vocab) for a batch, whose memory_lengths are the
        source lengths of its padded memory; None says the memory has no
        padding.  The (t, t) causal mask and the memory's (b, 1, 1, n) key
        padding broadcast against every head's scores.  Right padding of the
        targets needs no mask: it follows every real position, so the causal
        mask already hides it from them."""
        ids = np.asarray(tgt_in_ids, dtype=np.int64)
        t = ids.shape[-1]
        x = embed(ids, self.tgt_table, self.pos_enc)
        mask = causal_mask(t)
        memory_mask = key_padding_mask(memory_lengths, memory.shape[-2])
        for layer in self.dec_layers:
            x = layer(x, memory, mask, memory_mask)
        return ad.linear(x, self.out_w, self.out_b)

    def loss(self, src_ids, tgt_ids, image: np.ndarray | None,
             noise: NoiseSource | np.ndarray | None, mode: GateMode, tau: float = 1.0
             ) -> tuple[Tensor, EncoderOutput]:
        """Loss of one sentence pair, or the mean loss of a padded batch."""
        enc = self.encode(src_ids, image, noise, mode, tau)
        tgt = np.asarray(tgt_ids, dtype=np.int64)
        logits = self.decode(tgt[..., :-1], enc.fused, enc.lengths)
        h_image = None if self.cfg.ablation.no_similarity_loss else enc.h_image
        loss = total_loss(logits, tgt[..., 1:], h_image, enc.h_text,
                          self.cfg.similarity_weight, margin=self.cfg.margin,
                          src_lengths=enc.lengths)
        return loss, enc

    def greedy_decode(self, src_ids, image: np.ndarray | None, max_len: int
                      ) -> tuple[list[int] | list[list[int]], EncoderOutput]:
        """Deterministic argmax decoding with infer-mode gates [score > 0], of
        one sentence or a padded (b, t) batch with one image per row.

        One encode, then one decoder row per sentence per step through a
        :class:`DecoderState`.  A row that has emitted EOS is frozen; the loop
        stops once every row has, or after max_len steps.  Returns the
        generated core token ids (no BOS/EOS), a list per row for a batch, and
        the encoder output (whose gates feed the selection metrics).
        """
        if max_len <= 0:
            raise ConfigError(f"max_len must be positive, got {max_len}")
        if BOS_ID >= self.cfg.vocab_tgt:
            raise DataError(f"token id {BOS_ID} out of range [0, {self.cfg.vocab_tgt})")
        with ad.no_grad():
            enc = self.encode(src_ids, image, None, GateMode.infer())
        state = DecoderState(self, enc.fused.data, enc.lengths, max_len)
        batch = enc.fused.shape[:-2]
        step = np.full(batch + (1,), BOS_ID, dtype=np.int64)
        out: list[list[int]] = [[] for _ in range(step.size)]
        done = np.zeros(step.size, dtype=bool)
        for _ in range(max_len):
            nxt = state.step(step)[..., -1, :].argmax(axis=-1).reshape(-1)
            done |= nxt == EOS_ID
            if done.all():
                break
            for i in np.flatnonzero(~done):
                out[i].append(int(nxt[i]))
            step = nxt.reshape(step.shape)
        return (out if batch else out[0]), enc


class DecoderState:
    """An incremental decode of up to max_len positions over a fixed (..., n, d)
    memory: per decoder layer, key and value buffers for every position the
    model can encode, up to max_len, and the memory's keys and values;
    ``length`` counts the positions decoded."""

    def __init__(self, model: MMTModel, memory: np.ndarray, memory_lengths: np.ndarray,
                 max_len: int):
        cfg = model.cfg
        self.model, self.length, self.max_len, heads = model, 0, max_len, cfg.n_heads
        self.memory_mask = key_padding_mask(memory_lengths, memory.shape[-2])
        buffer = memory.shape[:-2] + (heads, min(max_len, cfg.max_positions),
                                      cfg.d_model // heads)
        self.layers = [(np.empty(buffer), np.empty(buffer),
                        project_heads(memory, layer.cross_attn.wk, heads),
                        project_heads(memory, layer.cross_attn.wv, heads))
                       for layer in model.dec_layers]

    def step(self, ids: np.ndarray) -> np.ndarray:
        """(..., 1, vocab) next-token logits after the (..., 1) ids of position ``length``."""
        m, n = self.model, self.length
        # A position the model cannot encode fails first, so the buffers need
        # no row past the last encodable position.
        position = _positions(m.pos_enc, n + 1)[n]
        if n >= self.max_len:
            raise ShapeError(f"decoder position {n} is past the state's max_len {self.max_len}")
        x = m.tgt_table.data[ids] + position
        for layer, kv in zip(m.dec_layers, self.layers):
            x = layer.step(x, n, *kv, self.memory_mask)
        self.length += 1
        return ad.affine(x, m.out_w.data, m.out_b.data)
