"""Dual-encoder translation model with gated image-region selection.

The text branch is a plain post-norm transformer encoder.  The image branch
inserts gated cross-modal attention before encoder layer L (configurable;
L = n_enc_layers + 1 means both modalities are fully encoded first), then the
two branch outputs are merged by an elementwise learned gate.  The decoder is
a standard causal transformer decoder over the fused memory.

Each layer step is one tape record: ``linear`` for a weight product and its
bias, ``residual_layer_norm`` for a post-norm sublayer LayerNorm(x + sublayer(x)).
Each component registers its parameters where it creates them, through a
seeded ``_Init``, and ``MMTModel.named_parameters`` returns that one list.

Every forward takes one sentence (1-d token ids, a ``(r, d_image)`` image)
or a batch: ``(b, t)`` token ids right-padded with PAD_ID and ``(b, r,
d_image)`` images.  A batch runs through the same code with a leading axis,
and key-padding masks keep every example's real rows from reading padding.

Greedy decoding is incremental: ``decode`` takes a :class:`DecoderCache` and
then reads only the target positions that follow the cached ones, one row per
step.  A cache is valid only under ``autodiff.no_grad``; training never passes
one, and ``decode`` without a cache recomputes every position.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (AttentionWeights, KVCache, causal_mask,
                        init_attention_weights, key_padding_mask, multi_head_attention,
                        multi_head_gumbel_attention)
from .autodiff import Parameter, Tensor, check_unique_names
from .data import BOS_ID, EOS_ID, PAD_ID
from .errors import ConfigError, ShapeError
from .gumbel import GateMode, NoiseSource


@dataclass
class AblationFlags:
    vanilla_attention: bool = False
    random_image: bool = False
    shared_encoders: bool = False
    no_gated_fusion: bool = False
    no_similarity_loss: bool = False
    text_only: bool = False


@dataclass
class LossWeightMode:
    """Weight on the similarity term: a fixed constant, or a trainable raw
    scalar passed through softplus so the effective weight stays >= 0."""

    kind: str = "fixed"             # "fixed" | "trainable"
    value: float = 0.5              # fixed value, or softplus target at init

    def __post_init__(self):
        if self.kind not in ("fixed", "trainable"):
            raise ConfigError(f"loss weight mode must be fixed|trainable, got {self.kind!r}")
        if not 0.0 <= self.value < np.inf:
            raise ConfigError(f"loss weight must be finite and >= 0, got {self.value}")
        if self.trainable and self.value <= 0.0:
            raise ConfigError(f"a trainable loss weight must be > 0, got {self.value}")

    @property
    def trainable(self) -> bool:
        return self.kind == "trainable"


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
    loss_alpha: LossWeightMode = field(default_factory=LossWeightMode)
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
        if not 1 <= self.gumbel_layer <= self.n_enc_layers + 1:
            raise ConfigError(
                f"gumbel_layer={self.gumbel_layer} out of range 1..{self.n_enc_layers + 1}")


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
    gates: Tensor | None = None         # (..., H, t, r) gates of the cross-modal attention
    lengths: np.ndarray | None = None   # source lengths of a batch; None for one sentence

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
        lengths = np.full(b, t) if self.lengths is None else self.lengths
        real = np.arange(t) < lengths[:, None]                  # (b, t)
        per_region = np.where(real[:, None, :, None], alpha, 0.0).sum(axis=(1, 2))
        relevant = np.zeros((b, r), dtype=bool)
        for i, regions in enumerate(relevant_regions or []):
            relevant[i, regions] = True
        noise = ~relevant & relevant.any(axis=1, keepdims=True)
        regions = np.stack([np.ones_like(relevant), relevant, noise], axis=1)   # (b, 3, r)
        return GateStats(open=(per_region[:, None, :] * regions).sum(axis=2),
                         count=regions.sum(axis=2) * (heads * lengths)[:, None])

    def mean_gate(self) -> float | np.ndarray | None:
        """Mean gate over heads, real text rows and regions: a float for one
        sentence, a (b,) array for a batch; None without gates."""
        stats = self.gate_stats()
        if stats is None:
            return None
        if self.lengths is not None:
            return stats.open[:, 0] / stats.count[:, 0]
        return float(stats.open[0, 0] / stats.count[0, 0]) if stats.count[0, 0] else None


def sequence_lengths(ids: np.ndarray) -> np.ndarray | None:
    """Lengths of a right-padded (b, t) batch of token ids; None for 1-d ids."""
    if ids.ndim == 1:
        return None
    if ids.ndim != 2:
        raise ShapeError(f"token ids must be 1-d or (batch, time), got shape {ids.shape}")
    real = ids != PAD_ID
    lengths = real.sum(axis=1)
    if not (real == (np.arange(ids.shape[1]) < lengths[:, None])).all() or (lengths == 0).any():
        raise ShapeError("a padded batch needs a non-empty sentence in every row, "
                         "with PAD_ID only after its last token")
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


def embed(token_ids, table: Tensor, position_encoding: np.ndarray, start: int = 0) -> Tensor:
    """Word embedding plus sinusoidal position encoding, for (t,) or (b, t) ids
    at positions start .. start + t - 1."""
    ids = np.asarray(token_ids, dtype=np.int64)
    end = start + ids.shape[-1]
    if end > position_encoding.shape[0]:
        raise ShapeError(f"sequence of length {end} exceeds the {position_encoding.shape[0]} "
                         "precomputed positions")
    x = ad.embedding_lookup(table, ids)
    return ad.add(x, Tensor(np.broadcast_to(position_encoding[start:end], x.shape)))


def gated_fusion(h_image: Tensor, h_text: Tensor, w: Tensor, u: Tensor) -> Tensor:
    """H = h_text + lambda * h_image with an elementwise learned gate
    lambda = sigmoid(h_image w + h_text u)."""
    if h_image.shape != h_text.shape:
        raise ShapeError(f"fusion inputs differ: {h_image.shape} vs {h_text.shape}")
    lam = ad.sigmoid(ad.add(ad.linear(h_image, w), ad.linear(h_text, u)))
    return ad.add(h_text, ad.mul(lam, h_image))


def similarity_loss(h_image: Tensor, h_text: Tensor, margin: float,
                    lengths: np.ndarray | None = None) -> Tensor:
    """Hinge on (1 - cosine - margin) between the mean-pooled branch outputs.
    One sentence pools all its rows; for a padded batch, pass the source
    lengths: each example pools its real rows, and the result is the mean of
    the examples' hinges."""
    if lengths is None:
        lengths = np.full(h_text.shape[:-2], h_text.shape[-2])
    c = ad.cosine_similarity(ad.mean_pool(h_image, lengths), ad.mean_pool(h_text, lengths))
    return ad.reduce_mean(ad.relu(ad.add_scalar(ad.scale(c, -1.0), 1.0 - margin)))


def total_loss(logits: Tensor, targets, h_image: Tensor | None, h_text: Tensor | None,
               mode: LossWeightMode, *, margin: float = 0.3, alpha_raw: Tensor | None = None,
               pad_id: int = PAD_ID, src_lengths: np.ndarray | None = None) -> Tensor:
    """Cross entropy plus the weighted similarity hinge.  The similarity term
    is dropped when either branch representation is absent.

    For a batch, (b, t, vocab) logits, the loss is the mean over examples of
    each example's token-mean cross entropy plus its hinge, the same as
    averaging the losses of the examples taken one at a time."""
    weights = None
    if logits.data.ndim == 3:
        live = np.asarray(targets) != pad_id
        weights = live / (live.shape[0] * np.maximum(live.sum(axis=1), 1))[:, None]
    ce = ad.cross_entropy(logits, targets, pad_id=pad_id, weights=weights)
    if h_image is None or h_text is None:
        return ce
    sim = similarity_loss(h_image, h_text, margin, src_lengths)
    if mode.trainable:
        if alpha_raw is None:
            raise ConfigError("trainable loss weight requires the raw alpha parameter")
        return ad.add(ce, ad.mul(ad.softplus(alpha_raw), sim))
    return ad.add(ce, ad.scale(sim, mode.value))


def softplus_inverse(y: float) -> float:
    return float(np.log(np.expm1(y)))


# ---------------------------------------------------------------------------
# layers


class _Init:
    """Per-component seeded initialiser and registrar: the same (seed,
    component name) pair always yields the same draws, so model variants that
    share component names share initial values.  Every tensor it makes is
    appended to ``params`` as ``component.field``, so the list holds each
    parameter once, in the order the model creates them."""

    def __init__(self, seed: int, name: str, params: list[Parameter]):
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        self.name = name
        self.params = params

    def tensor(self, field: str, data) -> Tensor:
        t = Tensor(data, grad=True)
        self.params.append(Parameter(f"{self.name}.{field}", t))
        return t

    def matrix(self, field: str, d_in: int, d_out: int) -> Tensor:
        bound = 1.0 / math.sqrt(d_in)
        return self.tensor(field, self.rng.uniform(-bound, bound, size=(d_in, d_out)))

    def vector(self, field: str, d: int, value: float = 0.0) -> Tensor:
        return self.tensor(field, np.full(d, value))

    def attention(self, field: str, d_model: int, d_in_kv: int, n_heads: int
                  ) -> AttentionWeights:
        """One attention block's weights, registered as ``field.wq`` .. ``field.wo``."""
        w = init_attention_weights(self.rng, d_model, d_in_kv, d_model, n_heads)
        prefix = f"{self.name}.{field}." if field else f"{self.name}."
        self.params += [Parameter(prefix + n, getattr(w, n)) for n in ("wq", "wk", "wv", "wo")]
        return w


class LayerNorm:
    def __init__(self, init: _Init, field: str, d: int):
        self.gain = init.vector(f"{field}.gain", d, 1.0)
        self.bias = init.vector(f"{field}.bias", d, 0.0)

    def __call__(self, x: Tensor, h: Tensor) -> Tensor:
        return ad.residual_layer_norm(x, h, self.gain, self.bias)


class FeedForward:
    def __init__(self, init: _Init, d_model: int, d_ffn: int):
        self.w1 = init.matrix("ffn.w1", d_model, d_ffn)
        self.b1 = init.vector("ffn.b1", d_ffn)
        self.w2 = init.matrix("ffn.w2", d_ffn, d_model)
        self.b2 = init.vector("ffn.b2", d_model)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(ad.relu(ad.linear(x, self.w1, self.b1)), self.w2, self.b2)


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
                 memory_mask: np.ndarray | None = None,
                 cache: tuple[KVCache, KVCache] | None = None) -> Tensor:
        self_cache, memory_cache = (None, None) if cache is None else cache
        h = self.ln1(x, multi_head_attention(x, x, self.self_attn, mask, self_cache))
        h = self.ln2(h, multi_head_attention(h, memory, self.cross_attn,
                                             memory_mask, memory_cache))
        return self.ln3(h, self.ffn(h))


class DecoderCache:
    """State of one incremental decode: for each decoder layer, a growing
    self-attention cache over the target positions decoded so far and a
    static cache over the memory; ``length`` counts the cached positions."""

    def __init__(self, n_layers: int):
        self.layers = [(KVCache(), KVCache(static=True)) for _ in range(n_layers)]
        self.length = 0


class MMTModel:
    """Parameters, forward passes, losses, and greedy decoding for one model
    variant.  Construction is deterministic in (config, seed)."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        ab = cfg.ablation
        d, dk = cfg.d_model, cfg.d_image
        self._params: list[Parameter] = []

        def init(name: str) -> _Init:
            return _Init(seed, name, self._params)

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

        self.alpha_raw: Tensor | None = None
        if cfg.loss_alpha.trainable and not (ab.text_only or ab.no_similarity_loss):
            self.alpha_raw = init("loss_alpha").tensor(
                "raw", np.asarray(softplus_inverse(cfg.loss_alpha.value)))
        check_unique_names(self._params)

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> list[Parameter]:
        """Every trainable tensor once, in creation order, as registered by
        :class:`_Init`; the order fixes the order gradient norms sum in."""
        return list(self._params)

    def alpha_eff(self) -> float:
        if self.alpha_raw is not None:
            with ad.no_grad():
                return ad.softplus(self.alpha_raw).item()
        return self.cfg.loss_alpha.value

    # -- encoding -----------------------------------------------------------

    def _text_states(self, emb: Tensor, mask: np.ndarray | None) -> list[Tensor]:
        """Intermediate text-branch states; states[i] is after i layers."""
        states = [emb]
        for layer in self.text_layers:
            states.append(layer(states[-1], mask))
        return states

    def encode(self, src_ids, image: np.ndarray | None, noise: NoiseSource | None,
               mode: GateMode, tau: float = 1.0) -> EncoderOutput:
        """Encode one sentence, or a padded batch with one image per row."""
        cfg = self.cfg
        gumbel = not (cfg.ablation.text_only or cfg.ablation.vanilla_attention)
        if gumbel and mode.is_train and noise is None:
            raise ConfigError("train-mode Gumbel attention needs a NoiseSource")
        ids = np.asarray(src_ids, dtype=np.int64)
        lengths = sequence_lengths(ids)
        t = ids.shape[-1]
        text_mask = key_padding_mask(lengths, t, t)
        emb = embed(ids, self.src_table, self.pos_enc)
        if cfg.ablation.text_only:
            h_text = self._text_states(emb, text_mask)[-1]
            return EncoderOutput(h_text=h_text, h_image=None, fused=h_text, lengths=lengths)

        if image is None:
            raise ConfigError("multi-modal encoding needs image features")
        want = ids.shape[:-1] + (cfg.n_regions, cfg.d_image)
        if image.shape != want:
            raise ShapeError(f"image shape {image.shape} does not match {want} "
                             "(token batch, n_regions, d_image)")
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
        if gumbel:
            v, gates = multi_head_gumbel_attention(query, x_img, self.cross_weights, tau,
                                                   noise if mode.is_train else None, lengths)
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
        return EncoderOutput(h_text=h_text, h_image=h_image, fused=fused,
                             gates=gates, lengths=lengths)

    # -- decoding and losses --------------------------------------------------

    def decoder_cache(self) -> DecoderCache:
        """An empty cache for incremental decoding with :meth:`decode`."""
        return DecoderCache(len(self.dec_layers))

    def decode(self, tgt_in_ids, memory: Tensor, memory_lengths: np.ndarray | None = None,
               cache: DecoderCache | None = None) -> Tensor:
        """Next-token logits for every target input position: (t, vocab) for
        one sentence, (b, t, vocab) for a batch, whose memory_lengths are the
        source lengths of its padded memory.  Right padding of the targets
        needs no mask: it follows every real position, so the causal mask
        already hides it from them.

        With a cache (under ``autodiff.no_grad`` only), tgt_in_ids are the
        positions that follow the cache.length already cached: position
        encoding and causal mask are offset by that length, every layer reads
        and extends its cached keys and values, and the cache then holds the
        new positions too.  The memory must be the same at every call."""
        ids = np.asarray(tgt_in_ids, dtype=np.int64)
        t = ids.shape[-1]
        start = 0 if cache is None else cache.length
        x = embed(ids, self.tgt_table, self.pos_enc, start)
        mask = causal_mask(t, start)
        # A row that may see every key, such as one decoding step, needs no mask.
        mask = np.broadcast_to(mask, ids.shape + mask.shape[-1:]) if mask.any() else None
        memory_mask = key_padding_mask(memory_lengths, t, memory.shape[-2])
        for i, layer in enumerate(self.dec_layers):
            x = layer(x, memory, mask, memory_mask, None if cache is None else cache.layers[i])
        if cache is not None:
            cache.length += t
        return ad.linear(x, self.out_w, self.out_b)

    def loss(self, src_ids, tgt_ids, image: np.ndarray | None,
             noise: NoiseSource | None, mode: GateMode, tau: float = 1.0
             ) -> tuple[Tensor, EncoderOutput]:
        """Loss of one sentence pair, or the mean loss of a padded batch."""
        enc = self.encode(src_ids, image, noise, mode, tau)
        tgt = np.asarray(tgt_ids, dtype=np.int64)
        logits = self.decode(tgt[..., :-1], enc.fused, enc.lengths)
        h_image = None if self.cfg.ablation.no_similarity_loss else enc.h_image
        loss = total_loss(logits, tgt[..., 1:], h_image, enc.h_text, self.cfg.loss_alpha,
                          margin=self.cfg.margin, alpha_raw=self.alpha_raw,
                          src_lengths=enc.lengths)
        return loss, enc

    def greedy_decode(self, src_ids, image: np.ndarray | None, max_len: int
                      ) -> tuple[list[int] | list[list[int]], EncoderOutput]:
        """Deterministic argmax decoding with infer-mode gates [score > 0], of
        one sentence or a padded (b, t) batch with one image per row.

        One encode, then one decoder row per sentence per step through a
        DecoderCache.  A row that has emitted EOS is frozen; the loop stops
        once every row has, or after max_len steps.  Returns the generated
        core token ids (no BOS/EOS), a list per row for a batch, and the
        encoder output (whose gates feed the selection metrics).
        """
        if max_len <= 0:
            raise ConfigError(f"max_len must be positive, got {max_len}")
        with ad.no_grad():
            enc = self.encode(src_ids, image, None, GateMode.infer())
            batch = enc.fused.shape[:-2]
            step = np.full(batch + (1,), BOS_ID, dtype=np.int64)
            out: list[list[int]] = [[] for _ in range(step.size)]
            done = np.zeros(step.size, dtype=bool)
            cache = self.decoder_cache()
            for _ in range(max_len):
                logits = self.decode(step, enc.fused, enc.lengths, cache)
                nxt = logits.data[..., -1, :].argmax(axis=-1).reshape(-1)
                done |= nxt == EOS_ID
                if done.all():
                    break
                for i in np.flatnonzero(~done):
                    out[i].append(int(nxt[i]))
                step = nxt.reshape(step.shape)
        return (out if batch else out[0]), enc
