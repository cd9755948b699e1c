"""The synthetic multi-modal translation task, at desk scale.

The disambiguation task plants exactly one ambiguous source token per
sentence whose correct translation is decided by a signature planted in a
few image regions; every other region is i.i.d. noise.  A text-only model
tops out at chance on that token, an image-reading model can hit ~100%.

:func:`generate_dataset` builds the whole task in memory from a
:class:`SyntheticTaskSpec`; the spec, seed included, fixes every example bit
for bit, so there is nothing to save or load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3

_RESERVED = [("<pad>", PAD_ID), ("<bos>", BOS_ID), ("<eos>", EOS_ID), ("<unk>", UNK_ID)]

AMBIGUOUS_TOKEN = "amb"
TARGET_A = "tx"
TARGET_B = "ty"

# Relevant rows are signature * scale + N(0, jitter); construction constants.
_SIGNATURE_SCALE = 2.0
_SIGNATURE_JITTER = 0.1


class Vocabulary:
    """Token -> id map with fixed reserved ids; ids are assigned in order."""

    def __init__(self, tokens=()):
        self._token_to_id: dict[str, int] = dict(_RESERVED)
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token in self._token_to_id:
            raise DataError(f"duplicate token {token!r}")
        i = len(self._token_to_id)
        self._token_to_id[token] = i
        return i

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def encode(self, tokens) -> list[int]:
        return [BOS_ID] + [self.id(t) for t in tokens] + [EOS_ID]

    def __len__(self) -> int:
        return len(self._token_to_id)


@dataclass
class SyntheticTaskSpec:
    vocab_size: int = 50
    seq_len_min: int = 6
    seq_len_max: int = 10
    n_regions: int = 49
    d_image: int = 512
    n_relevant_regions: int = 3
    noise_regions_std: float = 1.0
    n_train: int = 2000
    n_val: int = 200
    n_test: int = 200
    seed: int = 1234

    def __post_init__(self):
        if not 1 <= self.seq_len_min <= self.seq_len_max:
            raise DataError(f"bad sequence length range [{self.seq_len_min}, {self.seq_len_max}]")
        if not 0 < self.n_relevant_regions < self.n_regions:
            raise DataError(
                f"n_relevant_regions={self.n_relevant_regions} must lie in (0, {self.n_regions})")
        if self.vocab_size < 8:
            raise DataError(f"vocab_size={self.vocab_size} too small to host the task")
        for name, low in (("d_image", 1), ("n_train", 0), ("n_val", 0), ("n_test", 0)):
            if getattr(self, name) < low:
                raise DataError(f"{name}={getattr(self, name)} must be >= {low}")
        if not 0.0 <= self.noise_regions_std < np.inf:
            raise DataError(
                f"noise_regions_std={self.noise_regions_std} must be finite and >= 0")


@dataclass
class ExampleMeta:
    ex_id: int
    label: int                      # 0 => TARGET_A, 1 => TARGET_B
    amb_tgt_pos: int                # index into the core (bos/eos stripped) target and source
    relevant_regions: list[int]


@dataclass
class Example:
    src_ids: list[int]              # bos ... eos
    tgt_ids: list[int]              # bos ... eos
    image: np.ndarray               # (n_regions, d_image) float64
    meta: ExampleMeta


@dataclass
class Dataset:
    spec: SyntheticTaskSpec
    src_vocab: Vocabulary
    tgt_vocab: Vocabulary
    train: list[Example]
    val: list[Example]
    test: list[Example]


def build_vocabularies(spec: SyntheticTaskSpec) -> tuple[Vocabulary, Vocabulary]:
    n_words = spec.vocab_size - len(_RESERVED) - 1  # room for the ambiguous token
    src = Vocabulary([f"s{i:02d}" for i in range(n_words)] + [AMBIGUOUS_TOKEN])
    tgt = Vocabulary([f"t{i:02d}" for i in range(n_words)] + [TARGET_A, TARGET_B])
    return src, tgt


def _signatures(spec: SyntheticTaskSpec) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, 777])
    sig = rng.normal(size=(2, spec.d_image))
    sig /= np.linalg.norm(sig, axis=1, keepdims=True)
    return sig * _SIGNATURE_SCALE


def _make_example(spec: SyntheticTaskSpec, src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                  signatures: np.ndarray, ex_id: int) -> Example:
    rng = np.random.default_rng([spec.seed, 1, ex_id])
    length = int(rng.integers(spec.seq_len_min, spec.seq_len_max + 1))
    n_words = spec.vocab_size - len(_RESERVED) - 1

    words = [f"s{int(i):02d}" for i in rng.integers(0, n_words, size=length)]
    pos = int(rng.integers(0, length))
    words[pos] = AMBIGUOUS_TOKEN
    label = ex_id % 2  # ids are assigned contiguously per split, so splits stay balanced
    tgt_words = [TARGET_A if label == 0 else TARGET_B if w == AMBIGUOUS_TOKEN
                 else "t" + w[1:] for w in words]

    image = rng.normal(0.0, spec.noise_regions_std, size=(spec.n_regions, spec.d_image))
    relevant = rng.choice(spec.n_regions, size=spec.n_relevant_regions, replace=False)
    relevant = sorted(int(r) for r in relevant)
    image[relevant] = signatures[label] + rng.normal(0.0, _SIGNATURE_JITTER,
                                                     size=(spec.n_relevant_regions, spec.d_image))
    # Quantise to float32: the golden tests and recorded benchmark figures were
    # taken on these values, and dropping the round trip would change them.
    image = image.astype(np.float32).astype(np.float64)
    return Example(src_vocab.encode(words), tgt_vocab.encode(tgt_words), image,
                   ExampleMeta(ex_id=ex_id, label=label, amb_tgt_pos=pos,
                               relevant_regions=relevant))


def generate_dataset(spec: SyntheticTaskSpec) -> Dataset:
    """Deterministic in spec.seed; example ids are disjoint across splits."""
    src_vocab, tgt_vocab = build_vocabularies(spec)
    sig = _signatures(spec)

    def batch(start: int, count: int) -> list[Example]:
        return [_make_example(spec, src_vocab, tgt_vocab, sig, i)
                for i in range(start, start + count)]

    train = batch(0, spec.n_train)
    val = batch(spec.n_train, spec.n_val)
    test = batch(spec.n_train + spec.n_val, spec.n_test)
    return Dataset(spec, src_vocab, tgt_vocab, train, val, test)


def random_image_for(example: Example, seed: int, n_regions: int, d_image: int) -> np.ndarray:
    """Stable per-example replacement features for the random-image ablation."""
    rng = np.random.default_rng([seed, 3, example.meta.ex_id])
    return rng.normal(size=(n_regions, d_image))
