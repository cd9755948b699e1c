"""Synthetic multi-modal translation tasks at desk scale.

The disambiguation task plants exactly one ambiguous source token per
sentence whose correct translation is decided by a signature planted in a
few image regions; every other region is i.i.d. noise.  A text-only model
tops out at chance on that token, an image-reading model can hit ~100%.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

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
    """Token <-> id bijection with fixed reserved ids."""

    def __init__(self, tokens=()):
        self._token_to_id: dict[str, int] = {}
        self._id_to_token: dict[int, str] = {}
        for tok, i in _RESERVED:
            self._token_to_id[tok] = i
            self._id_to_token[i] = tok
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token in self._token_to_id:
            raise DataError(f"duplicate token {token!r}")
        i = len(self._token_to_id)
        self._token_to_id[token] = i
        self._id_to_token[i] = token
        return i

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token(self, i: int) -> str:
        try:
            return self._id_to_token[i]
        except KeyError:
            raise DataError(f"unknown token id {i}") from None

    def encode(self, tokens) -> list[int]:
        return [BOS_ID] + [self.id(t) for t in tokens] + [EOS_ID]

    def decode(self, ids) -> list[str]:
        return [self.token(i) for i in ids if i not in (PAD_ID, BOS_ID, EOS_ID)]

    def __len__(self) -> int:
        return len(self._token_to_id)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id


class Task(Enum):
    COPY = "copy"
    DISAMBIGUATION = "disambiguation"


@dataclass
class SyntheticTaskSpec:
    task: Task = Task.DISAMBIGUATION
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
        if isinstance(self.task, str):
            self.task = Task(self.task)
        if not 1 <= self.seq_len_min <= self.seq_len_max:
            raise DataError(f"bad sequence length range [{self.seq_len_min}, {self.seq_len_max}]")
        if not 0 < self.n_relevant_regions < self.n_regions:
            raise DataError(
                f"n_relevant_regions={self.n_relevant_regions} must lie in (0, {self.n_regions})")
        if self.vocab_size < 8:
            raise DataError(f"vocab_size={self.vocab_size} too small to host the task")


@dataclass
class ExampleMeta:
    ex_id: int
    label: int = -1                 # 0 => TARGET_A, 1 => TARGET_B; -1 for copy
    amb_src_pos: int = -1           # index into the core (bos/eos stripped) source
    amb_tgt_pos: int = -1
    relevant_regions: list[int] = field(default_factory=list)


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

    def split(self, name: str) -> list[Example]:
        try:
            return {"train": self.train, "val": self.val, "test": self.test}[name]
        except KeyError:
            raise DataError(f"unknown split {name!r}") from None


def build_vocabularies(spec: SyntheticTaskSpec) -> tuple[Vocabulary, Vocabulary]:
    n_words = spec.vocab_size - len(_RESERVED) - 1  # room for the ambiguous token
    if spec.task is Task.COPY:
        words = [f"w{i:02d}" for i in range(spec.vocab_size - len(_RESERVED))]
        v = Vocabulary(words)
        return v, v
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

    if spec.task is Task.COPY:
        words = [f"w{int(i):02d}" for i in
                 rng.integers(0, spec.vocab_size - len(_RESERVED), size=length)]
        image = rng.normal(0.0, spec.noise_regions_std,
                           size=(spec.n_regions, spec.d_image))
        image = image.astype(np.float32).astype(np.float64)
        return Example(src_vocab.encode(words), tgt_vocab.encode(words), image,
                       ExampleMeta(ex_id=ex_id))

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
    # Quantise to float32 so the on-disk base64 payload is lossless.
    image = image.astype(np.float32).astype(np.float64)
    return Example(src_vocab.encode(words), tgt_vocab.encode(tgt_words), image,
                   ExampleMeta(ex_id=ex_id, label=label, amb_src_pos=pos,
                               amb_tgt_pos=pos, relevant_regions=relevant))


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


# ---------------------------------------------------------------------------
# on-disk format: one file per split.  Line 1 is a JSON header carrying the
# generating spec; each record line is four tab-separated fields:
#   src tokens (space-joined) \t tgt tokens \t meta JSON \t base64 image
# The image payload is little-endian float32, row-major (n_regions, d_image).


def _spec_header(spec: SyntheticTaskSpec) -> dict:
    d = {k: getattr(spec, k) for k in (
        "vocab_size", "seq_len_min", "seq_len_max", "n_regions", "d_image",
        "n_relevant_regions", "noise_regions_std", "n_train", "n_val", "n_test", "seed")}
    d["task"] = spec.task.value
    return d


def save_split(path: Path, spec: SyntheticTaskSpec, src_vocab: Vocabulary,
               tgt_vocab: Vocabulary, examples: list[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "gumbel-mmt-split", "version": 1,
                             **_spec_header(spec)}, sort_keys=True) + "\n")
        for ex in examples:
            src = " ".join(src_vocab.decode(ex.src_ids))
            tgt = " ".join(tgt_vocab.decode(ex.tgt_ids))
            meta = json.dumps({"ex_id": ex.meta.ex_id, "label": ex.meta.label,
                               "amb_src_pos": ex.meta.amb_src_pos,
                               "amb_tgt_pos": ex.meta.amb_tgt_pos,
                               "relevant_regions": ex.meta.relevant_regions})
            blob = base64.b64encode(
                ex.image.astype("<f4").tobytes()).decode("ascii")
            fh.write(f"{src}\t{tgt}\t{meta}\t{blob}\n")


def load_split(path: Path, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> tuple[dict, list[Example]]:
    examples = []
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "gumbel-mmt-split":
            raise DataError(f"{path} is not a split file")
        r, d = int(header["n_regions"]), int(header["d_image"])
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 4:
                raise DataError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
            src, tgt, meta_json, blob = parts
            meta = json.loads(meta_json)
            try:
                ex_meta = ExampleMeta(ex_id=meta["ex_id"], label=meta["label"],
                                      amb_src_pos=meta["amb_src_pos"],
                                      amb_tgt_pos=meta["amb_tgt_pos"],
                                      relevant_regions=list(meta["relevant_regions"]))
            except KeyError as e:
                raise DataError(f"{path}:{line_no}: meta lacks key {e.args[0]!r}") from None
            image = np.frombuffer(base64.b64decode(blob), dtype="<f4").astype(np.float64)
            if image.size != r * d:
                raise DataError(f"{path}:{line_no}: image payload has {image.size} values, "
                                f"expected {r * d}")
            examples.append(Example(
                src_vocab.encode(src.split()), tgt_vocab.encode(tgt.split()),
                image.reshape(r, d), ex_meta))
    return header, examples


def save_dataset(data_dir: Path, ds: Dataset) -> None:
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    for name in ("train", "val", "test"):
        save_split(data_dir / f"{name}.txt", ds.spec, ds.src_vocab, ds.tgt_vocab,
                   ds.split(name))
    manifest = {"format": "gumbel-mmt-manifest", "version": 1,
                "counts": {"train": len(ds.train), "val": len(ds.val), "test": len(ds.test)},
                **_spec_header(ds.spec)}
    (data_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_dataset(data_dir: Path) -> Dataset:
    data_dir = Path(data_dir)
    manifest_path = data_dir / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"no manifest.json under {data_dir}")
    manifest = json.loads(manifest_path.read_text())
    spec = SyntheticTaskSpec(
        task=Task(manifest["task"]), vocab_size=manifest["vocab_size"],
        seq_len_min=manifest["seq_len_min"], seq_len_max=manifest["seq_len_max"],
        n_regions=manifest["n_regions"], d_image=manifest["d_image"],
        n_relevant_regions=manifest["n_relevant_regions"],
        noise_regions_std=manifest["noise_regions_std"],
        n_train=manifest["n_train"], n_val=manifest["n_val"], n_test=manifest["n_test"],
        seed=manifest["seed"])
    src_vocab, tgt_vocab = build_vocabularies(spec)
    splits = {}
    for name in ("train", "val", "test"):
        _, splits[name] = load_split(data_dir / f"{name}.txt", src_vocab, tgt_vocab)
    return Dataset(spec, src_vocab, tgt_vocab, splits["train"], splits["val"], splits["test"])


def random_image_for(example: Example, seed: int, n_regions: int, d_image: int) -> np.ndarray:
    """Stable per-example replacement features for the random-image ablation."""
    rng = np.random.default_rng([seed, 3, example.meta.ex_id])
    return rng.normal(size=(n_regions, d_image))
