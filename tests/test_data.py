import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbel_mmt.data import (AMBIGUOUS_TOKEN, BOS_ID, EOS_ID, PAD_ID, UNK_ID,
                             SyntheticTaskSpec, Vocabulary, generate_dataset, random_image_for)
from gumbel_mmt.errors import DataError


def small_spec(**kw):
    base = dict(vocab_size=20, seq_len_min=4, seq_len_max=6,
                n_regions=9, d_image=16, n_relevant_regions=3, noise_regions_std=1.0,
                n_train=40, n_val=10, n_test=10, seed=99)
    base.update(kw)
    return SyntheticTaskSpec(**base)


# -- vocabulary ------------------------------------------------------------------

def test_reserved_ids():
    v = Vocabulary(["a", "b"])
    assert v.id("a") == 4 and v.id("b") == 5
    assert v.token(PAD_ID) == "<pad>" and v.token(BOS_ID) == "<bos>"
    assert v.id("missing") == UNK_ID


def test_vocabulary_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        Vocabulary(["a", "a"])


def test_encode_decode_roundtrip():
    v = Vocabulary([f"w{i}" for i in range(6)])
    ids = v.encode(["w0", "w3", "w5"])
    assert ids[0] == BOS_ID and ids[-1] == EOS_ID
    assert v.decode(ids) == ["w0", "w3", "w5"]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=8))
def test_vocabulary_bijection(idxs):
    v = Vocabulary([f"w{i}" for i in range(6)])
    tokens = [f"w{i}" for i in idxs]
    assert v.decode(v.encode(tokens)) == tokens


# -- task construction -------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DataError):
        small_spec(n_relevant_regions=9)  # must be < n_regions
    with pytest.raises(DataError):
        small_spec(seq_len_min=7)  # > seq_len_max
    with pytest.raises(DataError):
        small_spec(vocab_size=5)


@pytest.mark.parametrize("std", [float("nan"), -1.0, float("inf")])
def test_spec_rejects_bad_noise_std_naming_the_field(std):
    with pytest.raises(DataError, match="noise_regions_std"):
        small_spec(noise_regions_std=std)


@pytest.mark.parametrize("field,value", [
    ("n_train", -1), ("n_val", -1), ("n_test", -2), ("d_image", 0), ("d_image", -3),
])
def test_spec_rejects_bad_sizes_naming_the_field(field, value):
    with pytest.raises(DataError, match=f"^{field}={value} must be >= "):
        small_spec(**{field: value})


def test_empty_splits_are_legal():
    ds = generate_dataset(small_spec(n_train=0, n_val=0, n_test=0))
    assert ds.train == ds.val == ds.test == []


def test_disambiguation_construction():
    spec = small_spec()
    ds = generate_dataset(spec)
    assert len(ds.train) == 40 and len(ds.val) == 10 and len(ds.test) == 10
    sig_by_label = {}
    for ex in ds.train:
        assert ex.src_ids[0] == BOS_ID and ex.src_ids[-1] == EOS_ID
        assert ex.tgt_ids[0] == BOS_ID and ex.tgt_ids[-1] == EOS_ID
        assert len(ex.meta.relevant_regions) == 3
        assert ex.image.shape == (9, 16)
        core = ds.src_vocab.decode(ex.src_ids)
        assert core.count(AMBIGUOUS_TOKEN) == 1
        assert core.index(AMBIGUOUS_TOKEN) == ex.meta.amb_src_pos
        # the answer must be recoverable from the relevant rows alone
        sig_by_label.setdefault(ex.meta.label, ex.image[ex.meta.relevant_regions[0]])
    assert set(sig_by_label) == {0, 1}
    assert not np.allclose(sig_by_label[0], sig_by_label[1])


def test_relevant_rows_carry_the_signature():
    spec = small_spec()
    ds = generate_dataset(spec)
    ex0 = next(e for e in ds.train if e.meta.label == 0)
    ex1 = next(e for e in ds.train if e.meta.label == 1)
    rows0 = ex0.image[ex0.meta.relevant_regions]
    rows1 = ex1.image[ex1.meta.relevant_regions]
    # same-label relevant rows nearly coincide; cross-label ones do not
    assert np.abs(rows0 - rows0[0]).max() < 1.0
    assert np.abs(rows0[0] - rows1[0]).max() > 1.0


def test_dataset_is_deterministic():
    a = generate_dataset(small_spec())
    b = generate_dataset(small_spec())
    for ea, eb in zip(a.train + a.val + a.test, b.train + b.val + b.test):
        assert ea.src_ids == eb.src_ids
        assert ea.tgt_ids == eb.tgt_ids
        assert ea.meta == eb.meta
        np.testing.assert_array_equal(ea.image, eb.image)


def test_splits_are_disjoint_and_balanced():
    ds = generate_dataset(small_spec())
    ids = [ex.meta.ex_id for ex in ds.train + ds.val + ds.test]
    assert len(set(ids)) == len(ids)
    for split in (ds.train, ds.val, ds.test):
        labels = [ex.meta.label for ex in split]
        assert abs(labels.count(0) - labels.count(1)) <= max(2, 0.02 * len(split))


def test_majority_baseline_is_chance():
    ds = generate_dataset(small_spec(n_test=100))
    labels = [ex.meta.label for ex in ds.test]
    majority = max(labels.count(0), labels.count(1)) / len(labels)
    assert majority == pytest.approx(0.5, abs=0.05)


def test_random_image_is_stable_per_example():
    ds = generate_dataset(small_spec())
    ex = ds.train[0]
    a = random_image_for(ex, seed=1, n_regions=9, d_image=16)
    b = random_image_for(ex, seed=1, n_regions=9, d_image=16)
    np.testing.assert_array_equal(a, b)
    other = random_image_for(ds.train[1], seed=1, n_regions=9, d_image=16)
    assert not np.array_equal(a, other)
