"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import gumbel_mmt
from gumbel_mmt import attention, autodiff, data, model
from gumbel_mmt.gumbel import GateMode, NoiseSource

from benchmark import run, tracing
from benchmark.stats import percentile
from benchmark.workloads import decode_is_consistent, model_config_for

ROOT = Path(__file__).resolve().parent.parent


def _tracer_with_clock(times):
    it = iter(times)
    return tracing.Tracer(clock=lambda: next(it))


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    tr = _tracer_with_clock([0, 1, 2, 3, 4, 5, 9, 10])
    root = tr.open("root")
    a = tr.open("a")
    g = tr.open("g")
    tr.close(g)
    tr.close(a)
    b = tr.open("b")
    tr.close(b)
    tr.close(root)
    assert [s[tracing.PARENT] for s in tr.spans] == [-1, root, a, root]
    assert tracing.self_times(tr.spans) == [3, 2, 1, 4]


def test_ops_go_to_the_innermost_open_span():
    tr = _tracer_with_clock(range(100))
    tr.count_op()
    outer = tr.open("outer")
    tr.count_op()
    inner = tr.open("inner")
    tr.count_op()
    tr.count_op()
    tr.close(inner)
    tr.close(outer)
    assert tr.untraced_ops == 1
    assert [s[tracing.OPS] for s in tr.spans] == [1, 2]
    assert tracing.inclusive_ops(tr.spans) == [3, 2]


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(100), 90) == 89
    assert percentile(range(20), 50) == 9
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def _tiny_model():
    ds = data.generate_dataset(data.SyntheticTaskSpec(
        vocab_size=12, n_regions=4, d_image=8, n_relevant_regions=1,
        n_train=2, n_val=0, n_test=2, seed=5))
    cfg = model_config_for(ds, n_enc_layers=2, n_dec_layers=1, n_heads=2, d_model=8, d_ffn=16)
    return ds, model.MMTModel(cfg, seed=3)


def test_decode_check_accepts_greedy_output_and_catches_a_corrupted_token():
    ds, m = _tiny_model()
    ex = ds.test[0]
    max_len = len(ex.tgt_ids)
    decoded, enc = m.greedy_decode(ex.src_ids, ex.image, max_len)
    assert decoded, "the check needs at least one emitted token"
    assert decode_is_consistent(m, decoded, enc.fused, max_len)
    for pos in (0, len(decoded) - 1):
        bad = list(decoded)
        bad[pos] = 4 if bad[pos] != 4 else 5
        assert not decode_is_consistent(m, bad, enc.fused, max_len)
    # An output cut short must have ended on EOS.
    if len(decoded) > 1:
        assert not decode_is_consistent(m, decoded[:-1], enc.fused, max_len)


def test_installed_tracer_names_branches_counts_ops_and_restores_the_package():
    ds, m = _tiny_model()
    ex = ds.train[0]
    before = {name: getattr(autodiff, name) for name in tracing.primitive_names(autodiff)}
    assert len(before) >= 20
    mha = attention.multi_head_attention
    tr = tracing.Tracer()
    with tracing.installed(tr):
        # model.py calls its own binding, so that is the one that must be wrapped.
        assert gumbel_mmt.model.multi_head_attention is not mha
        autodiff.reset_tape()
        m.loss(ex.src_ids, ex.tgt_ids, ex.image, NoiseSource(0), GateMode.train())
        autodiff.reset_tape()
    names = [s[tracing.NAME] for s in tr.spans]
    assert names.count("model.text_enc") == 2
    assert names.count("model.img_enc") == 2
    assert names.count("model.encode") == 1
    assert names.count("model.dec_layer") == 1
    # Ops inside an encoder layer's self-attention are charged to the attention span.
    for s in tr.spans:
        if s[tracing.NAME] == "attention.mha" and tr.spans[s[tracing.PARENT]][tracing.NAME] \
                in ("model.text_enc", "model.img_enc"):
            assert s[tracing.OPS] > 0
    assert tr.untraced_ops == 0
    assert sum(s[tracing.OPS] for s in tr.spans) > 0
    for name, fn in before.items():
        assert getattr(autodiff, name) is fn
    assert gumbel_mmt.model.multi_head_attention is mha
    assert not hasattr(model.MMTModel.__dict__["encode"], "__wrapped__")


def test_layer_metrics_of_one_training_example():
    ds, m = _tiny_model()
    ex = ds.train[0]
    tr = tracing.Tracer()
    with tracing.installed(tr):
        autodiff.reset_tape()
        loss, _ = m.loss(ex.src_ids, ex.tgt_ids, ex.image, NoiseSource(0), GateMode.train())
        autodiff.backward(loss)
        autodiff.reset_tape()
    metrics = tracing.layer_metrics(tr.spans)
    assert metrics["autodiff.backward.calls"] == 1
    assert metrics["autodiff.backward.ops"] == 0
    assert metrics["model.loss_fn.calls"] == 1
    assert sum(metrics[f"{n}.ops"] for n in tracing.SPAN_NAMES) == \
        sum(tracing.inclusive_ops(tr.spans)[i] for i, s in enumerate(tr.spans)
            if s[tracing.PARENT] < 0)
    assert np.isclose(sum(metrics[f"{n}.self_ms"] for n in tracing.SPAN_NAMES),
                      sum(s[tracing.END] - s[tracing.START] for s in tr.spans
                          if s[tracing.PARENT] < 0) * 1e3)


def test_run_reports_exactly_the_manifest_metrics():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    assert e2e == {name: run.unit_of(name) for name in run.expected_metrics(0)}
    assert layers == {name: run.unit_of(name) for name in run.expected_metrics(1)}
