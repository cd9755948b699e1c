import importlib
import inspect
import tomllib
from pathlib import Path

import gumbel_mmt
from gumbel_mmt import model
from helpers import load_bench_tracing

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_console_script_target_resolves():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_benchmark_tracer_targets_resolve_in_the_package():
    # The tracer patches these names from outside the package; a rename or a
    # changed signature here would break the traced benchmark run.
    tracing = load_bench_tracing()
    for span, module, attr in tracing.FUNCTION_SPANS:
        assert callable(getattr(getattr(gumbel_mmt, module), attr, None)), span
    for span, cls, attr in tracing.METHOD_SPANS:
        assert callable(getattr(model, cls).__dict__.get(attr)), (span, cls, attr)
    # _decode_rows reads tgt_in_ids; _decode_steps reads src_ids, image, max_len.
    decode = list(inspect.signature(model.MMTModel.decode).parameters)
    assert decode[:2] == ["self", "tgt_in_ids"]
    greedy = list(inspect.signature(model.MMTModel.greedy_decode).parameters)
    assert greedy[:4] == ["self", "src_ids", "image", "max_len"]
