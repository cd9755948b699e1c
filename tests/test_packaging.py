import ast
import importlib
import inspect
import re
import sys
import tomllib
from pathlib import Path

import gumbel_mmt
from gumbel_mmt import autodiff, model
from helpers import load_bench_tracing

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
WORKLOADS = ROOT / "benchmark" / "workloads.py"
PACKAGE = ROOT / "src" / "gumbel_mmt"


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


def test_autodiff_exposes_exactly_the_twenty_primitives():
    # The benchmark counts ops by wrapping these and requires at least 20 of
    # them; a deletion or rename here must fail tier-1 before it breaks that.
    primitives = load_bench_tracing().primitive_names(autodiff)
    assert primitives == sorted([
        "linear", "matmul", "attention_scores", "add", "mul", "scale", "add_scalar",
        "relu", "sigmoid", "softplus", "softmax_rows", "residual_layer_norm",
        "cross_entropy", "cosine_similarity", "split_heads", "merge_heads",
        "embedding_lookup", "reduce_sum", "reduce_mean", "mean_pool"])


def test_benchmark_workloads_read_only_names_the_package_has():
    # The benchmark runs outside these tests; a name it reads that the
    # package no longer has would otherwise show up only at benchmark time.
    tree = ast.parse(WORKLOADS.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "gumbel_mmt"
               for alias in node.names}
    assert modules == {"autodiff", "data", "errors", "model", "training"}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("data", "generate_dataset") in read
    missing = sorted(f"{m}.{attr}" for m, attr in read
                     if not hasattr(getattr(gumbel_mmt, m), attr))
    assert not missing


def test_numpy_is_the_only_runtime_dependency():
    allowed = set(sys.stdlib_module_names) | {"numpy", "gumbel_mmt"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, (path.name, name)
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in deps] == ["numpy"]
