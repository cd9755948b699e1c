"""Outside-in tracing of the gumbel_mmt package, for the per-layer metrics.

Nothing in the package knows about this module.  While a :class:`Tracer` is
installed, each public function the benchmark attributes time to is replaced,
in every ``gumbel_mmt`` module that holds a reference to it, by a wrapper that
opens a span around the call.  That matters because callers import some names
directly (``model.py`` calls its own ``multi_head_attention`` binding, not
``attention.multi_head_attention``).  Methods are wrapped on their classes.

Every autodiff primitive is wrapped the same way to count operations.  The
primitives are found by inspection when the tracer is installed: every public
function defined in ``gumbel_mmt.autodiff`` whose return annotation is
``Tensor``.  A primitive added later is counted without touching this file.
An op is charged to the innermost span open when it is called.

Spans are kept in memory (name, start, end, parent, ops, size) and written
out once, at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# Fields of one span, stored as a list so that appending one is cheap.
NAME, START, END, PARENT, OPS, SIZE = range(6)

# (span name, module, attribute): plain functions, patched at every alias.
FUNCTION_SPANS = [
    ("data.generate_dataset", "data", "generate_dataset"),
    ("autodiff.backward", "autodiff", "backward"),
    ("attention.mha", "attention", "multi_head_attention"),
    ("attention.gumbel", "attention", "multi_head_gumbel_attention"),
    ("gumbel.sigmoid", "gumbel", "gumbel_sigmoid"),
    ("model.embed", "model", "embed"),
    ("model.fusion", "model", "gated_fusion"),
    ("model.loss_fn", "model", "total_loss"),
    ("training.train", "training", "train"),
    ("training.adam_step", "training", "adam_step"),
    ("training.evaluate", "training", "evaluate"),
    ("training.teacher_forced_loss", "training", "teacher_forced_loss"),
    ("bleu.corpus_bleu", "bleu", "corpus_bleu"),
]

# (span name, class, method) wrapped on the class.  Encoder layers get their
# span name per call, from whether the layer belongs to the text branch.
METHOD_SPANS = [
    ("model.encode", "MMTModel", "encode"),
    ("model.decode", "MMTModel", "decode"),
    ("model.greedy_decode", "MMTModel", "greedy_decode"),
    ("model.dec_layer", "DecoderLayer", "__call__"),
    (None, "EncoderLayer", "__call__"),
]

SPAN_NAMES = [name for name, _, _ in FUNCTION_SPANS + METHOD_SPANS if name] + [
    "model.text_enc", "model.img_enc"]


def _decode_rows(args, kwargs, result) -> int:
    """Decoder input rows fed to MMTModel.decode(self, tgt_in_ids, memory)."""
    return len(args[1] if len(args) > 1 else kwargs["tgt_in_ids"])


def _decode_steps(args, kwargs, result) -> int:
    """Decoder steps taken by greedy_decode(self, src_ids, image, max_len):
    one per emitted token, plus one for the EOS that ended it early."""
    max_len = args[3] if len(args) > 3 else kwargs["max_len"]
    emitted = len(result[0])
    return emitted + (emitted < max_len)


def _train_examples(args, kwargs, result) -> int:
    """Examples trained by train(model, dataset, cfg, start_epoch=0, ...)."""
    dataset, cfg = args[1], args[2]
    return len(dataset.train) * (cfg.epochs - kwargs.get("start_epoch", 0))


# What a span's `size` field counts, for the spans the derived metrics need.
SIZES: dict[str, Callable] = {
    "model.decode": _decode_rows,
    "model.greedy_decode": _decode_steps,
    "training.train": _train_examples,
}


class Tracer:
    """Span log and op counter.  Single-threaded: spans nest strictly."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.untraced_ops = 0
        self.text_layers: list = []  # text-branch layers of the model encoding now

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, self.stack[-1] if self.stack else -1, 0, 0])
        self.stack.append(i)
        return i

    def close(self, i: int, size: int = 0) -> None:
        span = self.spans[i]
        span[END] = self.clock()
        span[SIZE] = size
        self.stack.pop()

    def count_op(self) -> None:
        if self.stack:
            self.spans[self.stack[-1]][OPS] += 1
        else:
            self.untraced_ops += 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "ops", "size"],
                       "untraced_ops": self.untraced_ops, "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# patching


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gumbel_mmt" or name.startswith("gumbel_mmt."))]


def primitive_names(autodiff) -> list[str]:
    """Public functions defined in the autodiff module that return a Tensor."""
    return sorted(
        name for name, fn in vars(autodiff).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == autodiff.__name__
        and fn.__annotations__.get("return") in ("Tensor", autodiff.Tensor))


def _span_wrapper(tracer: Tracer, name, fn, size=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(i, size(args, kwargs, result) if size and result is not None else 0)
    return wrapper


def _encode_wrapper(tracer: Tracer, fn):
    """MMTModel.encode: also publishes the model's text layers, so that the
    encoder-layer wrapper can tell the two branches apart."""
    inner = _span_wrapper(tracer, "model.encode", fn)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        outer = tracer.text_layers
        tracer.text_layers = self.text_layers
        try:
            return inner(self, *args, **kwargs)
        finally:
            tracer.text_layers = outer
    return wrapper


def _encoder_layer_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        text = any(layer is self for layer in tracer.text_layers)
        i = tracer.open("model.text_enc" if text else "model.img_enc")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(i)
    return wrapper


def _op_wrapper(tracer: Tracer, fn):
    count = tracer.count_op

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        count()
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch the package for the duration of the block, then restore it."""
    import gumbel_mmt
    from gumbel_mmt import autodiff, model

    undo: list[tuple[object, str, object]] = []
    modules = _package_modules()

    def patch_aliases(fn, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    try:
        for name, mod_name, attr in FUNCTION_SPANS:
            fn = getattr(getattr(gumbel_mmt, mod_name), attr)
            patch_aliases(fn, _span_wrapper(tracer, name, fn, SIZES.get(name)))
        for name, cls_name, attr in METHOD_SPANS:
            cls = getattr(model, cls_name)
            fn = cls.__dict__[attr]
            if name is None:
                wrapper = _encoder_layer_wrapper(tracer, fn)
            elif name == "model.encode":
                wrapper = _encode_wrapper(tracer, fn)
            else:
                wrapper = _span_wrapper(tracer, name, fn, SIZES.get(name))
            undo.append((cls, attr, fn))
            setattr(cls, attr, wrapper)
        for name in primitive_names(autodiff):
            fn = getattr(autodiff, name)
            patch_aliases(fn, _op_wrapper(tracer, fn))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def inclusive_ops(spans: list[list]) -> list[int]:
    """Ops charged to each span or any span below it.  Children are opened
    after their parent, so one pass from the end accumulates every subtree."""
    out = [s[OPS] for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0:
            out[p] += out[i]
    return out


def _nearest(spans: list[list], i: int, names) -> int:
    """Index of the closest proper ancestor of span i named in `names`, or -1."""
    p = spans[i][PARENT]
    while p >= 0 and spans[p][NAME] not in names:
        p = spans[p][PARENT]
    return p


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per span name: calls, self time in ms and ops; then the derived
    ratios.  A ratio whose base never occurred in the run reads 0."""
    selfs = self_times(spans)
    incl = inclusive_ops(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_ms"] = 0.0
        out[f"{name}.ops"] = 0
    train_s = backward_s = eval_s = 0.0
    train_examples = train_ops = 0
    tokens = decode_rows = decode_ops = 0
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_ms"] += selfs[i] * 1e3
        out[f"{name}.ops"] += s[OPS]
        if name == "training.train" and _nearest(spans, i, {"training.train"}) < 0:
            train_s += dur
            train_examples += s[SIZE]
            train_ops += incl[i]
        elif name == "model.greedy_decode":
            tokens += s[SIZE]
            decode_ops += incl[i]
        in_train = _nearest(spans, i, {"training.train"}) >= 0
        if name == "autodiff.backward" and in_train:
            backward_s += dur
        elif name in ("training.evaluate", "training.teacher_forced_loss") and in_train:
            if _nearest(spans, i, {"training.evaluate", "training.teacher_forced_loss"}) < 0:
                eval_s += dur
                train_ops -= incl[i]
        elif name == "model.decode" and _nearest(spans, i, {"model.greedy_decode"}) >= 0:
            decode_rows += s[SIZE]
    out["autodiff.ops_per_example"] = train_ops / train_examples if train_examples else 0.0
    out["autodiff.ops_per_token"] = decode_ops / tokens if tokens else 0.0
    out["autodiff.backward.share"] = backward_s / train_s if train_s else 0.0
    out["training.eval_share"] = eval_s / train_s if train_s else 0.0
    out["model.decode.rows_per_token"] = decode_rows / tokens if tokens else 0.0
    return out
