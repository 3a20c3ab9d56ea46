"""Span recorder for the traced benchmark run.

The recorder wraps public functions of ``sshr`` where the program looks
them up (a function bound by ``from ... import`` is patched in the module
that imported it) and restores every original when the ``installed``
block exits. Each call becomes a span ``[name, start, end, parent, run]``
kept in memory; self time is a span's duration minus that of its direct
children. Counters record exact work counts at the same boundaries.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

import sshr.ctc
import sshr.datagen
import sshr.evalkit
import sshr.model
import sshr.probe
import sshr.tensor
import sshr.trainer
from sshr.errors import CtcInfeasibleError
from sshr.model import SshrModel

NAME, START, END, PARENT, RUN = range(5)


def _shape(x):
    return x.values.shape if isinstance(x, sshr.tensor.Tensor) else np.shape(x)


def _count_graph_nodes(counts, args, result):
    counts["tensor.graph_nodes"] += len(result)


def _count_score_cells(counts, args, result):
    q, k, _, n_heads = args[:4]
    counts["tensor.multi_head_attention.score_cells"] += int(n_heads) * _shape(q)[0] * _shape(k)[0]


def _count_dp_cells(counts, args, result):
    log_probs, targets = args[:2]
    counts["ctc.ctc_loss.dp_cells"] += _shape(log_probs)[0] * (2 * len(targets) + 1)


def _count_kmeans_iters(counts, args, result):
    counts["probe.kmeans.iters"] += result.n_iter


def _forward_name(args):
    return "model.forward_grad" if sshr.tensor._GRAD_ENABLED else "model.forward_nograd"


# (owner, attribute, span name, counter): the public functions each layer
# exposes, patched where the program looks them up.
TARGETS = (
    (sshr.datagen, "generate_corpus", "datagen.generate_corpus", None),
    (sshr.datagen, "load_split", "datagen.load_split", None),
    (sshr.trainer, "load_split", "datagen.load_split", None),
    (sshr.tensor, "backward", "tensor.backward", None),
    (sshr.tensor, "linearize", "tensor.linearize", _count_graph_nodes),
    (sshr.tensor, "linear", "tensor.linear", None),
    (sshr.tensor, "layer_norm", "tensor.layer_norm", None),
    (sshr.tensor, "multi_head_attention", "tensor.multi_head_attention", _count_score_cells),
    (sshr.tensor, "gelu", "tensor.gelu", None),
    (sshr.tensor, "log_softmax_rows", "tensor.log_softmax_rows", None),
    (sshr.tensor, "add", "tensor.add", None),
    (sshr.model, "self_attention_layer", "encoder.self_attention_layer", None),
    (sshr.model, "cross_attention_layer", "encoder.cross_attention_layer", None),
    (sshr.model, "ctc_loss", "ctc.ctc_loss", _count_dp_cells),
    (sshr.model, "ctc_head", "ctc.ctc_head", None),
    (sshr.ctc, "ctc_greedy_decode", "ctc.ctc_greedy_decode", None),
    (SshrModel, "forward", _forward_name, None),
    (SshrModel, "utterance_loss", "model.utterance_loss", None),
    (SshrModel, "save", "model.save", None),
    (SshrModel, "load", "model.load", None),
    (sshr.trainer, "train", "trainer.train", None),
    (sshr.trainer, "adam_step", "trainer.adam_step", None),
    (sshr.trainer, "evaluate_model", "trainer.evaluate", None),
    (sshr.evalkit, "evaluate_model", "evalkit.evaluate_model", None),
    (sshr.evalkit, "edit_distance", "evalkit.edit_distance", None),
    (sshr.probe, "probe_all_layers", "probe.probe_all_layers", None),
    (sshr.probe, "collect_layer_data", "probe.collect_layer_data", None),
    (sshr.probe, "lid_probe", "probe.lid_probe", None),
    (sshr.probe, "kmeans", "probe.kmeans", _count_kmeans_iters),
    (sshr.probe, "mutual_information", "probe.mutual_information", None),
)


@contextmanager
def patched(owner, attr, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)``; always restore.

    Class attributes are read from ``__dict__`` so a classmethod keeps its
    descriptor and is restored as it was.
    """
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        replacement = classmethod(make_wrapper(raw.__func__))
    else:
        replacement = make_wrapper(raw)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, raw)


class Tracer:
    """Spans and counts of one traced region; ``run`` tags every span.

    Wrappers record nothing while ``run`` is None, so one install can be
    paused around work that should not be attributed.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run: str | None = None
        self._open: list[int] = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.run is None:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            index = len(tracer.spans)
            span = [label, 0.0, 0.0, tracer._open[-1] if tracer._open else -1, tracer.run]
            tracer.spans.append(span)
            tracer._open.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._open.pop()
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return wrapper

    def _count_infeasible(self, fn):
        tracer = self

        def checked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except CtcInfeasibleError:
                if tracer.run is not None:
                    tracer.counts["ctc.ctc_loss.infeasible"] += 1
                raise

        return checked

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        with ExitStack() as stack:
            for owner, attr, name, counter in TARGETS:
                stack.enter_context(patched(owner, attr, self._wrapper_factory(attr, name, counter)))
            yield self

    def _wrapper_factory(self, attr, name, counter):
        def make(original):
            if attr == "ctc_loss":
                original = self._count_infeasible(original)
            return self.wrap(name, original, counter)

        return make

    @contextmanager
    def recording(self, run: str):
        """Attribute spans to ``run`` inside the block."""
        previous, self.run = self.run, run
        try:
            yield
        finally:
            self.run = previous

    def summary(self) -> dict:
        """Per span name: calls, inclusive ms and self ms."""
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ms[span[PARENT]] += span[END] - span[START]
        table: dict[str, dict] = {}
        for span, children in zip(self.spans, child_ms):
            row = table.setdefault(span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            duration = span[END] - span[START]
            row["calls"] += 1
            row["ms"] += 1e3 * duration
            row["self_ms"] += 1e3 * (duration - children)
        return table

    def step_other_ms(self) -> float:
        """Optimizer-step time not spent in the loss, backward, Adam, dev
        eval or checkpointing: intervals between consecutive ``adam_step``
        returns within one ``train`` call, minus those spans inside them."""
        named = {"model.utterance_loss", "tensor.backward", "trainer.adam_step", "trainer.evaluate", "model.save"}
        by_call: dict[int, list[list]] = defaultdict(list)
        for span in self.spans:
            parent = span[PARENT]
            if span[NAME] in named and parent >= 0 and self.spans[parent][NAME] == "trainer.train":
                by_call[parent].append(span)
        total = 0.0
        for spans in by_call.values():
            ends = [s[END] for s in spans if s[NAME] == "trainer.adam_step"]
            for lo, hi in zip(ends, ends[1:]):
                inside = sum(s[END] - s[START] for s in spans if s[START] >= lo and s[END] <= hi)
                total += hi - lo - inside
        return 1e3 * total

    def write(self, path):
        """Spans as gzipped JSON lines, one ``[name, start, end, parent, run]``
        each, with times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, run]))
                fh.write("\n")
