"""Span tracing for the benchmark's traced run (`--trace 1`).

`Tracer.install` replaces the program's public functions and methods by
timing wrappers at every name a caller looks them up by: a function is
patched in each factorkd module that binds it (so `distill.bioes_marginals`
is patched as well as `span_ner.bioes_marginals`), a method on the class
that defines it.  Nothing is wrapped unless the run is traced, and
`uninstall` puts the originals back.

A span is [name, start, end, parent index, extra]; spans stay in memory
and `SpanTable` derives the per-layer metrics and self times from them.
A layer metric counts only outermost spans of its set of names, so a call
nested in another call of the same set (SecondOrderParser.prepare calling
FirstOrderParser.prepare) is neither timed nor counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import sys
import time

import numpy as np

# (span name, module or module.Class under factorkd, attribute)
TARGETS = [
    ("chain_crf.pairwise_marginals", "chain_crf", "pairwise_marginals"),
    ("chain_crf.unary_marginals", "chain_crf", "unary_marginals"),
    ("chain_crf.log_partition", "chain_crf", "log_partition"),
    ("chain_crf.viterbi", "chain_crf", "viterbi"),
    ("ChainCrfTagger.lattice", "chain_crf.ChainCrfTagger", "lattice"),
    ("ChainCrfTagger.prepare", "chain_crf.ChainCrfTagger", "prepare"),
    ("ChainCrfTagger.sgd_step", "chain_crf.ChainCrfTagger", "sgd_step"),
    ("ChainGrads.fill", "chain_crf.ChainGrads", "fill"),
    ("SlotBlock.scores", "scorer.SlotBlock", "scores"),
    ("SlotBlock.scatter", "scorer.SlotBlock", "scatter"),
    ("SparseParams.fill", "scorer.SparseParams", "fill"),
    ("MaxEntTagger.prepare", "token_maxent.MaxEntTagger", "prepare"),
    ("MaxEntTagger.logits", "token_maxent.MaxEntTagger", "logits"),
    ("MaxEntTagger.sgd_step", "token_maxent.MaxEntTagger", "sgd_step"),
    ("span_ner.span_log_partition", "span_ner", "span_log_partition"),
    ("span_ner.prefix_log_partitions", "span_ner", "prefix_log_partitions"),
    ("span_ner.suffix_log_partitions", "span_ner", "suffix_log_partitions"),
    ("span_ner.span_marginals", "span_ner", "span_marginals"),
    ("span_ner.bioes_marginals", "span_ner", "bioes_marginals"),
    ("span_ner.decode_spans", "span_ner", "decode_spans"),
    ("SpanNerModel.prepare", "span_ner.SpanNerModel", "prepare"),
    ("SpanNerModel.score_table", "span_ner.SpanNerModel", "score_table"),
    ("SpanNerModel.sgd_step", "span_ner.SpanNerModel", "sgd_step"),
    ("head_parser.mfvi_trace", "head_parser", "mfvi_trace"),
    ("head_parser.mfvi_second_order", "head_parser", "mfvi_second_order"),
    ("head_parser.mfvi_backward", "head_parser", "mfvi_backward"),
    ("FirstOrderParser.prepare", "head_parser.FirstOrderParser", "prepare"),
    ("FirstOrderParser.arc_logits", "head_parser.FirstOrderParser", "arc_logits"),
    ("FirstOrderParser.sgd_step", "head_parser.FirstOrderParser", "sgd_step"),
    ("SecondOrderParser.prepare", "head_parser.SecondOrderParser", "prepare"),
    ("SecondOrderParser.sib_tensor", "head_parser.SecondOrderParser", "sib_tensor"),
    ("SecondOrderParser.sgd_step", "head_parser.SecondOrderParser", "sgd_step"),
    ("ParserGrads.fill", "head_parser.ParserGrads", "fill"),
    ("distill.teacher_marginal_table", "distill", "teacher_marginal_table"),
    ("distill.apply_temperature", "distill", "apply_temperature"),
    ("distill.temper_rows", "distill", "temper_rows"),
    ("distill.kd_loss_local", "distill", "kd_loss_local"),
    ("distill.kd_loss_global", "distill", "kd_loss_global"),
    ("train_eval.train", "train_eval", "train"),
    ("train_eval.sentence_step", "train_eval", "sentence_step"),
    ("train_eval.evaluate", "train_eval", "evaluate"),
    ("train_eval.distill_grid_search", "train_eval", "distill_grid_search"),
    ("models.save_model", "models", "save_model"),
    ("models.load_model", "models", "load_model"),
    ("corpus.synth_generate", "corpus", "synth_generate"),
    ("corpus.read_conll_ner", "corpus", "read_conll_ner"),
    ("corpus.read_conllu", "corpus", "read_conllu"),
    ("corpus.read_tokens", "corpus", "read_tokens"),
    ("corpus.write_conll_ner", "corpus", "write_conll_ner"),
    ("corpus.write_conllu", "corpus", "write_conllu"),
]

PREPARE = tuple(name for name, _, attr in TARGETS if attr == "prepare")
SGD = tuple(name for name, _, attr in TARGETS if attr == "sgd_step")
FILL = ("SparseParams.fill", "ChainGrads.fill", "ParserGrads.fill")
STEP = ("train_eval.sentence_step", "train_eval.sentence_step[kd]")
CLI_COMMANDS = ("train-teacher", "distill", "eval", "pseudo-label")

# metric -> (unit, better, how, span names); "time" sums outermost spans,
# "count" counts them, "bytes" sums the file sizes they record.
LAYER_METRICS = {
    "chain_crf.marginals_s": ("s", "lower", "time", ("chain_crf.pairwise_marginals", "chain_crf.unary_marginals")),
    "chain_crf.log_partition_s": ("s", "lower", "time", ("chain_crf.log_partition",)),
    "chain_crf.lattice_s": ("s", "lower", "time", ("ChainCrfTagger.lattice",)),
    "chain_crf.viterbi_s": ("s", "lower", "time", ("chain_crf.viterbi",)),
    "chain_crf.lattices": ("count", "lower", "count", ("ChainCrfTagger.lattice",)),
    "scorer.prepare_s": ("s", "lower", "time", PREPARE),
    "scorer.prepare_calls": ("count", "lower", "count", PREPARE),
    "scorer.scores_s": ("s", "lower", "time", ("SlotBlock.scores",)),
    "scorer.scatter_s": ("s", "lower", "time", ("SlotBlock.scatter",)),
    "scorer.sgd_s": ("s", "lower", "time", SGD + FILL),
    "scorer.sgd_calls": ("count", "lower", "count", SGD),
    "scorer.hasher_cache_entries": ("count", "lower", "hashers", ()),
    "token_maxent.logits_s": ("s", "lower", "time", ("MaxEntTagger.logits",)),
    "span_ner.score_table_s": ("s", "lower", "time", ("SpanNerModel.score_table",)),
    "span_ner.bioes_marginals_s": ("s", "lower", "time", ("span_ner.bioes_marginals",)),
    "span_ner.span_marginals_s": ("s", "lower", "time", ("span_ner.span_marginals",)),
    "span_ner.log_partition_s": (
        "s", "lower", "time",
        ("span_ner.span_log_partition", "span_ner.prefix_log_partitions", "span_ner.suffix_log_partitions"),
    ),
    "span_ner.decode_s": ("s", "lower", "time", ("span_ner.decode_spans",)),
    "head_parser.arc_logits_s": ("s", "lower", "time", ("FirstOrderParser.arc_logits",)),
    "head_parser.sib_tensor_s": ("s", "lower", "time", ("SecondOrderParser.sib_tensor",)),
    "head_parser.mfvi_s": ("s", "lower", "time", ("head_parser.mfvi_trace", "head_parser.mfvi_second_order")),
    "head_parser.mfvi_backward_s": ("s", "lower", "time", ("head_parser.mfvi_backward",)),
    "distill.teacher_table_s": ("s", "lower", "time", ("distill.teacher_marginal_table",)),
    "distill.teacher_tables": ("count", "lower", "count", ("distill.teacher_marginal_table",)),
    "distill.temper_s": ("s", "lower", "time", ("distill.apply_temperature", "distill.temper_rows")),
    "distill.kd_loss_s": (
        "s", "lower", "time",
        ("train_eval.sentence_step[kd]", "distill.kd_loss_local", "distill.kd_loss_global"),
    ),
    "distill.teacher_prepare_per_sentence": ("calls/sent", "lower", "grid", ()),
    "train_eval.train_s": ("s", "lower", "time", ("train_eval.train",)),
    "train_eval.step_s": ("s", "lower", "time", STEP),
    "train_eval.evaluate_s": ("s", "lower", "time", ("train_eval.evaluate",)),
    "train_eval.sentence_steps": ("count", "lower", "count", STEP),
    "models.save_s": ("s", "lower", "time", ("models.save_model",)),
    "models.load_s": ("s", "lower", "time", ("models.load_model",)),
    "models.file_bytes": ("bytes", "lower", "bytes", ("models.save_model",)),
    "corpus.synth_s": ("s", "lower", "time", ("corpus.synth_generate",)),
    "corpus.read_s": (
        "s", "lower", "time", ("corpus.read_conll_ner", "corpus.read_conllu", "corpus.read_tokens"),
    ),
    "corpus.write_s": ("s", "lower", "time", ("corpus.write_conll_ner", "corpus.write_conllu")),
}
for _command in CLI_COMMANDS:
    LAYER_METRICS[f"cli.{_command}_s"] = ("s", "lower", "time", (f"cli.{_command}",))
OVERHEAD_METRIC = "trace.overhead_pct"


def _prepare_extra(args, kwargs, result):
    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    return id(args[0]), hash(tuple(tokens))


def _grid_extra(args, kwargs, result):
    return id(args[1] if len(args) > 1 else kwargs["teacher"])


def _save_extra(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _step_name(args, kwargs):
    lam = args[4] if len(args) > 4 else kwargs["lam"]
    return "train_eval.sentence_step[kd]" if lam > 0.0 else "train_eval.sentence_step"


EXTRAS = {name: _prepare_extra for name in PREPARE}
EXTRAS["train_eval.distill_grid_search"] = _grid_extra
EXTRAS["models.save_model"] = _save_extra
NAMERS = {"train_eval.sentence_step": _step_name}


class Tracer:
    def __init__(self):
        self.spans = []
        self.hashers = []
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        namer = NAMERS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [namer(args, kwargs) if namer else name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans = self.spans
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span recorded by the benchmark itself around a call it makes."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def take(self):
        """Hand over the spans and hashers recorded so far and start afresh."""
        spans, hashers = self.spans, self.hashers
        self.spans, self.hashers = [], []
        return spans, hashers

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items()) if key == "factorkd" or key.startswith("factorkd.")]
        for name, where, attr in TARGETS:
            module_name, _, class_name = where.partition(".")
            module = sys.modules.get(f"factorkd.{module_name}")
            if module is None:
                continue
            if class_name:
                cls = getattr(module, class_name, None)
                if cls is not None and attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            traced = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, traced)
        scorer = sys.modules["factorkd.scorer"]
        init = scorer.FeatureHasher.__init__

        @functools.wraps(init)
        def registering_init(hasher, *args, **kwargs):
            init(hasher, *args, **kwargs)
            self.hashers.append(hasher)

        self._patch(scorer.FeatureHasher, "__init__", registering_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class SpanTable:
    """Per-layer metrics and self times of one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.names = [s[0] for s in spans]
        self.start = np.array([s[1] for s in spans], dtype=np.float64)
        self.end = np.array([s[2] for s in spans], dtype=np.float64)
        self.parent = np.array([s[3] for s in spans], dtype=np.int64)
        depth = np.zeros(n, dtype=np.int64)
        for i, p in enumerate(self.parent):  # a parent always precedes its children
            if p >= 0:
                depth[i] = depth[p] + 1
        self.levels = [np.flatnonzero(depth == d) for d in range(1, int(depth.max(initial=0)) + 1)]

    def _propagate(self, values, fill):
        """values[i] for spans in the set, else the value of the parent."""
        out = values.copy()
        for idx in self.levels:
            take = out[idx] == fill
            out[idx[take]] = out[self.parent[idx[take]]]
        return out

    def outermost(self, names) -> np.ndarray:
        names = set(names)
        member = np.array([s in names for s in self.names], dtype=bool)
        if not member.any():
            return np.zeros(0, dtype=np.int64)
        inside = self._propagate(np.where(member, 1, 0), 0)
        has_parent = self.parent >= 0
        parent_inside = np.zeros(len(member), dtype=bool)
        parent_inside[has_parent] = inside[self.parent[has_parent]] == 1
        return np.flatnonzero(member & ~parent_inside)

    def time(self, names) -> float:
        idx = self.outermost(names)
        return float(np.sum(self.end[idx] - self.start[idx]))

    def teacher_prepare_per_sentence(self) -> float:
        """Teacher `prepare` calls inside grid searches, per distinct sentence."""
        grids = self.outermost(("train_eval.distill_grid_search",))
        if grids.size == 0:
            return 0.0
        anchor = np.full(len(self.names), -1, dtype=np.int64)
        anchor[grids] = grids
        anchor = self._propagate(anchor, -1)
        calls, distinct = 0, set()
        for i in self.outermost(PREPARE):
            g = anchor[i]
            if g >= 0 and self.spans[i][4][0] == self.spans[g][4]:
                calls += 1
                distinct.add(self.spans[i][4][1])
        return calls / len(distinct) if distinct else 0.0

    def metrics(self, hashers) -> dict:
        out = {}
        for metric, (_, _, how, names) in LAYER_METRICS.items():
            if how == "time":
                out[metric] = self.time(names)
            elif how == "count":
                out[metric] = int(self.outermost(names).size)
            elif how == "bytes":
                out[metric] = int(sum(self.spans[i][4] for i in self.outermost(names)))
            elif how == "hashers":
                out[metric] = int(sum(len(getattr(h, "_cache", ())) for h in hashers))
            else:
                out[metric] = self.teacher_prepare_per_sentence()
        return out

    def self_times(self) -> dict:
        """name -> {calls, total_s, self_s}; self time is a span's duration
        minus the durations of its direct children."""
        dur = self.end - self.start
        child = np.zeros(len(dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        table = {}
        for name, d, own in zip(self.names, dur, dur - child):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(d)
            row["self_s"] += float(own)
        return table


def write_trace(path, meta: dict, table: SpanTable):
    """Spans (times relative to the first span) and self times as gzip'd JSON."""
    t0 = float(table.start.min(initial=0.0))
    doc = dict(meta)
    doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
    doc["spans"] = [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]] for s in table.spans]
    doc["self_times"] = table.self_times()
    with gzip.open(path, "wt", encoding="utf-8") as f:
        json.dump(doc, f)
