"""The tracer's wrapping and the metrics it derives from spans."""

import json
from pathlib import Path

import pytest

from kdbench import tracing

ROOT = Path(__file__).resolve().parents[2]


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, extra]


def test_nested_spans_of_one_metric_count_once():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("SecondOrderParser.prepare", 1.0, 5.0, 0),
        _span("FirstOrderParser.prepare", 2.0, 4.0, 1),
        _span("MaxEntTagger.prepare", 6.0, 7.0, 0),
    ]
    table = tracing.SpanTable(spans)
    assert table.time(tracing.PREPARE) == pytest.approx(5.0)
    m = table.metrics([])
    assert m["scorer.prepare_calls"] == 2
    assert m["scorer.prepare_s"] == pytest.approx(5.0)
    times = table.self_times()
    assert times["op"]["self_s"] == pytest.approx(5.0)
    assert times["SecondOrderParser.prepare"]["self_s"] == pytest.approx(2.0)


def test_teacher_prepare_per_sentence_counts_teacher_calls_inside_grids():
    teacher, student = 11, 22
    spans = [
        _span("train_eval.distill_grid_search", 0.0, 10.0, -1, teacher),
        _span("MaxEntTagger.prepare", 0.5, 0.6, 0, (student, "a")),
        _span("distill.teacher_marginal_table", 1.0, 2.0, 0),
        _span("ChainCrfTagger.prepare", 1.1, 1.2, 2, (teacher, "a")),
        _span("distill.teacher_marginal_table", 2.0, 3.0, 0),
        _span("ChainCrfTagger.prepare", 2.1, 2.2, 4, (teacher, "b")),
        _span("distill.teacher_marginal_table", 3.0, 4.0, 0),
        _span("ChainCrfTagger.prepare", 3.1, 3.2, 6, (teacher, "a")),
        _span("ChainCrfTagger.prepare", 11.0, 12.0, -1, (teacher, "c")),  # outside the grid
    ]
    assert tracing.SpanTable(spans).teacher_prepare_per_sentence() == pytest.approx(1.5)
    assert tracing.SpanTable(spans[1:]).teacher_prepare_per_sentence() == 0.0


def test_install_wraps_every_binding_and_uninstall_restores_them():
    from factorkd import distill, scorer, train_eval, span_ner

    originals = (
        distill.teacher_marginal_table, train_eval.teacher_marginal_table,
        distill.bioes_marginals, span_ner.bioes_marginals, scorer.SlotBlock.__dict__["scores"],
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert train_eval.teacher_marginal_table is not originals[1]
        assert distill.bioes_marginals is not originals[2]
        assert scorer.SlotBlock.__dict__["scores"] is not originals[4]
        hasher = scorer.FeatureHasher(8)
        with tracer.span("outer"):
            from factorkd import models

            model = models.new_model("ner-maxent", _tags(), bits=8)
            model.logits(model.prepare(["a", "b"]))
    finally:
        tracer.uninstall()
    assert (
        distill.teacher_marginal_table, train_eval.teacher_marginal_table,
        distill.bioes_marginals, span_ner.bioes_marginals, scorer.SlotBlock.__dict__["scores"],
    ) == originals
    spans, hashers = tracer.take()
    names = [s[0] for s in spans]
    assert names[:2] == ["outer", "MaxEntTagger.prepare"]
    assert "SlotBlock.scores" in names
    assert all(s[3] == 0 for s in spans[1:] if s[0] == "MaxEntTagger.prepare")
    assert hasher in hashers and len(hashers) == 2


def _tags():
    from factorkd.corpus import LabelAlphabet

    return LabelAlphabet("t", ["O", "B-X", "I-X", "E-X", "S-X"]).freeze()


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from kdbench import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    want = {name: (unit, better) for name, (unit, better, _, _) in tracing.LAYER_METRICS.items()}
    want[tracing.OVERHEAD_METRIC] = ("%", "lower")
    assert layers == want
    assert [w["name"] for w in spec["workloads"]] == ["chain-grid", "span-bioes", "dep-cli"]
