import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factorkd import chain_crf, corpus, models, token_maxent, train_eval
from factorkd.corpus import (
    BioesCodec,
    HeadAssignment,
    LabelAlphabet,
    SentenceRecord,
    SpanSet,
    TagSequence,
)
from factorkd.distill import TemperatureConfig, teacher_marginal_table
from factorkd.numerics import rows_objective
from factorkd.train_eval import (
    DistillConfig,
    DivergedError,
    TrainConfig,
    distill_grid_search,
    entity_f1,
    evaluate,
    pseudo_label_records,
    train,
    uas_las,
)
from factorkd.verify import _rand_gold, rand_model, rand_tokens


def _codec():
    return BioesCodec(LabelAlphabet("entity-types", ["PER", "LOC"]).freeze())


# ---------------------------------------------------------------------------
# Metrics


def test_f1_perfect_match():
    s = SpanSet(frozenset({(1, 2, 0)}))
    assert entity_f1(s, s) == (1.0, 1.0, 1.0)


def test_f1_empty_prediction_convention():
    pred = SpanSet(frozenset())
    gold = SpanSet(frozenset({(1, 1, 0)}))
    assert entity_f1(pred, gold) == (0.0, 0.0, 0.0)


def test_f1_half_and_half():
    pred = SpanSet(frozenset({(1, 2, 0), (4, 4, 1)}))
    gold = SpanSet(frozenset({(1, 2, 0), (3, 3, 0)}))
    p, r, f1 = entity_f1(pred, gold)
    assert (p, r, f1) == (0.5, 0.5, 0.5)


def test_f1_harmonic_mean_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spans_a = frozenset({(1, 1, int(rng.integers(2)))})
        spans_b = frozenset({(1, 1, int(rng.integers(2))), (3, 4, 0)})
        p, r, f1 = entity_f1(SpanSet(spans_a), SpanSet(spans_b))
        if p > 0 and r > 0:
            assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)


def test_f1_accepts_tag_sequences():
    codec = _codec()
    gold = SpanSet(frozenset({(1, 2, 0)}))
    tags = codec.spans_to_bioes(gold, 3)
    assert entity_f1(tags, tags, codec) == (1.0, 1.0, 1.0)


def test_uas_las_perfect():
    h = HeadAssignment((0, 1), (0, 1))
    assert uas_las(h, h) == (1.0, 1.0)


def test_uas_las_wrong_relations():
    pred = HeadAssignment((0, 1), (1, 0))
    gold = HeadAssignment((0, 1), (0, 1))
    assert uas_las(pred, gold) == (1.0, 0.0)


def test_uas_las_half():
    pred = HeadAssignment((2, 1), (0, 0))
    gold = HeadAssignment((0, 1), (0, 0))
    assert uas_las(pred, gold) == (0.5, 0.5)


def test_las_never_exceeds_uas():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        def draw():
            heads = tuple(int(rng.choice([j for j in range(n + 1) if j != i])) for i in range(1, n + 1))
            rels = tuple(int(r) for r in rng.integers(3, size=n))
            return HeadAssignment(heads, rels)
        u, l = uas_las(draw(), draw())
        assert l <= u + 1e-12


def test_uas_las_length_mismatch():
    with pytest.raises(ValueError):
        uas_las(HeadAssignment((0,), (0,)), HeadAssignment((0, 1), (0, 0)))


# ---------------------------------------------------------------------------
# Mixed objective consistency: the trainer's fused step must equal
# lam * KD + (1 - lam) * NLL computed through the standalone operations.


def test_maxent_step_equals_mixed_losses():
    rng = np.random.default_rng(2)
    teacher = rand_model("ner-crf", rng)
    student = rand_model("ner-maxent", rng)
    tokens = rand_tokens(rng, 5)
    table = teacher_marginal_table("2a", teacher, tokens, TemperatureConfig(2.0, "local"))
    prep = student.prepare(tokens)
    gold = TagSequence(tuple(int(t) for t in rng.integers(3, size=5)))
    lam = 0.6
    fused = student.objective(prep, gold, table, lam, student.new_grads(), 1.0)
    nll = student.objective(prep, gold, None, 0.0, student.new_grads())
    kd, _ = rows_objective([(student.logits(prep), None, table.rows)], 1.0)
    assert fused == pytest.approx(lam * kd + (1 - lam) * nll, abs=1e-12)


def test_crf_step_equals_mixed_losses():
    rng = np.random.default_rng(3)
    teacher = rand_model("ner-crf", rng)
    student = rand_model("ner-crf", rng)
    tokens = rand_tokens(rng, 4)
    table = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(1.0, "local"))
    prep = student.prepare(tokens)
    gold = TagSequence(tuple(int(t) for t in rng.integers(3, size=4)))
    lam = 0.3
    fused = student.objective(prep, gold, table, lam, student.new_grads(), 1.0)
    lat = student.lattice(prep)
    nll, _ = chain_crf.lattice_objective(lat, gold, None, 0.0)
    kd, _ = chain_crf.lattice_objective(lat, None, table, 1.0)
    assert fused == pytest.approx(lam * kd + (1 - lam) * nll, abs=1e-12)


def test_parser_step_equals_mixed_losses():
    rng = np.random.default_rng(4)
    teacher = rand_model("dep-1st", rng)
    student = rand_model("dep-1st", rng)
    tokens = rand_tokens(rng, 4)
    table = teacher_marginal_table("1b", teacher, tokens, TemperatureConfig(3.0, "local"))
    prep = student.prepare(tokens)
    gold = HeadAssignment((2, 0, 4, 0), (1, 0, 2, 1))
    lam = 0.8
    fused = student.objective(prep, gold, table, lam, student.new_grads(), 1.0)
    nll = student.objective(prep, gold, None, 0.0, student.new_grads())
    kd, _ = rows_objective(
        [
            (student.arc_logits(prep), None, table.head_rows),
            (student.rel_logits(prep), None, table.rel_rows),
        ],
        1.0,
    )
    assert fused == pytest.approx(lam * kd + (1 - lam) * nll, abs=1e-12)


# ---------------------------------------------------------------------------
# Trainer behavior


def _tiny_chain(n_train=12, n_dev=6, seeds=(31, 32)):
    tr, tags = corpus.synth_generate("chain", n_train, max_len=6, min_len=3, seed=seeds[0])
    dv, _ = corpus.synth_generate("chain", n_dev, max_len=6, min_len=3, seed=seeds[1])
    return tr, dv, tags


def test_zero_epochs_returns_initial_model():
    tr, dv, tags = _tiny_chain()
    model = models.new_model("ner-maxent", tags, bits=10)
    model, manifest = train(model, tr, dv, TrainConfig(epochs=0, seed=1))
    assert not model.params["weights"].any()
    assert manifest.history == [] and manifest.best_epoch == 0


def test_empty_dev_keeps_last_epoch():
    tr, _, tags = _tiny_chain()
    model = models.new_model("ner-maxent", tags, bits=12)
    model, manifest = train(model, tr, [], TrainConfig(epochs=3, seed=1))
    assert model.params["weights"].any()
    assert manifest.best_epoch == 3 and len(manifest.history) == 3


@pytest.mark.parametrize(
    "gold, part",
    [
        (("I-PER", "E-PER"), "start I-PER"),
        (("B-PER", "O"), "transition B-PER -> O"),
        (("O", "B-LOC"), "stop B-LOC"),
    ],
)
def test_constrained_crf_rejects_forbidden_gold(gold, part):
    tr, dv, tags = _tiny_chain()
    bad = corpus.SentenceRecord(["a", "b"], TagSequence(tuple(tags.index(t) for t in gold)))
    model = models.new_model("ner-crf", tags, bits=10, constrain_bioes=True)
    with pytest.raises(ValueError, match=f"record 1: gold has a {part} "):
        train(model, [tr[0], bad] + tr[1:], dv, TrainConfig(epochs=1))
    # the unconstrained tagger accepts the same data
    train(models.new_model("ner-crf", tags, bits=10), [tr[0], bad], dv, TrainConfig(epochs=1))


# sha256 of the model files and manifests below, as written before the chain
# forward-backward was batched; batching must not move a single bit.  The
# distilled students' manifests in these pins are hashed without the
# config.distill.student_temp key, which no longer exists
CRF_DIGESTS = {
    "teacher": "b01e4e3e67a7950a7982a85cacbf6df9db4b93fdc18d7980e89ed642b61b673c",
    "teacher_manifest": "0b447f1ad48bbd05394e1905a2f4ae35ee9e6c7773f4968a6f41f32120dc1d0f",
    "student": "3a72e0c34fda8aa5b80fbe4c663b12ff1683dbc60ee0a4dacdedd22ce638412b",
    "student_manifest": "493fbcac24ebfe219edbc4858753699e262aa9075a63274bb3a544574374497a",
}


def _digests(tmp_path, model, manifest, name):
    models.save_model(model, tmp_path / name)
    text = json.dumps(manifest.to_json_dict(), sort_keys=True, indent=2)
    return {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(),
        f"{name}_manifest": hashlib.sha256(text.encode()).hexdigest(),
    }


def test_crf_teacher_and_1a_student_artifacts_are_pinned(tmp_path):
    recs, tags = corpus.synth_generate("chain", 160, max_len=7, min_len=1, seed=7)
    tr, dv = recs[:120], recs[120:]
    teacher = models.new_model("ner-crf", tags, bits=12, constrain_bioes=True)
    teacher, manifest = train(teacher, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=3))
    got = _digests(tmp_path, teacher, manifest, "teacher")
    student = models.new_model("ner-crf", tags, bits=12)
    student, manifest = train(
        student, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=4),
        distill_cfg=DistillConfig("1a", temperature=2.0, temp_mode="global"), teacher=teacher,
    )
    got.update(_digests(tmp_path, student, manifest, "student"))
    assert got == CRF_DIGESTS


# sha256 of a MaxEnt teacher and its case-3 CRF student (pair tables built
# from the teacher's token rows, tempered locally at T = 2), as written when
# the CRF's gold NLL and chain KD loss were separate functions
CASE3_DIGESTS = {
    "teacher": "2d21c154b43fc17c5c765ad5695c1187455eb12d83d068cda966110b31c9f733",
    "teacher_manifest": "f0e20e30fe10df8bbe80045726fcc219016eb08c66736cdf5fd4e7056daec58e",
    "student": "aa0b4f896b4683d6550a18df1e718dfc913cb33c7b936f8530af5b925f1d6912",
    "student_manifest": "52090f7a75ee546710650302b208655caf973c3d2080f92108551c2592d8a667",
}


def test_maxent_teacher_and_case3_crf_student_are_pinned(tmp_path):
    recs, tags = corpus.synth_generate("chain", 160, max_len=7, min_len=1, seed=7)
    tr, dv = recs[:120], recs[120:]
    teacher = models.new_model("ner-maxent", tags, bits=12)
    teacher, manifest = train(teacher, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=3))
    got = _digests(tmp_path, teacher, manifest, "teacher")
    student = models.new_model("ner-crf", tags, bits=12)
    student, manifest = train(
        student, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=4),
        distill_cfg=DistillConfig("3", temperature=2.0), teacher=teacher,
    )
    got.update(_digests(tmp_path, student, manifest, "student"))
    assert got == CASE3_DIGESTS


def test_per_sentence_preps_train_to_the_pinned_artifacts(tmp_path):
    """Preps made sentence by sentence with `prepare` and passed as
    `prepared=`/`dev_prepared=` give the same bytes as the model's own
    prepared corpus, for a MaxEnt and a CRF model."""
    recs, tags = corpus.synth_generate("chain", 160, max_len=7, min_len=1, seed=7)
    tr, dv = recs[:120], recs[120:]

    def preps(model):
        return {
            "prepared": [model.prepare(r.tokens) for r in tr],
            "dev_prepared": [model.prepare(r.tokens) for r in dv],
        }

    teacher = models.new_model("ner-maxent", tags, bits=12)
    teacher, manifest = train(
        teacher, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=3), **preps(teacher)
    )
    got = _digests(tmp_path, teacher, manifest, "teacher")
    student = models.new_model("ner-crf", tags, bits=12)
    student, manifest = train(
        student, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=4),
        distill_cfg=DistillConfig("3", temperature=2.0), teacher=teacher, **preps(student),
    )
    got.update(_digests(tmp_path, student, manifest, "student"))
    assert got == CASE3_DIGESTS


# sha256 of a span-NER teacher's model file and manifest, as written when
# its DPs ran one sentence at a time over Python lists
SPAN_TEACHER_DIGESTS = {
    "teacher": "a1c81b6671f079786506060a001c7e182c497bb4e25a64680155c3b283283f3e",
    "teacher_manifest": "524d66d30a0dbda0615d137d2fef36dce410c118596e3cf195aab1237738bf7b",
}


def test_span_teacher_is_pinned(tmp_path):
    spans, types = corpus.synth_generate("spans", 100, max_len=8, min_len=1, seed=8)
    teacher = models.new_model("ner-span", types, bits=12)
    teacher, manifest = train(
        teacher, spans[:80], spans[80:], TrainConfig(epochs=2, lr=0.3, batch_size=16, seed=1)
    )
    assert _digests(tmp_path, teacher, manifest, "teacher") == SPAN_TEACHER_DIGESTS


# sha256 of MaxEnt model files and manifests as written when every MaxEnt
# sentence was its own step and every dev sentence its own decode; the
# stacked corpus and the batched step must not move a single bit
MAXENT_DIGESTS = {
    "baseline": "96b49a1b98875e057d5417196fd4eb5890c22e36559744a31327e68df1e04285",
    "baseline_manifest": "c242ad1802f1e4ad71dfb15c2b50660d6c1cfcf2499bcb7b2335708f0e388b19",
    "student_2a": "c1accb9dab59414b3b383d05242817010b24cf718a595bcabc39193eddda5a42",
    "student_2a_manifest": "b629c72d68361413ca9e66510fab8c15d82884a571ee7127f2b9bc033e128be4",
    "student_4": "2cc706d8e7f2889a11a8a14af51a839746cd4d77c99f22553b10d1ba380d9195",
    "student_4_manifest": "76eef3d24fbb318cf030a4d5b077cfb6bb21c1a24f0c023a22ede9e3c495cfad",
}


def test_maxent_baseline_and_2a_and_case4_students_are_pinned(tmp_path):
    recs, tags = corpus.synth_generate("chain", 160, max_len=8, min_len=1, seed=7)
    tr, dv = recs[:120], recs[120:]
    base = models.new_model("ner-maxent", tags, bits=12)
    base, manifest = train(base, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=3))
    got = _digests(tmp_path, base, manifest, "baseline")
    teacher = models.new_model("ner-crf", tags, bits=12, constrain_bioes=True)
    teacher, _ = train(teacher, tr, dv, TrainConfig(epochs=2, lr=0.2, batch_size=16, seed=3))
    student, manifest = train(
        models.new_model("ner-maxent", tags, bits=12), tr, dv,
        TrainConfig(epochs=3, lr=0.2, batch_size=32, seed=4),
        distill_cfg=DistillConfig("2a", temperature=2.0), teacher=teacher,
    )
    got.update(_digests(tmp_path, student, manifest, "student_2a"))

    spans, types = corpus.synth_generate("spans", 100, max_len=8, min_len=1, seed=8)
    codec = BioesCodec(types.freeze())
    span_teacher = models.new_model("ner-span", types, bits=12)
    span_teacher, _ = train(
        span_teacher, spans[:80], spans[80:], TrainConfig(epochs=2, lr=0.3, batch_size=16, seed=1)
    )
    bioes = [SentenceRecord(r.tokens, codec.spans_to_bioes(r.gold, len(r.tokens))) for r in spans]
    student, manifest = train(
        models.new_model("ner-maxent", codec.tags, bits=12), bioes[:80], bioes[80:],
        TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=5),
        distill_cfg=DistillConfig("4", temperature=2.0), teacher=span_teacher,
    )
    got.update(_digests(tmp_path, student, manifest, "student_4"))
    assert got == MAXENT_DIGESTS


# sha256 of first- and second-order parser model files and manifests, as
# written when every parser family kept its own parameter, gradient and
# payload classes (the students' manifests without config.distill.student_temp)
PARSER_DIGESTS = {
    "teacher_1st": "6575c9e036c998af9f37ddebfed278ce5c09ac4cce4149f79ed2c0fe6ecb9bff",
    "teacher_1st_manifest": "3f0e20f6e6839d008426eb615ac1dd8bcf50c20492efad6d1f7eeba47ef79c76",
    "student_1b": "cc5d16b4acaa00b751cb36264a679ad22389f2fbd8bfe1a665b8e03414b961c6",
    "student_1b_manifest": "58a4e5b511c98f1c2a7d1c2048f6c4c1f8356b249440bd92c2fa7c4973b69610",
    "teacher_2nd": "23918ae66c149d7130067892cf6d295075542242b0776c01367f72b1568ae46f",
    "teacher_2nd_manifest": "6d37912de20ab6e0b71a1220f2f5d4c9f713e6962a4f3245717cfdc69e63aad4",
    "student_2b": "038c0e6d1e576085a498a141cb7bf45de494443049032ac712be978040e777a6",
    "student_2b_manifest": "af3280c6d442844c5772bd558b9d88404ace5794cb8528f9727de3d17c498305",
}


def test_parser_teachers_and_1b_and_2b_students_are_pinned(tmp_path):
    recs, rels = corpus.synth_generate("heads", 100, max_len=7, min_len=1, seed=9)
    tr, dv = recs[:80], recs[80:]
    got = {}
    for order, case, mode in (("1st", "1b", "local"), ("2nd", "2b", "global")):
        teacher = models.new_model(f"dep-{order}", rels, bits=12)
        teacher, manifest = train(
            teacher, tr, dv, TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=3)
        )
        got.update(_digests(tmp_path, teacher, manifest, f"teacher_{order}"))
        student, manifest = train(
            models.new_model("dep-1st", rels, bits=12), tr, dv,
            TrainConfig(epochs=3, lr=0.2, batch_size=16, seed=4),
            distill_cfg=DistillConfig(case, temperature=2.0, temp_mode=mode), teacher=teacher,
        )
        got.update(_digests(tmp_path, student, manifest, f"student_{case}"))
    assert got == PARSER_DIGESTS


# words whose hashed feature count ranges from 5 ("x") to 10 ("Maria"), so
# that sentences' own blocks have different widths
_MIXED_WIDTH_WORDS = ["x", "Zb", "aa", "aba", "abc", "runs", "Maria", "tok7"]


def _mixed_sentences(rng, lengths):
    return [[_MIXED_WIDTH_WORDS[k] for k in rng.integers(len(_MIXED_WIDTH_WORDS), size=n)]
            for n in lengths]


# (student family, its labels, teacher family, teacher labels, case); the
# span model and the second-order parser are teacher families, trained on
# gold alone
_BATCH_SETUPS = [
    ("ner-maxent", 3, "ner-crf", 3, "2a"),
    ("ner-maxent", 5, "ner-span", 1, "4"),  # BIOES rows over one entity type
    ("ner-crf", 3, "ner-crf", 3, "1a"),
    ("ner-crf", 3, "ner-maxent", 3, "3"),
    ("dep-1st", 2, "dep-1st", 2, "1b"),
    ("dep-1st", 2, "dep-2nd", 2, "2b"),
    ("ner-span", 2, None, None, None),
    ("dep-2nd", 2, None, None, None),
]


@given(
    seed=st.integers(0, 2**31 - 1),
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=10),
    lam=st.sampled_from([0.0, 0.3, 1.0]),
    setup=st.sampled_from(_BATCH_SETUPS),
)
@example(seed=0, lengths=[1, 1, 1], lam=0.3, setup=_BATCH_SETUPS[0])
@example(seed=1, lengths=[8, 1, 5, 8, 2], lam=1.0, setup=_BATCH_SETUPS[1])
@example(seed=2, lengths=[1, 4, 1, 7], lam=0.3, setup=_BATCH_SETUPS[2])
@settings(max_examples=80, deadline=None)
def test_batched_maxent_step_equals_sentence_steps(seed, lengths, lam, setup):
    """For every family, one `batch_objective` call over its prepared corpus
    leaves exactly the gradient arrays and losses of the per-sentence
    `objective`s run in batch order, and `decode_corpus` gives the
    per-sentence decodes; a MaxEnt corpus is also the stack of its
    per-sentence blocks."""
    family, n_labels, teacher_family, teacher_labels, case = setup
    rng = np.random.default_rng(seed)
    student = rand_model(family, rng, n_labels=n_labels, bits=10)
    sentences = _mixed_sentences(rng, lengths)
    tables = None
    if case is None:
        lam = 0.0
    else:
        teacher = rand_model(teacher_family, rng, n_labels=teacher_labels, bits=10)
        temp = TemperatureConfig(2.0, "local")
        tables = [teacher_marginal_table(case, teacher, t, temp) for t in sentences]
    golds = [_rand_gold(student, len(t), rng) for t in sentences]
    batch = rng.permutation(len(sentences))
    coef = 1.0 / len(batch)

    preps = [student.prepare(t) for t in sentences]
    want = student.new_grads()
    want_losses = [
        student.objective(preps[i], golds[i], None if tables is None else tables[i], lam, want, coef)
        for i in batch
    ]
    prepared = student.prepare_corpus(sentences)
    got = student.new_grads()
    assert student.batch_objective(prepared, batch, golds, tables, lam, got, coef) == want_losses
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])
    assert student.decode_corpus(prepared) == [student.decode(p) for p in preps]
    if family != "ner-maxent":
        return
    # the stack of the per-sentence blocks is the same block
    again = student.stack(preps)
    for name in ("ids", "vals", "widths", "offsets", "salts"):
        np.testing.assert_array_equal(getattr(again, name), getattr(prepared, name))
    for k, ref in enumerate(preps):
        one = prepared.block(k)
        np.testing.assert_array_equal(one.slots, ref.slots)
        np.testing.assert_array_equal(one.vals, ref.vals)


def test_batched_evaluate_equals_per_sentence_decoding(monkeypatch):
    rng = np.random.default_rng(5)
    recs, tags = corpus.synth_generate("chain", 40, max_len=8, min_len=1, seed=9)
    recs += [SentenceRecord(t, TagSequence(rng.integers(len(tags), size=len(t))))
             for t in _mixed_sentences(rng, [1, 3, 8, 2])]
    model = models.new_model("ner-maxent", tags, bits=10)
    model.params["weights"][:] = rng.normal(size=model.params["weights"].shape)
    model.params["bias"][:] = rng.normal(size=model.params["bias"].shape)

    per_sentence = [model.decode(model.prepare(r.tokens)) for r in recs]
    codec = corpus.bioes_codec_from_tags(tags)
    want = entity_f1([codec.bioes_to_spans(t) for t in per_sentence],
                     [codec.bioes_to_spans(r.gold) for r in recs])
    stacked = model.prepare_corpus([r.tokens for r in recs])
    assert len(set(stacked.widths.tolist())) > 1
    monkeypatch.setattr(token_maxent, "DECODE_CHUNK", 7)  # passes split inside sentences
    assert model.decode_corpus(stacked) == per_sentence
    metric, metrics = evaluate(model, recs)
    assert metric == want[2]
    assert (metrics["precision"], metrics["recall"], metrics["f1"]) == want
    blocks = [model.prepare(r.tokens) for r in recs]
    assert evaluate(model, recs, blocks) == (metric, metrics)
    assert evaluate(model, recs, None, train_eval.metric_gold(model, recs)) == (metric, metrics)


def test_diverging_run_raises_naming_the_epoch():
    tr, dv, tags = _tiny_chain()
    model = models.new_model("ner-crf", tags, bits=10)
    with np.errstate(all="ignore"), pytest.raises(DivergedError, match="epoch 1 "):
        train(model, tr, dv, TrainConfig(epochs=2, lr=1e300, batch_size=2, seed=1))


def test_same_seed_identical_manifests():
    tr, dv, tags = _tiny_chain()
    runs = []
    for _ in range(2):
        model = models.new_model("ner-maxent", tags, bits=10)
        _, manifest = train(model, tr, dv, TrainConfig(epochs=3, seed=7))
        runs.append(manifest.to_json_dict())
    assert runs[0] == runs[1]


def test_different_seed_changes_shuffling():
    tr, dv, tags = _tiny_chain(n_train=40)
    hists = []
    for seed in (1, 2):
        model = models.new_model("ner-maxent", tags, bits=10)
        _, manifest = train(model, tr, dv, TrainConfig(epochs=2, batch_size=8, seed=seed))
        hists.append(manifest.history)
    assert hists[0] != hists[1]


def test_training_loss_monotone_at_small_lr():
    tr, dv, tags = _tiny_chain(n_train=10, n_dev=2)
    model = models.new_model("ner-maxent", tags, bits=12)
    _, manifest = train(model, tr, dv, TrainConfig(epochs=6, lr=0.01, batch_size=10, seed=1))
    losses = [h["train_loss"] for h in manifest.history]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_empty_training_set_rejected():
    _, dv, tags = _tiny_chain()
    model = models.new_model("ner-maxent", tags, bits=10)
    with pytest.raises(ValueError):
        train(model, [], dv, TrainConfig(epochs=1))


def test_gold_type_checked_against_family():
    tr, dv, tags = _tiny_chain()
    parser = models.new_model("dep-1st", LabelAlphabet("deprel", ["root"]).freeze(), bits=10)
    with pytest.raises(ValueError):
        train(parser, tr, dv, TrainConfig(epochs=1))


def _with_label(task, rec, label):
    """rec's tokens with gold whose first label id is replaced by `label`."""
    if task == "chain":
        return SentenceRecord(rec.tokens, TagSequence((label,) + rec.gold.tags[1:]))
    if task == "heads":
        rels = (label,) + rec.gold.rels[1:]
        return SentenceRecord(rec.tokens, HeadAssignment(rec.gold.heads, rels))
    return SentenceRecord(rec.tokens, SpanSet(frozenset({(1, 1, label)})))


@pytest.mark.parametrize("past_end", [False, True])
@pytest.mark.parametrize(
    "family, task",
    [("ner-maxent", "chain"), ("ner-crf", "chain"), ("dep-1st", "heads"), ("ner-span", "spans")],
)
def test_gold_label_id_outside_the_alphabet_is_rejected(family, task, past_end):
    recs, alphabet = corpus.synth_generate(task, 6, max_len=5, min_len=2, seed=3)
    label = len(alphabet) if past_end else -1
    bad = _with_label(task, recs[2], label)
    model = models.new_model(family, alphabet, bits=10)
    message = f"record 2: gold label id {label} outside 0..{len(alphabet) - 1}"
    with pytest.raises(ValueError, match=message):
        train(model, recs[:2] + [bad] + recs[3:], [], TrainConfig(epochs=1))


@pytest.mark.parametrize("case", ["1a", "1b", "2a"])
def test_teacher_tables_must_align_with_the_records(case):
    kd = train_eval.CASES[case]
    recs, alphabet = corpus.synth_generate(
        "heads" if kd.table_kind == "arc" else "chain", 8, max_len=6, min_len=2, seed=4
    )
    teacher = models.new_model(kd.teacher_family, alphabet, bits=10)
    temp = TemperatureConfig(1.0, "local")
    tables = [teacher_marginal_table(case, teacher, r.tokens, temp) for r in recs]
    other = next(k for k, r in enumerate(recs) if len(r) != len(recs[2]))

    def run(tables):
        student = models.new_model(kd.student_family, alphabet, bits=10)
        return train(
            student, recs, [], TrainConfig(epochs=1),
            distill_cfg=DistillConfig(case), teacher=teacher, teacher_tables=tables,
        )

    with pytest.raises(ValueError, match="record 2: teacher table over"):
        run(tables[:2] + [tables[other]] + tables[3:])
    with pytest.raises(ValueError, match="7 teacher tables for 8 records"):
        run(tables[:-1])
    run(tables)
    with pytest.raises(ValueError, match="only used when distilling"):
        student = models.new_model(kd.student_family, alphabet, bits=10)
        train(student, recs, [], TrainConfig(epochs=1), teacher_tables=tables)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TrainConfig(batch_size=0),
        lambda: TrainConfig(epochs=-1),
        lambda: TrainConfig(lr=0.0),
        lambda: TrainConfig(lr=-0.1),
        lambda: DistillConfig("9"),
        lambda: DistillConfig("2a", temperature=0.0),
        lambda: DistillConfig("2a", temperature=float("nan")),
        lambda: DistillConfig("2a", temperature="hot"),
        lambda: DistillConfig("2a", temp_mode="sideways"),
        lambda: DistillConfig("2a", anneal_rate=0.0),
        lambda: DistillConfig("2a", anneal_rate=float("inf")),
    ],
    ids=[
        "batch-size-0", "epochs-negative", "lr-0", "lr-negative", "case-9", "temperature-0", "temperature-nan",
        "temperature-str", "mode-sideways", "rate-0", "rate-inf",
    ],
)
def test_bad_settings_are_rejected_when_the_config_is_made(make):
    with pytest.raises(ValueError):
        make()


def test_distill_requires_matching_student_family():
    tr, dv, tags = _tiny_chain()
    teacher = models.new_model("ner-crf", tags, bits=10)
    student = models.new_model("ner-crf", tags, bits=10)
    with pytest.raises(ValueError):
        train(
            student, tr, dv, TrainConfig(epochs=1),
            distill_cfg=DistillConfig("2a"), teacher=teacher,
        )


def test_distill_end_to_end_tiny():
    tr, dv, tags = _tiny_chain(n_train=20)
    teacher = models.new_model("ner-crf", tags, bits=10)
    teacher, _ = train(teacher, tr, dv, TrainConfig(epochs=2, seed=1))
    student = models.new_model("ner-maxent", tags, bits=10)
    student, manifest = train(
        student, tr, dv, TrainConfig(epochs=2, seed=1),
        distill_cfg=DistillConfig("2a", temperature=2.0, anneal_rate=1.0), teacher=teacher,
    )
    assert manifest.config["distill"]["case"] == "2a"
    assert len(manifest.history) == 2


def test_pseudo_label_records_marks_provenance():
    tr, dv, tags = _tiny_chain()
    teacher = models.new_model("ner-crf", tags, bits=10)
    unlabeled = [corpus.SentenceRecord(r.tokens) for r in dv]
    labeled = pseudo_label_records(teacher, unlabeled)
    assert all(r.provenance == "pseudo-labeled" for r in labeled)
    assert all(isinstance(r.gold, TagSequence) for r in labeled)


def test_grid_search_shapes_and_best():
    tr, dv, tags = _tiny_chain(n_train=16)
    teacher = models.new_model("ner-crf", tags, bits=10)
    teacher, _ = train(teacher, tr, dv, TrainConfig(epochs=1, seed=1))
    res = distill_grid_search(
        "2a", teacher, lambda: models.new_model("ner-maxent", tags, bits=10),
        tr, dv, TrainConfig(epochs=1),
        temperatures=(1.0, 2.0), rates=(1.0,), seeds=(1, 2),
    )
    assert len(res.rows) == 2
    assert res.best in res.rows
    assert res.best_config().case == "2a"


def test_evaluate_span_model():
    recs, types = corpus.synth_generate("spans", 12, max_len=6, seed=3)
    model = models.new_model("ner-span", types, bits=10)
    metric, detail = evaluate(model, recs)
    assert 0.0 <= metric <= 1.0 and "f1" in detail


def test_manifest_csv_shape():
    tr, dv, tags = _tiny_chain()
    model = models.new_model("ner-maxent", tags, bits=10)
    _, manifest = train(model, tr, dv, TrainConfig(epochs=2, seed=1))
    lines = manifest.history_csv().strip().split("\n")
    assert lines[0] == "epoch,train_loss,dev_metric"
    assert len(lines) == 3
