import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factorkd import chain_crf, corpus
from factorkd.corpus import (
    BioesCodec,
    HeadAssignment,
    LabelAlphabet,
    ParseError,
    SentenceRecord,
    SpanSet,
    TagSequence,
    planted_chain_lattice,
    read_conll_ner,
    read_conllu,
    synth_generate,
    write_conll_ner,
    write_conllu,
)


def _codec(types=("PER", "LOC")):
    return BioesCodec(LabelAlphabet("entity-types", types).freeze())


# ---------------------------------------------------------------------------
# Domain type invariants


def test_empty_sentence_rejected():
    with pytest.raises(ValueError):
        SentenceRecord([])


def test_gold_length_checked():
    with pytest.raises(ValueError):
        SentenceRecord(["a", "b"], TagSequence((0,)))


def test_self_head_rejected():
    with pytest.raises(ValueError):
        HeadAssignment((1,), (0,))


def test_overlapping_spans_rejected():
    with pytest.raises(ValueError):
        SpanSet(frozenset({(1, 3, 0), (3, 4, 0)}))


def test_span_beyond_sentence_rejected():
    with pytest.raises(ValueError):
        SentenceRecord(["a", "b"], SpanSet(frozenset({(1, 3, 0)})))


def test_frozen_alphabet_rejects_new_labels():
    alpha = LabelAlphabet("ner-tags", ["O"]).freeze()
    with pytest.raises(ValueError):
        alpha.add("B-PER")


# ---------------------------------------------------------------------------
# Readers


def test_read_ner_basic():
    records, alpha = read_conll_ner(io.BytesIO(b"John B-PER\nruns O\n\n"))
    assert len(records) == 1
    assert records[0].tokens == ["John", "runs"]
    assert [alpha.label(t) for t in records[0].gold.tags] == ["B-PER", "O"]


def test_read_ner_empty_stream():
    records, _ = read_conll_ner(io.BytesIO(b""))
    assert records == []


def test_read_ner_two_blocks():
    data = b"a O\nb O\n\nc O\n\n"
    records, _ = read_conll_ner(io.BytesIO(data))
    assert [len(r) for r in records] == [2, 1]


def test_read_ner_drops_docstart():
    data = b"-DOCSTART- -X- O\n\na O\n\n"
    records, _ = read_conll_ner(io.BytesIO(data))
    assert [r.tokens for r in records] == [["a"]]


def test_read_ner_ragged_columns_report_line():
    data = b"a x O\nb O\n\n"
    with pytest.raises(ParseError) as err:
        read_conll_ner(io.BytesIO(data))
    assert err.value.line_no == 2


def test_read_ner_rejects_iob_tags_with_the_line():
    data = b"John B-PER\nSmith I-PER\nsaid O\n\n"
    with pytest.raises(ParseError, match="BIOES") as err:
        read_conll_ner(io.BytesIO(data))
    assert err.value.line_no == 2


def test_read_ner_accepts_bioes_and_non_entity_tags():
    bioes = b"John B-PER\nSmith E-PER\nsaid O\nit S-LOC\n\n"
    assert len(read_conll_ner(io.BytesIO(bioes))[0]) == 1
    pos = b"the DT\ndog NN\nruns VBZ\n\n"
    assert len(read_conll_ner(io.BytesIO(pos))[0]) == 1
    # an unconstrained decoder's stray fragment in an otherwise BIOES file
    noisy = b"a B-PER\nb I-PER\nc O\n\nd S-LOC\n\n"
    assert len(read_conll_ner(io.BytesIO(noisy))[0]) == 2


def test_read_conllu_single_root():
    data = b"1\tdog\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
    records, rels = read_conllu(io.BytesIO(data))
    assert records[0].gold.heads == (0,)
    assert rels.label(records[0].gold.rels[0]) == "root"


def test_read_conllu_comment_only():
    records, _ = read_conllu(io.BytesIO(b"# nothing here\n"))
    assert records == []


def test_read_conllu_two_tokens():
    data = (
        b"1\tthe\t_\t_\t_\t_\t2\tdet\t_\t_\n"
        b"2\tdog\t_\t_\t_\t_\t0\troot\t_\t_\n\n"
    )
    records, _ = read_conllu(io.BytesIO(data))
    assert records[0].gold.heads == (2, 0)


def test_read_conllu_skips_multiword_ranges():
    data = (
        b"1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
        b"1\tcan\t_\t_\t_\t_\t0\troot\t_\t_\n"
        b"2\tnot\t_\t_\t_\t_\t1\tadvmod\t_\t_\n\n"
    )
    records, _ = read_conllu(io.BytesIO(data))
    assert records[0].tokens == ["can", "not"]


@pytest.mark.parametrize(
    "rows, line_no",
    [
        # b is the root, a -> 3 and c -> 2; read by position, c's head
        # would be "a" instead of "b"
        ([(2, "b", 0), (1, "a", 3), (3, "c", 2)], 1),
        ([(1, "a", 0), (1, "b", 1)], 2),
        ([(1, "a", 0), (5, "b", 1)], 2),
    ],
    ids=["out of order", "duplicate", "gap"],
)
def test_read_conllu_rejects_ids_that_are_not_token_positions(rows, line_no):
    data = "".join(f"{k}\t{w}\t_\t_\t_\t_\t{h}\tdep\t_\t_\n" for k, w, h in rows) + "\n"
    with pytest.raises(ParseError, match="token ID") as err:
        read_conllu(io.BytesIO(data.encode()))
    assert err.value.line_no == line_no


def test_read_conllu_bad_head_reports_line():
    data = b"1\tdog\t_\t_\t_\t_\tx\troot\t_\t_\n\n"
    with pytest.raises(ParseError) as err:
        read_conllu(io.BytesIO(data))
    assert err.value.line_no == 1


def test_ner_writer_round_trip():
    records, alpha = synth_generate("chain", 20, max_len=6, seed=5)
    buf = io.StringIO()
    write_conll_ner(records, alpha, buf)
    back, alpha2 = read_conll_ner(io.BytesIO(buf.getvalue().encode()))
    assert [r.tokens for r in back] == [r.tokens for r in records]
    for a, b in zip(records, back):
        assert [alpha.label(t) for t in a.gold.tags] == [alpha2.label(t) for t in b.gold.tags]


def test_conllu_writer_round_trip():
    records, rels = synth_generate("heads", 15, max_len=6, seed=5)
    buf = io.StringIO()
    write_conllu(records, rels, buf)
    back, rels2 = read_conllu(io.BytesIO(buf.getvalue().encode()))
    for a, b in zip(records, back):
        assert a.gold.heads == b.gold.heads
        assert [rels.label(r) for r in a.gold.rels] == [rels2.label(r) for r in b.gold.rels]


# ---------------------------------------------------------------------------
# BIOES codec


def test_single_token_span_is_s():
    codec = _codec()
    tags = codec.spans_to_bioes(SpanSet(frozenset({(1, 1, 0)})), 3)
    assert [codec.tags.label(t) for t in tags] == ["S-PER", "O", "O"]


def test_multi_token_span_is_bie():
    codec = _codec(("ORG",))
    tags = codec.spans_to_bioes(SpanSet(frozenset({(1, 3, 0)})), 3)
    assert [codec.tags.label(t) for t in tags] == ["B-ORG", "I-ORG", "E-ORG"]


def test_empty_span_set_is_all_o():
    codec = _codec()
    tags = codec.spans_to_bioes(SpanSet(frozenset()), 2)
    assert [codec.tags.label(t) for t in tags] == ["O", "O"]


def test_b_e_pair_decodes():
    codec = _codec()
    tags = TagSequence((codec.tag_id("B", 0), codec.tag_id("E", 0)))
    assert codec.bioes_to_spans(tags).spans == {(1, 2, 0)}


def test_unanchored_fragment_dropped():
    codec = _codec()
    tags = TagSequence((codec.tag_id("I", 0), codec.o_id))
    assert codec.bioes_to_spans(tags).spans == set()


def test_adjacent_singles_stay_separate():
    codec = _codec()
    s_loc = codec.tag_id("S", 1)
    tags = TagSequence((s_loc, s_loc))
    assert codec.bioes_to_spans(tags).spans == {(1, 1, 1), (2, 2, 1)}


def test_type_switch_inside_segment_dropped():
    codec = _codec()
    tags = TagSequence((codec.tag_id("B", 0), codec.tag_id("E", 1)))
    assert codec.bioes_to_spans(tags).spans == set()


@st.composite
def span_sets(draw, n_types=2):
    n = draw(st.integers(min_value=1, max_value=12))
    spans = []
    pos = 1
    while pos <= n:
        if draw(st.booleans()):
            end = draw(st.integers(min_value=pos, max_value=min(n, pos + 3)))
            spans.append((pos, end, draw(st.integers(0, n_types - 1))))
            pos = end + 1
        else:
            pos += 1
    return n, SpanSet(frozenset(spans))


@given(span_sets())
@settings(max_examples=200)
def test_bioes_round_trip(case):
    n, spans = case
    codec = _codec()
    assert codec.bioes_to_spans(codec.spans_to_bioes(spans, n)).spans == spans.spans


# ---------------------------------------------------------------------------
# Synthetic generation


def test_synth_deterministic():
    for task in ("chain", "heads", "spans"):
        a, _ = synth_generate(task, 25, max_len=7, seed=9)
        b, _ = synth_generate(task, 25, max_len=7, seed=9)
        for ra, rb in zip(a, b):
            assert ra.tokens == rb.tokens and ra.gold == rb.gold


# sha256 of the records of two span corpora (tokens and sorted gold spans),
# as drawn when the planted span scores were filled by a Python loop and the
# sampler built its options as Python lists
SPAN_CORPUS_DIGESTS = {
    "two_types": "8e5cf11bdea5051afc69e5981c6efe9d7c8cc922b1de8fd9ff8354f056e050c8",
    "three_types_long": "02ed429df912099463849294cf2af578bfc2f10f6fc2adfd4062f4aeb8a7c605",
}


def test_span_corpora_are_pinned():
    corpora = {
        "two_types": synth_generate("spans", 200, max_len=12, min_len=1, seed=15)[0],
        "three_types_long": synth_generate(
            "spans", 60, max_len=20, min_len=9, seed=16, entity_types=("A", "B", "C")
        )[0],
    }
    got = {
        name: hashlib.sha256(
            json.dumps([[r.tokens, sorted(r.gold.spans)] for r in records]).encode()
        ).hexdigest()
        for name, records in corpora.items()
    }
    assert got == SPAN_CORPUS_DIGESTS


def test_synth_single_label_chain():
    spec = corpus.SynthChainSpec(entity_types=())
    records, alpha = synth_generate("chain", 10, max_len=5, seed=0, chain_spec=spec)
    assert list(alpha) == ["O"]
    assert all(set(r.gold.tags) == {0} for r in records)


def test_synth_records_satisfy_invariants():
    for task in ("chain", "heads", "spans"):
        records, _ = synth_generate(task, 30, max_len=8, seed=4)
        for r in records:
            assert len(r.tokens) >= 1  # constructor validated the rest


def test_planted_pair_frequencies_match_marginals():
    """10k fixed-length samples: empirical adjacent-pair frequencies agree
    with the planted model's pairwise marginals within 3-sigma binomial
    bounds (deterministic under the fixed seed)."""
    spec = corpus.SynthChainSpec()
    n, n_samples = 5, 10_000
    codec, lattice = planted_chain_lattice(spec, n, seed=77)
    marg = chain_crf.pairwise_marginals(lattice)
    rng = np.random.default_rng(123)
    L = len(codec.tags)
    counts = np.zeros((n - 1, L, L))
    for _ in range(n_samples):
        tags = chain_crf.sample_tags(lattice, rng)
        for i in range(n - 1):
            counts[i, tags[i], tags[i + 1]] += 1
    freq = counts / n_samples
    sigma = np.sqrt(marg.pairwise * (1 - marg.pairwise) / n_samples)
    # 3-sigma bound with a tiny absolute floor for near-impossible pairs
    assert np.all(np.abs(freq - marg.pairwise) <= 3 * sigma + 1e-4)


def test_synth_size_validation():
    with pytest.raises(ValueError):
        synth_generate("chain", 0)
    with pytest.raises(ValueError):
        synth_generate("nope", 5)
