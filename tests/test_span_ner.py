import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factorkd import oracle
from factorkd.corpus import LabelAlphabet, SpanSet
from factorkd.span_ner import (
    SpanNerModel,
    SpanScoreTable,
    bioes_marginals,
    decode_spans,
    prefix_log_partitions,
    sample_span_set,
    span_log_partition,
    span_marginals,
    suffix_log_partitions,
)
from factorkd.verify import rand_span_table

LN2 = 0.6931471805599453
LN5 = 1.6094379124341003


def zeros_table(n, T=1):
    return SpanScoreTable(np.zeros((n, n, T)))


def test_partition_single_token():
    # structures: empty set, single-token span
    assert span_log_partition(zeros_table(1)) == pytest.approx(LN2, abs=1e-12)


def test_partition_two_tokens():
    # empty, (1,1), (2,2), (1,1)+(2,2), (1,2)
    assert span_log_partition(zeros_table(2)) == pytest.approx(LN5, abs=1e-12)


def test_partition_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n, T = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        table = rand_span_table(rng, n, T)
        ref = oracle.log_partition(oracle.enumerate_spans(table))
        assert span_log_partition(table) == pytest.approx(ref, abs=1e-9)


def test_prefix_and_suffix_agree():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n, T = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        table = rand_span_table(rng, n, T)
        assert prefix_log_partitions(table)[n] == pytest.approx(
            suffix_log_partitions(table)[0], abs=1e-9
        )


def test_bioes_single_token_row():
    rows = bioes_marginals(zeros_table(1)).rows
    np.testing.assert_allclose(rows, [[0.5, 0.0, 0.0, 0.0, 0.5]], atol=1e-12)


def test_bioes_two_token_rows():
    rows = bioes_marginals(zeros_table(2)).rows
    # layout: O, B, I, E, S
    np.testing.assert_allclose(rows[0], [0.4, 0.2, 0.0, 0.0, 0.4], atol=1e-12)
    np.testing.assert_allclose(rows[1], [0.4, 0.0, 0.0, 0.2, 0.4], atol=1e-12)


def test_bioes_matches_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n, T = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        table = rand_span_table(rng, n, T)
        e = oracle.enumerate_spans(table)
        np.testing.assert_allclose(
            bioes_marginals(table).rows, oracle.span_bioes_rows(e, T), atol=1e-9
        )


def test_edge_cases_exactly_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, T = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        rows = bioes_marginals(rand_span_table(rng, n, T)).rows
        for l in range(T):
            col = 1 + 4 * l
            assert rows[n - 1, col] == 0.0  # B at the last token
            assert rows[0, col + 1] == 0.0 and rows[n - 1, col + 1] == 0.0  # I at edges
            assert rows[0, col + 2] == 0.0  # E at the first token


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n, T = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    rows = bioes_marginals(rand_span_table(rng, n, T)).rows
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)


def test_span_marginals_match_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n, T = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        table = rand_span_table(rng, n, T)
        e = oracle.enumerate_spans(table)
        np.testing.assert_allclose(
            span_marginals(table), oracle.span_presence(e, T), atol=1e-9
        )


# ---------------------------------------------------------------------------
# Decoding


def test_all_negative_scores_decode_empty():
    table = SpanScoreTable(np.full((4, 4, 2), -0.5))
    assert decode_spans(table).spans == set()


def test_single_positive_span_wins():
    scores = np.full((3, 3, 1), -1.0)
    scores[0, 1, 0] = 5.0
    assert decode_spans(SpanScoreTable(scores)).spans == {(1, 2, 0)}


def test_zero_score_span_not_taken():
    # ties prefer fewer spans, so a zero-gain span is skipped
    assert decode_spans(zeros_table(3)).spans == set()


def test_decode_matches_enumeration_argmax():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, T = int(rng.integers(1, 6)), int(rng.integers(1, 3))
        table = rand_span_table(rng, n, T)
        e = oracle.enumerate_spans(table)
        got = decode_spans(table).spans
        best = oracle.span_argmax(e)
        got_score = sum(table.scores[s - 1, t - 1, l] for s, t, l in got)
        best_score = sum(table.scores[s - 1, t - 1, l] for s, t, l in best)
        assert got_score == pytest.approx(best_score, abs=1e-9)


def test_sampling_hits_exact_distribution():
    rng = np.random.default_rng(6)
    table = rand_span_table(np.random.default_rng(9), 3, 1, scale=0.8)
    e = oracle.enumerate_spans(table)
    probs = {frozenset(s): p for s, p in zip(e.structures, oracle.probabilities(e))}
    counts = {k: 0 for k in probs}
    n_draws = 4000
    for _ in range(n_draws):
        counts[frozenset(sample_span_set(table, rng))] += 1
    for k, p in probs.items():
        sigma = np.sqrt(p * (1 - p) / n_draws)
        assert abs(counts[k] / n_draws - p) <= 4 * sigma + 1e-3


# ---------------------------------------------------------------------------
# Model


def _random_model(T=2, seed=0):
    types = LabelAlphabet("entity-types", [f"T{i}" for i in range(T)]).freeze()
    m = SpanNerModel(types, bits=10)
    rng = np.random.default_rng(seed)
    m.params["weights"][:] = rng.normal(size=m.params["weights"].shape)
    m.params["bias"][:] = rng.normal(size=m.params["bias"].shape)
    return m


def test_zero_weight_model_table_is_zero():
    types = LabelAlphabet("entity-types", ["X"]).freeze()
    m = SpanNerModel(types, bits=10)
    table = m.score_table(m.prepare(["a", "b"]))
    assert np.all(table.scores[np.triu_indices(2)] == 0.0)


def test_table_shape_single_token():
    m = _random_model(T=2)
    table = m.score_table(m.prepare(["only"]))
    assert table.scores.shape == (1, 1, 2)


def test_table_matches_direct_scoring():
    from factorkd.scorer import featurize_span, score

    m = _random_model(T=2, seed=1)
    tokens = ["aa", "bb", "cc"]
    table = m.score_table(m.prepare(tokens))
    for i in range(3):
        for j in range(i, 3):
            f = featurize_span(m.hasher, tokens, i, j)
            for l in range(2):
                assert table.scores[i, j, l] == pytest.approx(
                    score(m.params, m.hasher, f, l), abs=1e-12
                )


def test_model_nll_gradient_fd():
    m = _random_model(T=2, seed=2)
    tokens = ["aa", "bb", "cc", "dd"]
    prep = m.prepare(tokens)
    gold = SpanSet(frozenset({(1, 2, 0), (4, 4, 1)}))
    grads = m.new_grads()
    m.objective(prep, gold, None, 0.0, grads)
    rng = np.random.default_rng(0)
    eps = 1e-5
    idxs = np.flatnonzero(np.abs(grads["weights"]) > 1e-12)
    for idx in rng.choice(idxs, size=min(20, idxs.size), replace=False):
        orig = m.params["weights"][idx]
        m.params["weights"][idx] = orig + eps
        up = m.objective(prep, gold, None, 0.0, m.new_grads())
        m.params["weights"][idx] = orig - eps
        down = m.objective(prep, gold, None, 0.0, m.new_grads())
        m.params["weights"][idx] = orig
        fd = (up - down) / (2 * eps)
        assert abs(fd - grads["weights"][idx]) <= 1e-4 * max(1.0, abs(fd))


def test_model_serialization_round_trip():
    m = _random_model(T=2, seed=3)
    clone = SpanNerModel.from_payload(m.to_payload())
    tokens = ["x", "yy"]
    np.testing.assert_allclose(
        m.score_table(m.prepare(tokens)).scores[np.triu_indices(2)],
        clone.score_table(clone.prepare(tokens)).scores[np.triu_indices(2)],
        atol=0,
    )
