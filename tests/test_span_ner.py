import numpy as np
import pytest
import span_reference
from hypothesis import example, given, settings, strategies as st

from factorkd import oracle
from factorkd.corpus import LabelAlphabet, SpanSet
from factorkd.span_ner import (
    SpanNerModel,
    SpanScoreTable,
    bioes_marginals,
    decode_spans,
    per_length,
    prefix_log_partitions,
    sample_span_set,
    span_log_partition,
    span_marginals,
    stack_bioes_rows,
    stack_prefix_log_partitions,
    stack_span_marginals,
    stack_suffix_log_partitions,
    suffix_log_partitions,
)
from factorkd.verify import _rand_gold, rand_model, rand_span_table, rand_tokens

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
# Length-grouped kernels


def _score_like_tables(rng, lengths, T):
    """Random tables with the -inf lower triangle that score_table leaves."""
    tables = []
    for n in lengths:
        scores = rng.uniform(-3.0, 3.0, (n, n, T))
        scores[np.tril_indices(n, -1)] = -np.inf
        tables.append(SpanScoreTable(scores))
    return tables


@given(
    seed=st.integers(0, 2**31 - 1),
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=8),
    T=st.integers(1, 3),
)
@example(seed=0, lengths=[1, 1, 1], T=2)
@example(seed=1, lengths=[8, 3, 8, 1, 8], T=3)
@settings(max_examples=60, deadline=None)
def test_grouped_kernels_equal_the_scalar_reference(seed, lengths, T):
    """Every table of a mixed-length batch gets from its length's stack
    exactly the numbers of the scalar one-table DPs, and the one-table views
    give them too; the short ones also match enumeration."""
    tables = _score_like_tables(np.random.default_rng(seed), lengths, T)
    suffix = per_length(stack_suffix_log_partitions, tables)
    prefix = per_length(stack_prefix_log_partitions, tables)
    marginals = per_length(stack_span_marginals, tables)
    rows = per_length(stack_bioes_rows, tables)
    for t, log_f, log_b, (log_z, pres), r in zip(tables, suffix, prefix, marginals, rows):
        n = t.n
        ref_f = span_reference.suffix_log_partitions(t.scores)
        ref_pres = span_reference.span_marginals(t.scores)
        ref_rows = span_reference.bioes_rows(t.scores)
        np.testing.assert_array_equal(log_f, ref_f)
        np.testing.assert_array_equal(log_b, span_reference.prefix_log_partitions(t.scores))
        assert log_z == ref_f[0] == span_log_partition(t)
        np.testing.assert_array_equal(pres, ref_pres)
        np.testing.assert_array_equal(r, ref_rows)
        np.testing.assert_array_equal(suffix_log_partitions(t), ref_f)
        np.testing.assert_array_equal(prefix_log_partitions(t), log_b)
        np.testing.assert_array_equal(span_marginals(t), ref_pres)
        np.testing.assert_array_equal(bioes_marginals(t).rows, ref_rows)
        for l in range(T):
            col = 1 + 4 * l
            assert r[n - 1, col] == 0.0 and r[n - 1, col + 1] == 0.0  # B, I at the last token
            assert r[0, col + 1] == 0.0 and r[0, col + 2] == 0.0  # I, E at the first
        if n <= 5:
            e = oracle.enumerate_spans(t)
            assert abs(log_z - oracle.log_partition(e)) <= 1e-9
            np.testing.assert_allclose(pres, oracle.span_presence(e, T), rtol=0, atol=1e-9)
            np.testing.assert_allclose(r, oracle.span_bioes_rows(e, T), rtol=0, atol=1e-9)


@given(
    seed=st.integers(0, 2**31 - 1),
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=10),
    T=st.integers(1, 3),
)
@example(seed=0, lengths=[6, 6, 6, 6], T=2)
@example(seed=1, lengths=[1, 1], T=1)
@settings(max_examples=40, deadline=None)
def test_batch_objective_equals_the_scalar_objective_in_batch_order(seed, lengths, T):
    rng = np.random.default_rng(seed)
    model = rand_model("ner-span", rng, n_labels=T, bits=10)
    preps = [model.prepare(rand_tokens(rng, n)) for n in lengths]
    golds = [_rand_gold(model, n, rng) for n in lengths]
    batch = rng.permutation(len(lengths))
    coef = 1.0 / len(batch)
    want = model.new_grads()
    want_losses = [span_reference.objective(model, preps[i], golds[i], want, coef) for i in batch]
    got = model.new_grads()
    assert model.batch_objective(preps, batch, golds, None, 0.0, got, coef) == want_losses
    for name in want:
        np.testing.assert_array_equal(got[name], want[name])
    one = model.new_grads()
    losses = [model.objective(preps[i], golds[i], None, 0.0, one, coef) for i in batch]
    assert losses == want_losses
    for name in want:
        np.testing.assert_array_equal(one[name], want[name])


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
