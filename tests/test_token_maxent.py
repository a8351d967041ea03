import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factorkd.corpus import LabelAlphabet, TagSequence
from factorkd.numerics import softmax_last
from factorkd.token_maxent import MaxEntTagger, TokenDistributions, pair_marginals_from_tokens

TOKENS = ["alpha", "beta", "gamma", "delta"]


def _model(L=3, bits=10):
    alpha = LabelAlphabet("ner-tags", [f"T{i}" for i in range(L)]).freeze()
    return MaxEntTagger(alpha, bits=bits)


def _random_model(L=3, seed=0):
    m = _model(L)
    rng = np.random.default_rng(seed)
    m.params["weights"][:] = rng.normal(size=m.params["weights"].shape)
    m.params["bias"][:] = rng.normal(size=m.params["bias"].shape)
    return m


def test_zero_weights_give_uniform_rows():
    m = _model()
    rows = m.token_distributions(m.prepare(TOKENS)).rows
    np.testing.assert_allclose(rows, 1 / 3, atol=1e-12)


def test_single_label_rows_are_one():
    m = _model(L=1)
    rows = m.token_distributions(m.prepare(TOKENS)).rows
    np.testing.assert_allclose(rows, 1.0, atol=0)


def test_rows_match_independent_softmax():
    m = _random_model(seed=1)
    prep = m.prepare(TOKENS)
    logits = m.logits(prep)
    rows = m.token_distributions(prep).rows
    for i in range(len(TOKENS)):
        z = np.exp(logits[i] - logits[i].max())
        np.testing.assert_allclose(rows[i], z / z.sum(), atol=1e-12)


def test_rows_shift_invariant():
    m = _random_model(seed=2)
    prep = m.prepare(TOKENS)
    rows = m.token_distributions(prep).rows
    m.params["bias"] += 3.7  # constant shift at every position
    rows2 = m.token_distributions(prep).rows
    np.testing.assert_allclose(rows, rows2, atol=1e-12)


def test_uniform_nll():
    m = _model()
    grads = m.new_grads()
    loss = m.objective(m.prepare(TOKENS), TagSequence((0, 1, 2, 0)), None, 0.0, grads)
    assert loss == pytest.approx(4 * np.log(3), abs=1e-12)


def test_peaked_nll_vanishes():
    m = _model(L=2, bits=16)
    gold = TagSequence((1, 0, 1, 0))
    prep = m.prepare(TOKENS)
    for i, t in enumerate(gold.tags):
        m.params["weights"][prep.slots[i, t][prep.vals[i] > 0]] += 20.0
    loss = m.objective(prep, gold, None, 0.0, m.new_grads())
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_nll_gradient_finite_differences():
    m = _random_model(seed=3)
    prep = m.prepare(TOKENS)
    gold = TagSequence((2, 0, 1, 1))
    grads = m.new_grads()
    loss = m.objective(prep, gold, None, 0.0, grads)
    rng = np.random.default_rng(0)
    eps = 1e-5
    idxs = np.flatnonzero(np.abs(grads["weights"]) > 1e-12)
    for idx in rng.choice(idxs, size=min(25, idxs.size), replace=False):
        orig = m.params["weights"][idx]
        m.params["weights"][idx] = orig + eps
        up = m.objective(prep, gold, None, 0.0, m.new_grads())
        m.params["weights"][idx] = orig - eps
        down = m.objective(prep, gold, None, 0.0, m.new_grads())
        m.params["weights"][idx] = orig
        fd = (up - down) / (2 * eps)
        assert abs(fd - grads["weights"][idx]) <= 1e-4 * max(1.0, abs(fd))


def test_invalid_gold_rejected():
    m = _model(L=2)
    with pytest.raises(ValueError):
        m.objective(m.prepare(TOKENS), TagSequence((0, 1, 2, 0)), None, 0.0, m.new_grads())


def test_pair_marginals_uniform():
    rows = np.full((3, 2), 0.5)
    table = pair_marginals_from_tokens(TokenDistributions(rows))
    np.testing.assert_allclose(table.pairwise, 0.25, atol=1e-15)


def test_pair_marginals_one_hot():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    table = pair_marginals_from_tokens(TokenDistributions(rows))
    assert table.pairwise[0, 0, 1] == 1.0
    assert table.pairwise[1, 1, 0] == 1.0
    assert table.pairwise.sum() == pytest.approx(2.0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_pair_marginals_consistency_property(seed):
    rng = np.random.default_rng(seed)
    n, L = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    rows = softmax_last(rng.uniform(-3, 3, (n, L)))
    table = pair_marginals_from_tokens(TokenDistributions(rows))
    np.testing.assert_allclose(table.unary, rows, atol=1e-12)
    if n > 1:
        np.testing.assert_allclose(table.pairwise.sum(axis=(1, 2)), 1.0, atol=1e-12)
        np.testing.assert_allclose(table.pairwise.sum(axis=2), rows[:-1], atol=1e-12)
        np.testing.assert_allclose(table.pairwise.sum(axis=1), rows[1:], atol=1e-12)


def test_serialization_round_trip():
    m = _random_model(seed=4)
    clone = MaxEntTagger.from_payload(m.to_payload())
    prep_a, prep_b = m.prepare(TOKENS), clone.prepare(TOKENS)
    np.testing.assert_allclose(m.logits(prep_a), clone.logits(prep_b), atol=0)
