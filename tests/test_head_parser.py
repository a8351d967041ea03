import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from factorkd.corpus import HeadAssignment, LabelAlphabet
from factorkd.head_parser import (
    ArcDistributions,
    FirstOrderParser,
    SecondOrderParser,
    arc_marginal,
    decode_heads,
    mfvi_second_order,
    mfvi_trace,
    self_mask,
)
from factorkd.numerics import softmax_last
from factorkd.oracle import head_candidates

TOKENS = ["a", "bb", "ccc", "dd"]


def _rels(R=2):
    return LabelAlphabet("deprel", [f"r{i}" for i in range(R)]).freeze()


def _random_parser(cls=FirstOrderParser, seed=0, R=2, **kw):
    m = cls(_rels(R), bits=10, **kw)
    rng = np.random.default_rng(seed)
    m.params["arc_weights"][:] = rng.normal(size=m.params["arc_weights"].shape)
    m.params["rel_weights"][:] = rng.normal(size=m.params["rel_weights"].shape)
    m.params["rel_bias"][:] = rng.normal(size=m.params["rel_bias"].shape)
    if isinstance(m, SecondOrderParser):
        m.params["sib_weights"][:] = 0.4 * rng.normal(size=m.params["sib_weights"].shape)
    return m


# ---------------------------------------------------------------------------
# First-order distributions


def test_zero_weights_uniform_over_candidates():
    m = FirstOrderParser(_rels(), bits=10)
    d = m.distributions(m.prepare(["x", "y"]))
    np.testing.assert_allclose(d.head_rows[0], [0.5, 0.0, 0.5], atol=1e-12)
    np.testing.assert_allclose(d.head_rows[1], [0.5, 0.5, 0.0], atol=1e-12)


def test_single_token_head_forced_to_root():
    m = FirstOrderParser(_rels(), bits=10)
    d = m.distributions(m.prepare(["only"]))
    np.testing.assert_allclose(d.head_rows, [[1.0, 0.0]], atol=0)


def test_rows_match_direct_softmax():
    m = _random_parser(seed=1)
    prep = m.prepare(TOKENS)
    arc = m.arc_logits(prep)
    d = m.distributions(prep)
    for i in range(len(TOKENS)):
        z = np.exp(arc[i] - arc[i].max())
        np.testing.assert_allclose(d.head_rows[i], z / z.sum(), atol=1e-12)
    assert np.all(np.diag(d.head_rows[:, 1:]) == 0.0)


def test_arc_marginal_is_product():
    d = ArcDistributions(
        np.array([[0.5, 0.0, 0.5]]), np.array([[0.5, 0.5]])
    )
    assert arc_marginal(d, 0, 0, 1) == pytest.approx(0.25)


def test_arc_marginal_point_mass():
    d = ArcDistributions(np.array([[1.0, 0.0, 0.0]]), np.array([[1.0]]))
    assert arc_marginal(d, 0, 0, 0) == 1.0


def test_arc_marginal_rejects_self():
    d = ArcDistributions(np.array([[0.5, 0.0, 0.5]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        arc_marginal(d, 0, 1, 0)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_arc_marginals_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n, R = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    d = ArcDistributions(
        softmax_last(rng.uniform(-2, 2, (n, n + 1)) + self_mask(n)),
        softmax_last(rng.uniform(-2, 2, (n, R))),
    )
    for i in range(n):
        total = sum(
            arc_marginal(d, i, j, r) for j in head_candidates(n, i + 1) for r in range(R)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Decoding


def test_decode_one_hot_rows():
    d = ArcDistributions(
        np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]), np.array([[0.1, 0.9], [0.8, 0.2]])
    )
    assert decode_heads(d) == HeadAssignment((2, 0), (1, 0))


def test_decode_uniform_ties_to_root():
    d = ArcDistributions(
        np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]), np.full((2, 2), 0.5)
    )
    assert decode_heads(d) == HeadAssignment((0, 0), (0, 0))


def test_decode_matches_per_row_argmax():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        d = ArcDistributions(
            softmax_last(rng.uniform(-2, 2, (n, n + 1)) + self_mask(n)),
            softmax_last(rng.uniform(-2, 2, (n, 3))),
        )
        got = decode_heads(d)
        for i in range(n):
            assert d.head_rows[i, got.heads[i]] == d.head_rows[i].max()
            assert d.rel_rows[i, got.rels[i]] == d.rel_rows[i].max()


# ---------------------------------------------------------------------------
# Mean-field inference


def test_mfvi_zero_iterations_is_first_order():
    rng = np.random.default_rng(3)
    arc = rng.uniform(-2, 2, (3, 4))
    sib = rng.uniform(-1, 1, (3, 3, 4))
    np.testing.assert_array_equal(
        mfvi_second_order(arc, sib, 0), softmax_last(arc + self_mask(3))
    )


def test_mfvi_zero_siblings_fixed_point():
    rng = np.random.default_rng(4)
    arc = rng.uniform(-2, 2, (4, 5))
    first = softmax_last(arc + self_mask(4))
    for k in (1, 3, 7):
        np.testing.assert_array_equal(mfvi_second_order(arc, np.zeros((4, 4, 5)), k), first)


def test_mfvi_matches_stated_recursion():
    rng = np.random.default_rng(5)
    n = 3
    arc = rng.uniform(-2, 2, (n, n + 1))
    sib = rng.uniform(-1, 1, (n, n, n + 1))
    q = softmax_last(arc + self_mask(n))
    for _ in range(3):
        logits = (arc + self_mask(n)).copy()
        for i in range(n):
            for j in range(n + 1):
                logits[i, j] += sum(sib[i, k, j] * q[k, j] for k in range(n) if k != i)
        q = softmax_last(logits)
    np.testing.assert_allclose(mfvi_second_order(arc, sib, 3), q, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_mfvi_rows_stay_distributions(seed):
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 6)), int(rng.integers(0, 5))
    arc = rng.uniform(-3, 3, (n, n + 1))
    sib = rng.uniform(-2, 2, (n, n, n + 1))
    for q in mfvi_trace(arc, sib, k):
        assert np.all(q >= 0)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(q[np.arange(n), np.arange(1, n + 1)] == 0.0)


def test_mfvi_negative_iterations_rejected():
    with pytest.raises(ValueError):
        mfvi_second_order(np.zeros((2, 3)), np.zeros((2, 2, 3)), -1)


# ---------------------------------------------------------------------------
# Training losses


def test_first_order_nll_gradient_fd():
    m = _random_parser(seed=6)
    prep = m.prepare(TOKENS)
    gold = HeadAssignment((2, 0, 1, 3), (1, 0, 1, 0))
    grads = m.new_grads()
    m.objective(prep, gold, None, 0.0, grads)
    _fd_check(m, prep, gold, grads, seed=0)


def test_second_order_nll_gradient_fd():
    m = _random_parser(SecondOrderParser, seed=7, iterations=3)
    prep = m.prepare(TOKENS)
    gold = HeadAssignment((2, 0, 1, 3), (1, 0, 1, 0))
    grads = m.new_grads()
    m.objective(prep, gold, None, 0.0, grads)
    _fd_check(m, prep, gold, grads, seed=1, arrays="second")


def _fd_check(m, prep, gold, grads, seed, arrays="first"):
    rng = np.random.default_rng(seed)
    eps = 1e-5
    pairs = [(m.params["arc_weights"], grads["arc_weights"]), (m.params["rel_weights"], grads["rel_weights"])]
    if arrays == "second":
        pairs.append((m.params["sib_weights"], grads["sib_weights"]))
    for params, g in pairs:
        idxs = np.flatnonzero(np.abs(g) > 1e-12)
        for idx in rng.choice(idxs, size=min(12, idxs.size), replace=False):
            orig = params[idx]
            params[idx] = orig + eps
            up = m.objective(prep, gold, None, 0.0, m.new_grads())
            params[idx] = orig - eps
            down = m.objective(prep, gold, None, 0.0, m.new_grads())
            params[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - g[idx]) <= 1e-4 * max(1.0, abs(fd)), (fd, g[idx])


def test_serialization_round_trip_both_orders():
    for cls in (FirstOrderParser, SecondOrderParser):
        m = _random_parser(cls, seed=8)
        clone = cls.from_payload(m.to_payload())
        d1 = m.distributions(m.prepare(TOKENS))
        d2 = clone.distributions(clone.prepare(TOKENS))
        np.testing.assert_allclose(d1.head_rows, d2.head_rows, atol=0)
        np.testing.assert_allclose(d1.rel_rows, d2.rel_rows, atol=0)
