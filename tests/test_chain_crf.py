import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from factorkd import chain_crf, oracle
from factorkd.chain_crf import ChainCrfTagger, ChainLattice, bioes_masks
from factorkd.corpus import LabelAlphabet, TagSequence, BioesCodec
from factorkd.verify import rand_lattice

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def zeros_lattice(n, L):
    return ChainLattice(np.zeros((n, L)), np.zeros((max(n - 1, 0), L, L)), np.zeros(L), np.zeros(L))


def test_partition_single_position():
    assert chain_crf.log_partition(zeros_lattice(1, 2)) == pytest.approx(LN2, abs=1e-12)


def test_partition_uniform_two_by_two():
    assert chain_crf.log_partition(zeros_lattice(2, 2)) == pytest.approx(LN4, abs=1e-12)


def test_partition_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n, L = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        lat = rand_lattice(rng, n, L)
        ref = oracle.log_partition(oracle.enumerate_chain(lat))
        assert chain_crf.log_partition(lat) == pytest.approx(ref, abs=1e-9)


def test_uniform_pairwise_marginals():
    marg = chain_crf.pairwise_marginals(zeros_lattice(3, 2))
    np.testing.assert_allclose(marg.pairwise, 0.25, atol=1e-12)
    np.testing.assert_allclose(marg.unary, 0.5, atol=1e-12)


def test_forbidden_transition_zero_marginal():
    lat = rand_lattice(np.random.default_rng(1), 4, 3)
    lat.transitions[2, 1, 2] = -np.inf
    marg = chain_crf.pairwise_marginals(lat)
    assert marg.pairwise[2, 1, 2] == 0.0


def test_marginals_match_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n, L = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        lat = rand_lattice(rng, n, L)
        e = oracle.enumerate_chain(lat)
        ref_pair, ref_unary = oracle.chain_marginals(e, L)
        marg = chain_crf.pairwise_marginals(lat)
        np.testing.assert_allclose(marg.pairwise, ref_pair, atol=1e-9)
        np.testing.assert_allclose(marg.unary, ref_unary, atol=1e-9)
        np.testing.assert_allclose(chain_crf.unary_marginals(lat), ref_unary, atol=1e-9)


def test_single_position_unary_is_softmax():
    lat = ChainLattice(
        np.array([[1.0, -0.5, 2.0]]), np.zeros((0, 3, 3)), np.array([0.3, 0.0, -1.0]),
        np.array([0.0, 0.5, 0.2]),
    )
    logits = lat.emissions[0] + lat.start + lat.stop
    expect = np.exp(logits - np.logaddexp.reduce(logits))
    np.testing.assert_allclose(chain_crf.unary_marginals(lat)[0], expect, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_marginal_consistency_property(seed):
    rng = np.random.default_rng(seed)
    n, L = int(rng.integers(2, 9)), int(rng.integers(2, 6))
    marg = chain_crf.pairwise_marginals(rand_lattice(rng, n, L))
    np.testing.assert_allclose(marg.pairwise.sum(axis=(1, 2)), 1.0, atol=1e-9)
    np.testing.assert_allclose(marg.unary.sum(axis=1), 1.0, atol=1e-9)
    np.testing.assert_allclose(marg.pairwise.sum(axis=2), marg.unary[:-1], atol=1e-9)
    np.testing.assert_allclose(marg.pairwise.sum(axis=1), marg.unary[1:], atol=1e-9)


def _batch_lattices(seed, lengths, bioes):
    """Random lattices of the given lengths; with `bioes`, over a one-type
    BIOES label set (L = 5) with its -inf transition/start/stop masks,
    otherwise over L = 3 with a few random -inf transitions."""
    rng = np.random.default_rng(seed)
    if bioes:
        trans, start, stop = bioes_masks(BioesCodec(LabelAlphabet("t", ["PER"]).freeze()))
    lats = []
    for n in lengths:
        if bioes:
            lat = rand_lattice(rng, n, 5)
            lat.transitions += trans
            lat.start += start
            lat.stop += stop
        else:
            lat = rand_lattice(rng, n, 3)
            lat.transitions[rng.random(lat.transitions.shape) < 0.15] = -np.inf
        lats.append(lat)
    return lats


@given(
    seed=st.integers(0, 2**31 - 1),
    lengths=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    bioes=st.booleans(),
)
@example(seed=0, lengths=[1, 1, 1], bioes=False)
@example(seed=1, lengths=[1, 1], bioes=True)
@example(seed=2, lengths=[1, 8, 3, 1], bioes=True)
@settings(max_examples=30, deadline=None)
def test_batched_forward_backward_matches_single_and_enumeration(seed, lengths, bioes):
    lats = _batch_lattices(seed, lengths, bioes)
    log_z, margs = chain_crf.forward_backward(lats)
    assert log_z.shape == (len(lats),)
    for lat, z, marg in zip(lats, log_z, margs):
        n, L = lat.emissions.shape
        assert marg.unary.shape == (n, L) and marg.pairwise.shape == (n - 1, L, L)
        single = chain_crf.pairwise_marginals(lat)
        assert abs(z - chain_crf.log_partition(lat)) <= 1e-9
        np.testing.assert_allclose(marg.unary, single.unary, rtol=0, atol=1e-9)
        np.testing.assert_allclose(marg.pairwise, single.pairwise, rtol=0, atol=1e-9)
        if L**n <= 2187:
            e = oracle.enumerate_chain(lat)
            ref_pair, ref_unary = oracle.chain_marginals(e, L)
            assert abs(z - oracle.log_partition(e)) <= 1e-9
            np.testing.assert_allclose(marg.unary, ref_unary, rtol=0, atol=1e-9)
            if n > 1:
                np.testing.assert_allclose(marg.pairwise, ref_pair, rtol=0, atol=1e-9)
        # forbidden substructures keep exactly zero mass
        assert np.all(marg.pairwise[np.isneginf(lat.transitions)] == 0.0)
        assert np.all(marg.unary[0][np.isneginf(lat.start)] == 0.0)
        assert np.all(marg.unary[-1][np.isneginf(lat.stop)] == 0.0)


def test_emission_shift_moves_partition_not_marginals():
    rng = np.random.default_rng(3)
    lat = rand_lattice(rng, 5, 3)
    base_z = chain_crf.log_partition(lat)
    base_m = chain_crf.pairwise_marginals(lat)
    lat.emissions[2] += 1.7
    assert chain_crf.log_partition(lat) == pytest.approx(base_z + 1.7, abs=1e-9)
    m = chain_crf.pairwise_marginals(lat)
    np.testing.assert_allclose(m.pairwise, base_m.pairwise, atol=1e-9)
    np.testing.assert_allclose(m.unary, base_m.unary, atol=1e-9)


# ---------------------------------------------------------------------------
# Viterbi


def test_viterbi_peaked_emissions():
    lat = zeros_lattice(3, 3)
    lat.emissions[0, 2] = 5.0
    lat.emissions[1, 0] = 5.0
    lat.emissions[2, 1] = 5.0
    assert chain_crf.viterbi(lat).tags == (2, 0, 1)


def test_viterbi_all_ties_take_lowest_ids():
    assert chain_crf.viterbi(zeros_lattice(4, 3)).tags == (0, 0, 0, 0)


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        lat = rand_lattice(rng, n, L)
        assert chain_crf.viterbi(lat).tags == oracle.chain_mode(oracle.enumerate_chain(lat))


# ---------------------------------------------------------------------------
# NLL


def test_uniform_nll_is_n_log_l():
    loss, _ = chain_crf.lattice_objective(zeros_lattice(4, 3), TagSequence((0, 1, 2, 0)), None, 0.0)
    assert loss == pytest.approx(4 * np.log(3), abs=1e-12)


def test_peaked_model_nll_vanishes():
    lat = zeros_lattice(3, 2)
    gold = TagSequence((1, 0, 1))
    for i, t in enumerate(gold.tags):
        lat.emissions[i, t] = 60.0
    loss, _ = chain_crf.lattice_objective(lat, gold, None, 0.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    lat = rand_lattice(rng, 4, 3)
    gold = TagSequence((2, 0, 1, 1))
    loss, g = chain_crf.lattice_objective(lat, gold, None, 0.0)
    eps = 1e-5
    for arr, garr in (
        (lat.emissions, g.emissions),
        (lat.transitions, g.transitions),
        (lat.start, g.start),
        (lat.stop, g.stop),
    ):
        flat = arr.ravel()
        for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up, _ = chain_crf.lattice_objective(lat, gold, None, 0.0)
            flat[idx] = orig - eps
            down, _ = chain_crf.lattice_objective(lat, gold, None, 0.0)
            flat[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - garr.ravel()[idx]) <= 1e-4 * max(1.0, abs(fd))


def test_invalid_gold_rejected():
    with pytest.raises(ValueError):
        chain_crf.lattice_objective(zeros_lattice(2, 2), TagSequence((0, 5)), None, 0.0)
    with pytest.raises(ValueError):
        chain_crf.lattice_objective(zeros_lattice(2, 2), TagSequence((0,)), None, 0.0)


# ---------------------------------------------------------------------------
# Posterior sampling


def test_sampling_respects_hard_constraints():
    lat = zeros_lattice(3, 2)
    lat.transitions[:, 0, 1] = -np.inf  # 0 can never precede 1
    rng = np.random.default_rng(0)
    for _ in range(200):
        tags = chain_crf.sample_tags(lat, rng)
        assert not any(tags[i] == 0 and tags[i + 1] == 1 for i in range(2))


# ---------------------------------------------------------------------------
# BIOES masks and the hashed tagger


def test_bioes_masks_forbid_invalid_pairs():
    codec = BioesCodec(LabelAlphabet("entity-types", ["PER"]).freeze())
    trans, start, stop = bioes_masks(codec)
    b, i, e, s = (codec.tag_id(p, 0) for p in "BIES")
    o = codec.o_id
    assert trans[b, i] == 0.0 and trans[b, e] == 0.0
    assert trans[b, o] == -np.inf and trans[o, i] == -np.inf and trans[e, e] == -np.inf
    assert start[i] == -np.inf and stop[b] == -np.inf
    assert start[b] == 0.0 and stop[e] == 0.0


def test_masked_tagger_only_produces_valid_sequences():
    codec = BioesCodec(LabelAlphabet("entity-types", ["PER", "LOC"]).freeze())
    model = ChainCrfTagger(codec.tags, bits=10, constrain_bioes=True)
    rng = np.random.default_rng(6)
    model.params["weights"][:] = rng.normal(size=model.params["weights"].shape)
    model.params["trans"] = rng.normal(size=model.params["trans"].shape)
    for k in range(20):
        tokens = [f"t{k}{i}" for i in range(5)]
        tags = model.decode(model.prepare(tokens))
        spans = codec.bioes_to_spans(tags)
        assert codec.spans_to_bioes(spans, 5).tags == tags.tags  # decode was repair-free


def test_tagger_serialization_round_trip():
    alpha = LabelAlphabet("ner-tags", ["O", "B-X", "E-X"]).freeze()
    model = ChainCrfTagger(alpha, bits=10)
    rng = np.random.default_rng(7)
    model.params["weights"][:] = rng.normal(size=model.params["weights"].shape)
    model.params["trans"] = rng.normal(size=model.params["trans"].shape)
    clone = ChainCrfTagger.from_payload(model.to_payload())
    tokens = ["a", "bb", "ccc"]
    np.testing.assert_allclose(
        clone.lattice(clone.prepare(tokens)).emissions,
        model.lattice(model.prepare(tokens)).emissions,
    )
    assert clone.decode(clone.prepare(tokens)).tags == model.decode(model.prepare(tokens)).tags
