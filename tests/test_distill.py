import numpy as np
import pytest

from factorkd import chain_crf, oracle, span_ner
from factorkd.chain_crf import ChainLattice, lattice_objective
from factorkd.corpus import SentenceRecord, TagSequence
from factorkd.distill import (
    AnnealConfig,
    TemperatureConfig,
    apply_temperature,
    lambda_schedule,
    pseudo_label,
    teacher_marginal_table,
    teacher_marginal_tables,
    temper_rows,
)
from factorkd.numerics import rows_objective, softmax_last
from factorkd.token_maxent import TokenDistributions, pair_marginals_from_tokens
from factorkd.verify import (
    kd_identity_case,
    rand_lattice,
    rand_model,
    rand_span_table,
    rand_tokens,
)

LN2 = 0.6931471805599453


# ---------------------------------------------------------------------------
# Factorized losses


def test_kd_local_at_teacher_equals_entropy():
    rng = np.random.default_rng(0)
    logits = rng.uniform(-2, 2, (4, 3))
    rows = softmax_last(logits)
    loss, grad = rows_objective([(logits, None, TokenDistributions(rows).rows)], 1.0)
    entropy = -(rows * np.log(rows)).sum()
    assert loss == pytest.approx(entropy, abs=1e-12)
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_kd_local_uniform_is_n_log_l():
    n, L = 5, 4
    rows = np.full((n, L), 1 / L)
    loss, _ = rows_objective([(np.zeros((n, L)), None, TokenDistributions(rows).rows)], 1.0)
    assert loss == pytest.approx(n * np.log(L), abs=1e-12)


def test_kd_local_shape_mismatch():
    with pytest.raises(ValueError):
        rows = TokenDistributions(np.full((2, 2), 0.5)).rows
        rows_objective([(np.zeros((3, 2)), None, rows)], 1.0)


def test_kd_local_matches_enumerated_cross_entropy():
    rng = np.random.default_rng(1)
    for case in ("2a", "1b", "2b", "4"):
        for _ in range(25):
            loss, ce = kd_identity_case(case, rng)
            assert loss == pytest.approx(ce, abs=1e-9)


def test_kd_global_uniform_single_position():
    lat = ChainLattice(np.zeros((1, 2)), np.zeros((0, 2, 2)), np.zeros(2), np.zeros(2))
    table = chain_crf.ChainMarginals(np.zeros((0, 2, 2)), np.array([[0.7, 0.3]]))
    loss, _ = lattice_objective(lat, None, table, 1.0)
    assert loss == pytest.approx(LN2, abs=1e-12)


def test_kd_global_self_distillation_stationary():
    lat = rand_lattice(np.random.default_rng(2), 5, 3)
    table = chain_crf.pairwise_marginals(lat)
    loss, g = lattice_objective(lat, None, table, 1.0)
    for arr in (g.emissions, g.transitions, g.start, g.stop):
        np.testing.assert_allclose(arr, 0.0, atol=1e-9)
    assert loss == pytest.approx(oracle.entropy(oracle.enumerate_chain(lat)), abs=1e-7)


def test_kd_global_matches_enumerated_cross_entropy():
    rng = np.random.default_rng(3)
    for case in ("1a", "3"):
        for _ in range(25):
            loss, ce = kd_identity_case(case, rng)
            assert loss == pytest.approx(ce, abs=1e-9)


def test_kd_global_gibbs_inequality():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n, L = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        t_lat, s_lat = rand_lattice(rng, n, L), rand_lattice(rng, n, L)
        table = chain_crf.pairwise_marginals(t_lat)
        loss, _ = lattice_objective(s_lat, None, table, 1.0)
        self_loss, _ = lattice_objective(t_lat, None, table, 1.0)
        assert loss >= self_loss - 1e-7


def test_kd_global_shape_mismatch():
    lat = rand_lattice(np.random.default_rng(5), 3, 2)
    table = chain_crf.pairwise_marginals(rand_lattice(np.random.default_rng(5), 4, 2))
    with pytest.raises(ValueError):
        lattice_objective(lat, None, table, 1.0)


# ---------------------------------------------------------------------------
# Temperature semantics


def _chain_teacher(seed=0):
    rng = np.random.default_rng(seed)
    return rand_model("ner-crf", rng, n_labels=3, bits=10), rand_tokens(rng, 5)


def test_temperature_one_is_identity_both_modes():
    teacher, tokens = _chain_teacher()
    plain = chain_crf.pairwise_marginals(teacher.lattice(teacher.prepare(tokens)))
    for mode in ("local", "global"):
        t = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(1.0, mode))
        np.testing.assert_allclose(t.pairwise, plain.pairwise, atol=1e-12)
        np.testing.assert_allclose(t.unary, plain.unary, atol=1e-12)


def test_local_and_global_differ_on_chain_teacher():
    teacher, tokens = _chain_teacher()
    loc = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(2.0, "local"))
    glo = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(2.0, "global"))
    assert np.abs(loc.pairwise - glo.pairwise).max() > 1e-6


def test_local_high_temperature_tends_uniform():
    teacher, tokens = _chain_teacher()
    hot = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(1e6, "local"))
    L = hot.unary.shape[1]
    np.testing.assert_allclose(hot.unary, 1 / L, atol=1e-4)
    np.testing.assert_allclose(hot.pairwise, 1 / L**2, atol=1e-4)


def test_local_temperature_preserves_argmax():
    teacher, tokens = _chain_teacher()
    plain = chain_crf.pairwise_marginals(teacher.lattice(teacher.prepare(tokens)))
    for t in (1.0, 2.0, 3.0, 4.0, 5.0):
        loc = teacher_marginal_table("1a", teacher, tokens, TemperatureConfig(t, "local"))
        np.testing.assert_array_equal(
            loc.unary.argmax(axis=1), plain.unary.argmax(axis=1)
        )


def test_local_temperature_keeps_exact_zeros():
    table = rand_span_table(np.random.default_rng(7), 4, 2)
    rows = span_ner.bioes_marginals(table)
    hot = apply_temperature(rows, 3.0)
    assert (rows.rows == 0.0).sum() > 0
    np.testing.assert_array_equal(hot.rows == 0.0, rows.rows == 0.0)


@pytest.mark.parametrize("case", ["1a", "3"])
@pytest.mark.parametrize("mode", ["local", "global"])
def test_one_token_sentence_chain_tables_at_every_temperature(case, mode):
    rng = np.random.default_rng(23)
    teacher = rand_model("ner-crf" if case == "1a" else "ner-maxent", rng, n_labels=3, bits=10)
    tokens = rand_tokens(rng, 1)
    plain = teacher_marginal_table(case, teacher, tokens, TemperatureConfig(1.0, mode))
    for t in (1.0, 2.0, 4.0):
        table = teacher_marginal_table(case, teacher, tokens, TemperatureConfig(t, mode))
        assert table.pairwise.shape == (0, 3, 3)
        np.testing.assert_allclose(table.unary.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(
            table.unary.argmax(axis=1), plain.unary.argmax(axis=1)
        )


def test_temper_rows_of_an_empty_block_is_unchanged():
    empty = np.zeros((0, 9))
    for t in (1.0, 2.0):
        out = temper_rows(empty, t)
        assert out.shape == (0, 9) and out is not empty


def test_apply_temperature_validation():
    rows = TokenDistributions(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        apply_temperature(rows, -1.0)


def test_temperature_config_validation():
    with pytest.raises(ValueError):
        TemperatureConfig(0.0, "local")
    with pytest.raises(ValueError):
        TemperatureConfig(1.0, "both")


# ---------------------------------------------------------------------------
# Teacher tables per case


def test_case_table_types_and_mismatch():
    rng = np.random.default_rng(8)
    tokens = rand_tokens(rng, 4)
    crf = rand_model("ner-crf", rng)
    maxent = rand_model("ner-maxent", rng)
    temp = TemperatureConfig(1.0, "local")
    assert isinstance(teacher_marginal_table("1a", crf, tokens, temp), chain_crf.ChainMarginals)
    assert isinstance(teacher_marginal_table("2a", crf, tokens, temp), TokenDistributions)
    assert isinstance(
        teacher_marginal_table("3", maxent, tokens, temp), chain_crf.ChainMarginals
    )
    with pytest.raises(ValueError):
        teacher_marginal_table("1a", maxent, tokens, temp)
    with pytest.raises(ValueError):
        teacher_marginal_table("4", crf, tokens, temp)


def test_case1a_zero_score_teacher_gives_uniform_table():
    rng = np.random.default_rng(17)
    teacher = rand_model("ner-crf", rng, n_labels=3, bits=10)
    teacher.params["weights"].fill(0.0)
    teacher.params["bias"].fill(0.0)
    teacher.params["trans"][:] = 0.0
    teacher.params["start"][:] = 0.0
    teacher.params["stop"][:] = 0.0
    table = teacher_marginal_table(
        "1a", teacher, rand_tokens(rng, 4), TemperatureConfig(1.0, "local")
    )
    np.testing.assert_allclose(table.pairwise, 1 / 9, atol=1e-12)
    np.testing.assert_allclose(table.unary, 1 / 3, atol=1e-12)


def test_case3_one_hot_rows_give_one_hot_pairs():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    table = pair_marginals_from_tokens(TokenDistributions(rows))
    assert table.pairwise[0, 0, 1] == 1.0
    assert table.pairwise[1, 1, 1] == 1.0


def test_case4_uniform_table_matches_hand_enumeration():
    rng = np.random.default_rng(9)
    teacher = rand_model("ner-span", rng, n_labels=1, bits=10)
    teacher.params["weights"][:] = 0.0
    teacher.params["bias"][:] = 0.0
    rows = teacher_marginal_table(
        "4", teacher, ["a", "b"], TemperatureConfig(1.0, "local")
    ).rows
    np.testing.assert_allclose(rows[0], [0.4, 0.2, 0.0, 0.0, 0.4], atol=1e-12)


@pytest.mark.parametrize(
    "case, family, temp",
    [
        ("4", "ner-span", TemperatureConfig(1.0, "local")),
        ("4", "ner-span", TemperatureConfig(2.0, "local")),
        ("4", "ner-span", TemperatureConfig(3.0, "global")),
        ("2a", "ner-crf", TemperatureConfig(2.0, "local")),
    ],
)
def test_corpus_tables_equal_the_one_sentence_tables(case, family, temp):
    rng = np.random.default_rng(21)
    teacher = rand_model(family, rng, n_labels=2, bits=10)
    token_lists = [rand_tokens(rng, n) for n in (3, 1, 7, 3, 5, 7, 1, 8)]
    got = teacher_marginal_tables(case, teacher, token_lists, temp)
    assert len(got) == len(token_lists)
    for tokens, table in zip(token_lists, got):
        want = teacher_marginal_table(case, teacher, tokens, temp)
        assert type(table) is type(want)
        np.testing.assert_array_equal(table.rows, want.rows)
    with pytest.raises(ValueError):
        teacher_marginal_tables(case, rand_model("dep-1st", rng, bits=10), token_lists, temp)


# ---------------------------------------------------------------------------
# Annealing schedule


def test_lambda_at_step_zero():
    assert lambda_schedule(0, AnnealConfig(1.0, 100)) == 1.0


def test_lambda_full_rate_reaches_zero():
    assert lambda_schedule(100, AnnealConfig(1.0, 100)) == 0.0


def test_lambda_half_rate_ends_at_half():
    assert lambda_schedule(100, AnnealConfig(0.5, 100)) == pytest.approx(0.5)


def test_lambda_clamped():
    assert lambda_schedule(500, AnnealConfig(1.5, 100)) == 0.0
    with pytest.raises(ValueError):
        lambda_schedule(-1, AnnealConfig(1.0, 100))
    with pytest.raises(ValueError):
        AnnealConfig(0.0, 100)


# ---------------------------------------------------------------------------
# Pseudo-labeling


def test_pseudo_label_chain_matches_enumeration():
    rng = np.random.default_rng(13)
    teacher = rand_model("ner-crf", rng, n_labels=3, bits=10)
    tokens = rand_tokens(rng, 4)
    rec = pseudo_label(teacher, SentenceRecord(tokens))
    assert rec.provenance == "pseudo-labeled"
    e = oracle.enumerate_chain(teacher.lattice(teacher.prepare(tokens)))
    assert rec.gold.tags == oracle.chain_mode(e)


def test_pseudo_label_deterministic():
    rng = np.random.default_rng(14)
    teacher = rand_model("dep-1st", rng)
    tokens = rand_tokens(rng, 4)
    a = pseudo_label(teacher, SentenceRecord(tokens))
    b = pseudo_label(teacher, SentenceRecord(tokens))
    assert a.gold == b.gold


def test_pseudo_label_span_teacher_emits_bioes_tags():
    rng = np.random.default_rng(15)
    teacher = rand_model("ner-span", rng, n_labels=2, bits=10)
    rec = pseudo_label(teacher, SentenceRecord(rand_tokens(rng, 5)))
    assert isinstance(rec.gold, TagSequence)
    assert len(rec.gold) == 5
    # tags decode back to the very span set the teacher chose
    spans = span_ner.decode_spans(teacher.score_table(teacher.prepare(rec.tokens)))
    assert teacher.codec.bioes_to_spans(rec.gold).spans == spans.spans


def test_pseudo_label_peaked_teacher():
    rng = np.random.default_rng(16)
    teacher = rand_model("ner-maxent", rng, n_labels=2, bits=10)
    tokens = rand_tokens(rng, 3)
    prep = teacher.prepare(tokens)
    expected = tuple(int(t) for t in teacher.logits(prep).argmax(axis=1))
    assert pseudo_label(teacher, SentenceRecord(tokens)).gold.tags == expected
