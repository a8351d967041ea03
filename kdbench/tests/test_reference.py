"""Hand-checked cases for the benchmark's reference computations."""

import math

import numpy as np
import pytest

from kdbench import reference

NEG_INF = float("-inf")


def test_temper_squares_ratios_at_t2_and_keeps_zeros():
    np.testing.assert_allclose(reference.temper([0.8, 0.2, 0.0], 2.0), [2 / 3, 1 / 3, 0.0])
    np.testing.assert_allclose(reference.temper([[0.25, 0.75]], 1.0), [[0.25, 0.75]])


def test_temper_slices_treats_each_pair_slice_as_one_distribution():
    pair = np.array([[[0.64, 0.16], [0.16, 0.04]]])
    np.testing.assert_allclose(reference.temper_slices(pair, 2.0), [[[4 / 9, 2 / 9], [2 / 9, 1 / 9]]])


def test_chain_marginals_of_a_single_position():
    pair, unary = reference.chain_marginals(np.zeros((1, 2)), np.zeros((0, 2, 2)), np.array([0.0, math.log(3)]), np.zeros(2))
    assert pair.shape == (0, 2, 2)
    np.testing.assert_allclose(unary, [[0.25, 0.75]])


def test_chain_marginals_with_a_forbidden_transition():
    # of the four sequences of two binary labels, (0, 1) is forbidden
    tr = np.zeros((1, 2, 2))
    tr[0, 0, 1] = NEG_INF
    pair, unary = reference.chain_marginals(np.zeros((2, 2)), tr, np.zeros(2), np.zeros(2))
    np.testing.assert_allclose(pair, [[[1 / 3, 0.0], [1 / 3, 1 / 3]]])
    np.testing.assert_allclose(unary, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]])


def test_chain_argmax_picks_the_best_sequence():
    em = np.array([[0.0, 1.0], [0.0, 1.0]])
    tr = np.array([[[0.0, 0.0], [0.0, -5.0]]])
    assert reference.chain_argmax(em, tr, np.zeros(2), np.zeros(2)) in {(0, 1), (1, 0)}
    assert reference.chain_argmax(em, tr, np.array([0.0, 0.5]), np.zeros(2)) == (1, 0)


def test_span_sets_of_one_and_two_positions():
    assert sorted(reference.span_sets(1, 2)) == [(), ((0, 0, 0),), ((0, 0, 1),)]
    assert sorted(reference.span_sets(2, 1)) == [
        (), ((0, 0, 0),), ((0, 0, 0), (1, 1, 0)), ((0, 1, 0),), ((1, 1, 0),),
    ]


def test_counts_agree_with_enumeration_and_with_each_other():
    assert [reference.count_span_sets(n, 2) for n in (1, 2, 3)] == [3, 11, 41]
    assert [reference.count_valid_bioes(n, 2) for n in (1, 2, 3)] == [3, 11, 41]
    for n in range(1, 6):
        for types in (1, 2):
            assert reference.count_span_sets(n, types) == len(reference.span_sets(n, types))
            # valid BIOES sequences and span sets are in bijection
            assert reference.count_valid_bioes(n, types) == reference.count_span_sets(n, types)


def test_span_set_tags_use_the_bioes_layout():
    assert reference.span_set_tags(((0, 2, 1), (3, 3, 0)), 5) == [5, 6, 7, 4, 0]


def test_span_bioes_rows_with_zero_scores_two_positions():
    # five equally likely sets: {}, {(0,0)}, {(1,1)}, {(0,0),(1,1)}, {(0,1)}
    rows = reference.span_bioes_rows(np.zeros((2, 2, 1)))
    np.testing.assert_allclose(rows, [[0.4, 0.2, 0.0, 0.0, 0.4], [0.4, 0.0, 0.0, 0.2, 0.4]])


def test_best_span_set_is_one_based():
    scores = np.full((3, 3, 2), -1.0)
    scores[1, 2, 1] = 2.0
    assert reference.best_span_set(scores) == frozenset({(2, 3, 1)})


def test_mean_field_one_update_by_hand():
    arc = np.zeros((2, 3))
    arc[0, 1] = arc[1, 2] = NEG_INF  # a token never heads itself
    np.testing.assert_allclose(reference.mean_field_head_rows(arc, np.zeros((2, 2, 3)), 0),
                               [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    # both tokens attaching to the root earns s; one update gives the root
    # logit s * 0.5 = log 3 against 0
    sib = np.zeros((2, 2, 3))
    sib[0, 1, 0] = sib[1, 0, 0] = 2 * math.log(3)
    np.testing.assert_allclose(reference.mean_field_head_rows(arc, sib, 1),
                               [[0.75, 0.0, 0.25], [0.75, 0.25, 0.0]])


def test_zero_parameter_losses():
    assert reference.zero_loss_tokens(3, 9) == pytest.approx(3 * math.log(9))
    assert reference.zero_loss_constrained_chain(2, 2) == pytest.approx(math.log(11))
    assert reference.zero_loss_spans(3, 2) == pytest.approx(math.log(41))
    assert reference.zero_loss_heads(2, 3) == pytest.approx(2 * (math.log(2) + math.log(3)))


@pytest.mark.parametrize(
    "tags, spans",
    [
        (["B-PER", "E-PER"], {(1, 2, "PER")}),
        (["B-PER", "I-PER", "I-PER", "E-PER"], {(1, 4, "PER")}),
        (["B-PER", "I-LOC", "E-LOC"], set()),
        (["I-PER", "E-PER"], set()),
        (["B-PER", "O", "E-PER"], set()),
        (["B-PER", "B-LOC", "E-LOC"], {(2, 3, "LOC")}),
        (["B-PER", "S-LOC", "E-PER"], {(2, 2, "LOC")}),
        (["S-LOC", "O", "B-PER", "E-LOC"], {(1, 1, "LOC")}),
    ],
)
def test_bioes_spans_follows_the_repair_rule(tags, spans):
    assert reference.bioes_spans(tags) == frozenset(spans)


def test_micro_f1():
    pred = [{(1, 2, "a"), (4, 4, "b")}]
    gold = [{(1, 2, "a"), (3, 3, "a")}]
    assert reference.micro_f1(pred, gold) == 0.5
    assert reference.micro_f1([set()], [{(1, 1, "a")}]) == 0.0


def test_conllu_reader_and_attachment_scores(tmp_path):
    path = tmp_path / "x.conllu"
    path.write_text(
        "# comment\n"
        "1-2\tab\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\ta\t_\t_\t_\t_\t2\tr1\t_\t_\n"
        "2\tb\t_\t_\t_\t_\t0\tr0\t_\t_\n"
        "\n"
        "1\tc\t_\t_\t_\t_\t0\tr0\t_\t_\n",
        encoding="utf-8",
    )
    gold = reference.read_conllu_arcs(path)
    assert gold == [(("a", "b"), (2, 0), ("r1", "r0")), (("c",), (0,), ("r0",))]
    pred = [((2, 0), ("r0", "r0")), ((1,), ("r0",))]
    assert reference.attachment_scores(pred, [g[1:] for g in gold]) == (2 / 3, 1 / 3)
