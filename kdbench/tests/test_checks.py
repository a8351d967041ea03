"""Every output check passes on a correct table or loss and fails on a
perturbed one, both alone and wired into each workload's `check`."""

import copy
import json
import math

import numpy as np
import pytest

from kdbench import checks, reference, workloads


def _chain_table(seed=0, n=3, labels=3):
    rng = np.random.default_rng(seed)
    return reference.chain_marginals(
        rng.normal(size=(n, labels)), rng.normal(size=(n - 1, labels, labels)),
        rng.normal(size=labels), rng.normal(size=labels),
    )


def _fails(check, *args):
    with pytest.raises(checks.CheckFailed):
        check(*args)


def test_rows_sum_to_one():
    _, unary = _chain_table()
    checks.rows_sum_to_one(unary, "t")
    bad = unary.copy()
    bad[1, 0] += 1e-7
    _fails(checks.rows_sum_to_one, bad, "t")
    bad[1, 0] = np.nan
    _fails(checks.rows_sum_to_one, bad, "t")


def test_pair_slices_sum_to_one_and_marginalise():
    pair, unary = _chain_table()
    checks.pair_slices_sum_to_one(pair, "t")
    checks.pairs_marginalise(pair, unary, "t")
    bad = pair.copy()
    bad[0, 1, 2] += 1e-7
    _fails(checks.pair_slices_sum_to_one, bad, "t")
    _fails(checks.pairs_marginalise, bad, unary, "t")
    # moving mass inside a slice keeps its sum but not its marginals
    moved = pair.copy()
    moved[1, 0, 0] += 1e-6
    moved[1, 1, 1] -= 1e-6
    checks.pair_slices_sum_to_one(moved, "t")
    _fails(checks.pairs_marginalise, moved, unary, "t")


def test_self_column_zero():
    rng = np.random.default_rng(1)
    arc = rng.normal(size=(3, 4))
    rows = reference.mean_field_head_rows(arc, rng.normal(size=(3, 3, 4)), 2)
    checks.self_column_zero(rows, "t")
    bad = rows.copy()
    bad[2, 3] = 1e-300
    _fails(checks.self_column_zero, bad, "t")


def test_bioes_boundary_zeros():
    rows = reference.span_bioes_rows(np.random.default_rng(2).normal(size=(4, 4, 2)))
    checks.bioes_boundary_zeros(rows, 2, "t")
    for position, column in ((3, 1), (0, 2), (3, 6), (0, 7)):
        bad = rows.copy()
        bad[position, column] = 1e-300
        _fails(checks.bioes_boundary_zeros, bad, 2, "t")


def test_tables_match():
    _, unary = _chain_table()
    checks.tables_match(unary, unary + 5e-10, "t")
    _fails(checks.tables_match, unary, unary + 2e-9, "t")
    _fails(checks.tables_match, unary, unary[:2], "t")


def test_loss_below_zero_model():
    checks.loss_below_zero_model([{"train_loss": 9.0}, {"train_loss": 1.5}], 2.0, "t")
    for last in (2.0, 2.5, -0.1, math.nan, math.inf):
        _fails(checks.loss_below_zero_model, [{"train_loss": 1.0}, {"train_loss": last}], 2.0, "t")
    _fails(checks.loss_below_zero_model, [], 2.0, "t")


def test_f1_matches():
    checks.f1_matches(0.5, 0.5, "t")
    _fails(checks.f1_matches, 0.5, 0.5 + 1e-9, "t")
    _fails(checks.f1_matches, 0.0, 0.0, "t")


def test_attachment_matches():
    checks.attachment_matches({"las": 33.3333, "uas": 66.6667}, 2 / 3, 1 / 3, "t")
    _fails(checks.attachment_matches, {"las": 33.3333, "uas": 66.6668}, 2 / 3, 1 / 3, "t")
    _fails(checks.attachment_matches, {"uas": 66.6667}, 2 / 3, 1 / 3, "t")


# ---------------------------------------------------------------------------
# The checks as the workloads run them, on small inputs


class SmallChainGrid(workloads.ChainGrid):
    TEMPERATURES = (1.0, 2.0)
    RATES = (1.0,)
    SEEDS = (1,)
    SIZES = {"teacher_train": 150, "train": 100, "dev": 60, "test": 40, "unlabeled": 30}


class SmallSpanBioes(workloads.SpanBioes):
    RATES = (1.0,)
    SEEDS = (1,)
    SIZES = {"teacher_train": 150, "train": 100, "dev": 60, "test": 40}


class SmallDepCli(workloads.DepCli):
    SIZES = {"train": 40, "dev": 20, "test": 20}


def _first_round(cls, tmp_path):
    w = cls(3, str(tmp_path / "work"))
    w.setup()
    r = workloads.Round()
    w.run_round(r)
    assert r.failed == 0 and r.attempted > 0
    return w, r.out


def _failures(w, out):
    v = workloads.Verdict()
    w.check(out, v)
    return v.failures


@pytest.fixture(scope="module")
def chain_round(tmp_path_factory):
    return _first_round(SmallChainGrid, tmp_path_factory.mktemp("chain"))


@pytest.fixture(scope="module")
def span_round(tmp_path_factory):
    return _first_round(SmallSpanBioes, tmp_path_factory.mktemp("span"))


def test_chain_grid_checks_pass_then_catch_perturbations(chain_round):
    w, out = chain_round
    assert _failures(w, out) == []

    bad = copy.deepcopy(out)
    bad["table-1a"][0].unary[0, 0] += 1e-6
    assert any("1a" in f for f in _failures(w, bad))

    bad = copy.deepcopy(out)
    bad["table-3"][1].pairwise[0, 0, 0] += 1e-6
    assert any("3 table" in f for f in _failures(w, bad))

    bad = copy.deepcopy(out)
    bad["student-1a"][1].history[-1]["train_loss"] = 1e3
    assert any("student-1a" in f and "loss" in f for f in _failures(w, bad))

    bad = copy.deepcopy(out)
    bad["baseline"][1].dev_metrics["f1"] += 1e-3
    assert any("baseline dev" in f for f in _failures(w, bad))

    bad = copy.deepcopy(out)
    bad["grid-2a"].rows[0]["devs"][0] += 1e-3
    assert any("grid cell" in f for f in _failures(w, bad))


def test_span_bioes_checks_pass_then_catch_perturbations(span_round):
    w, out = span_round
    assert _failures(w, out) == []

    bad = copy.deepcopy(out)
    bad["teacher"][1].history[-1]["train_loss"] = math.nan
    assert any("span teacher" in f for f in _failures(w, bad))

    bad = copy.deepcopy(out)
    bad["eval-teacher"][1]["f1"] += 1e-3
    assert any("eval-teacher" in f for f in _failures(w, bad))

    bad = copy.deepcopy(out)
    bad["grid-4"].rows[0]["devs"][0] += 1e-3
    assert any("grid cell" in f for f in _failures(w, bad))


def test_dep_cli_checks_pass_then_catch_perturbations(tmp_path):
    w, out = _first_round(SmallDepCli, tmp_path)
    assert _failures(w, out) == []

    bad = dict(out)
    printed = json.loads(out["eval"])
    printed["las"] += 0.01
    bad["eval"] = json.dumps(printed)
    assert any("eval --json" in f for f in _failures(w, bad))

    manifest_path = tmp_path / "work" / "student.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["history"][-1]["train_loss"] = 1e3
    manifest_path.write_text(json.dumps(manifest))
    assert any("dep student" in f for f in _failures(w, out))
    w.cleanup()
