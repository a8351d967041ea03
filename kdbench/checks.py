"""Output checks of the benchmark's workloads.

Each check raises CheckFailed with a message naming what was wrong; the
workloads collect the messages and the run reports `correct: false` when
there is any.  Tolerances follow the program's own contract: 1e-9 for
marginals and identities.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
# Reported and recomputed metrics come from the same integer counts, so they
# agree up to the rounding of a different but equivalent formula.
METRIC_TOL = 1e-12


class CheckFailed(Exception):
    pass


def expect(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def rows_sum_to_one(rows, what: str):
    rows = np.asarray(rows, dtype=np.float64)
    flat = rows.reshape(-1, rows.shape[-1]) if rows.ndim > 1 else rows[None, :]
    expect(np.all(np.isfinite(flat)), f"{what}: non-finite entries")
    expect(np.all(flat >= 0.0), f"{what}: negative entries")
    worst = float(np.max(np.abs(flat.sum(axis=-1) - 1.0))) if flat.size else 0.0
    expect(worst <= TOL, f"{what}: a row sums to 1 {worst:+.2e} off")


def pair_slices_sum_to_one(pairwise, what: str):
    pairwise = np.asarray(pairwise, dtype=np.float64)
    rows_sum_to_one(pairwise.reshape(pairwise.shape[0], -1), what)


def pairs_marginalise(pairwise, unary, what: str):
    """Slice i of a chain table, summed over either label, gives unary row
    i or i + 1."""
    pairwise = np.asarray(pairwise, dtype=np.float64)
    unary = np.asarray(unary, dtype=np.float64)
    if pairwise.shape[0] == 0:
        return
    left = float(np.max(np.abs(pairwise.sum(axis=2) - unary[:-1])))
    right = float(np.max(np.abs(pairwise.sum(axis=1) - unary[1:])))
    expect(max(left, right) <= TOL, f"{what}: pair slices miss their unary rows by {max(left, right):.2e}")


def self_column_zero(head_rows, what: str):
    head_rows = np.asarray(head_rows)
    n = head_rows.shape[0]
    own = head_rows[np.arange(n), np.arange(n) + 1]
    expect(np.all(own == 0.0), f"{what}: a token heads itself with probability {own.max():.2e}")


def bioes_boundary_zeros(rows, n_types: int, what: str):
    """B and I are impossible at the last token, I and E at the first."""
    rows = np.asarray(rows)
    n = rows.shape[0]
    for t in range(n_types):
        b, i, e = 1 + 4 * t, 2 + 4 * t, 3 + 4 * t
        edge = (rows[n - 1, b], rows[0, i], rows[n - 1, i], rows[0, e])
        expect(all(v == 0.0 for v in edge), f"{what}: non-zero BIOES boundary entry {edge}")


def tables_match(actual, expected, what: str):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    expect(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    worst = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    expect(worst <= TOL, f"{what}: differs from the reference by {worst:.2e}")


def loss_below_zero_model(history, zero_loss: float, what: str):
    """The last epoch's mean training loss is finite, >= 0, and below the
    mean loss of the same model with every parameter at zero."""
    expect(history, f"{what}: empty training history")
    last = history[-1]["train_loss"]
    expect(math.isfinite(last) and last >= 0.0, f"{what}: last-epoch loss {last}")
    expect(last < zero_loss, f"{what}: last-epoch loss {last:.4f} not below the zero-parameter loss {zero_loss:.4f}")


def f1_matches(reported: float, own: float, what: str):
    expect(reported > 0.0, f"{what}: reported F1 {reported} is not positive")
    expect(abs(reported - own) <= METRIC_TOL, f"{what}: reported F1 {reported!r} != recomputed {own!r}")


def attachment_matches(printed: dict, uas: float, las: float, what: str):
    """`eval --json` prints percentages rounded to 4 decimals."""
    own = {"uas": round(uas * 100, 4), "las": round(las * 100, 4)}
    got = {k: printed.get(k) for k in own}
    expect(got == own, f"{what}: printed {got} != recomputed {own}")


def same(a, b, what: str):
    expect(a == b, f"{what}: {a!r} != {b!r}")
