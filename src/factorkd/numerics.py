"""Stable log-space arithmetic shared by every inference routine.

All scores live in the log domain as 64-bit floats.  The additive identity
of the log semiring is IEEE negative infinity; NaN is never a legal value,
so every reduction guards the max-shift against all-(-inf) inputs instead
of letting NaN propagate silently through a dynamic program.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")


def log_sum_exp(values) -> float:
    """log(sum(exp(v))) over a non-empty 1-D collection of log scores.

    Entries may be -inf (they contribute nothing); the result is -inf only
    when every entry is -inf.  Raises ValueError on an empty input.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        v = v.reshape(-1)
    if v.size == 0:
        raise ValueError("log_sum_exp of an empty sequence")
    m = np.max(v)
    if m == NEG_INF:
        return NEG_INF
    return float(m + np.log(np.sum(np.exp(v - m))))


def logsumexp_last(a: np.ndarray) -> np.ndarray:
    """log-sum-exp reduction over the last axis of an array.

    Rows that are entirely -inf reduce to -inf without raising warnings.
    """
    a = np.asarray(a, dtype=np.float64)
    m = np.max(a, axis=-1, keepdims=True)
    safe = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = safe[..., 0] + np.log(np.sum(np.exp(a - safe), axis=-1))
    return np.where(np.isneginf(m[..., 0]), NEG_INF, out)


def log_softmax(values) -> np.ndarray:
    """Normalize log scores so the exponentials sum to one.

    Order-preserving and shift-invariant.  At least one entry must be
    finite; an all-(-inf) input has no normalizable distribution and
    raises ValueError.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("log_softmax of an empty sequence")
    lse = logsumexp_last(v)
    if np.any(np.isneginf(lse)):
        raise ValueError("log_softmax of an all-(-inf) row: degenerate distribution")
    with np.errstate(invalid="ignore"):
        out = v - np.expand_dims(lse, -1)
    # -inf - finite is a well-defined -inf; only NaN (from inf-inf) is illegal
    # and the guard above rules it out.
    return out


def softmax_last(a: np.ndarray) -> np.ndarray:
    """exp(log_softmax) over the last axis; -inf entries map to exact 0."""
    return np.exp(log_softmax(a))


def masked_product(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """q * s with q == 0 entries giving 0 even when the paired score is -inf
    (forbidden substructures)."""
    with np.errstate(invalid="ignore"):
        return np.where(q > 0, q * s, 0.0)


def masked_inner(q: np.ndarray, s: np.ndarray) -> float:
    """sum(q * s), with q == 0 entries contributing 0 (see masked_product)."""
    return float(masked_product(q, s).sum())


def rows_objective(row_sets, lam: float, runs=None):
    """lam * KD + (1 - lam) * NLL of locally normalized rows, and its gradient.

    Each row set is (logits, gold ids or None, teacher rows or None): the
    NLL sums -log softmax(logits)[gold] over the rows, the KD loss sums the
    cross-entropies of the teacher rows against the rows' softmax.  The NLL
    is lam = 0 with no teacher rows, the KD loss lam = 1 with no gold.  The
    sets' NLL and KD sums are each added up before they are mixed.  Returns
    (loss, [d loss / d logits per set]); the loss is a float, or with `runs`
    an array of per-run sums.
    """
    total = (lambda x: float(x.sum())) if runs is None else (lambda x: runs.sums(x, flat=True))
    nll = kd = 0.0
    grads = []
    for logits, gold, q in row_sets:
        logp = log_softmax(logits)
        p = np.exp(logp)
        if gold is None:
            d = np.zeros_like(p)
        else:
            if gold.min() < 0 or gold.max() >= p.shape[1]:
                raise ValueError("gold label id outside the label space")
            idx = np.arange(len(gold))
            nll += total(logp[idx, gold])
            d = p.copy()
            d[idx, gold] -= 1.0
            d *= 1.0 - lam
        if q is not None and lam > 0.0:
            if q.shape != p.shape:
                raise ValueError(f"teacher rows {q.shape} != student logits {p.shape}")
            kd += total(masked_product(q, logp))
            d += lam * (p - q)
        grads.append(d)
    return (1.0 - lam) * -nll - lam * kd, grads


class Runs:
    """Consecutive runs of rows, the k-th run lengths[k] rows long, grouped
    by length so that each sum over them is one reduction per length."""

    def __init__(self, lengths):
        lengths = np.asarray(lengths)
        starts = np.cumsum(lengths) - lengths
        by_length = {}
        for k, n in enumerate(lengths.tolist()):
            by_length.setdefault(n, []).append(k)
        self.n = len(lengths)
        self.groups = [
            (np.array(runs), starts[runs, None] + np.arange(n)) for n, runs in by_length.items()
        ]

    def sums(self, x: np.ndarray, flat: bool = False) -> np.ndarray:
        """x[a:b].sum(axis=0) per run, or x[a:b].sum() with flat=True.

        The runs of one length are reduced along an axis of their own, which
        numpy sums exactly as it does each run alone, so every sum is
        bit-identical to the per-run call.
        """
        out = np.empty((self.n,) if flat else (self.n,) + x.shape[1:])
        for runs, idx in self.groups:
            block = x[idx]
            out[runs] = block.reshape(len(runs), -1).sum(axis=1) if flat else block.sum(axis=1)
        return out
