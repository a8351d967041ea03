"""Reference computations that the benchmark checks the program against.

Nothing here imports factorkd.  Each function recomputes a quantity the
program produces, by brute-force enumeration or straight from the formula
in the program's documentation, so that a fault in one of the program's
dynamic programs shows up as a mismatch instead of being copied into the
expected value.  Tag ids follow the program's BIOES layout: O is 0, and
type t owns B, I, E, S at 1 + 4t .. 4 + 4t.
"""

from __future__ import annotations

import math

import numpy as np


def _normalise_log_weights(log_w: np.ndarray) -> np.ndarray:
    w = np.exp(log_w - np.max(log_w))
    return w / w.sum()


def temper(p, temperature: float) -> np.ndarray:
    """Local temperature rule: p ** (1 / T) renormalised over the last axis;
    exact zeros stay exact zeros."""
    p = np.asarray(p, dtype=np.float64)
    q = np.where(p > 0, np.power(np.where(p > 0, p, 1.0), 1.0 / temperature), 0.0)
    return q / q.sum(axis=-1, keepdims=True)


def temper_slices(pairwise, temperature: float) -> np.ndarray:
    """The local rule applied to each (L, L) pair slice as one distribution."""
    pairwise = np.asarray(pairwise, dtype=np.float64)
    k, a, b = pairwise.shape
    return temper(pairwise.reshape(k, a * b), temperature).reshape(k, a, b)


# ---------------------------------------------------------------------------
# Linear chains


def chain_sequences(n: int, n_labels: int) -> np.ndarray:
    """Every label sequence of length n, one per row."""
    return np.indices((n_labels,) * n).reshape(n, -1).T


def chain_sequence_log_weights(emissions, transitions, start, stop, seqs) -> np.ndarray:
    """score(y) = start[y1] + sum_i em[i][yi] + sum_i tr[i][yi, yi+1] + stop[yn]."""
    n = seqs.shape[1]
    with np.errstate(invalid="ignore"):
        s = start[seqs[:, 0]] + stop[seqs[:, -1]]
        for i in range(n):
            s = s + emissions[i][seqs[:, i]]
        for i in range(n - 1):
            s = s + transitions[i][seqs[:, i], seqs[:, i + 1]]
    return s


def chain_marginals(emissions, transitions, start, stop):
    """(pairwise (n-1, L, L), unary (n, L)) by enumerating all L^n sequences."""
    emissions = np.asarray(emissions, dtype=np.float64)
    n, n_labels = emissions.shape
    seqs = chain_sequences(n, n_labels)
    w = _normalise_log_weights(
        chain_sequence_log_weights(emissions, transitions, start, stop, seqs)
    )
    unary = np.zeros((n, n_labels))
    pairwise = np.zeros((max(n - 1, 0), n_labels, n_labels))
    for i in range(n):
        np.add.at(unary[i], seqs[:, i], w)
    for i in range(n - 1):
        np.add.at(pairwise[i], (seqs[:, i], seqs[:, i + 1]), w)
    return pairwise, unary


def chain_argmax(emissions, transitions, start, stop) -> tuple:
    """Highest-scoring label sequence by enumeration."""
    emissions = np.asarray(emissions, dtype=np.float64)
    n, n_labels = emissions.shape
    seqs = chain_sequences(n, n_labels)
    s = chain_sequence_log_weights(emissions, transitions, start, stop, seqs)
    return tuple(int(t) for t in seqs[int(np.argmax(s))])


# ---------------------------------------------------------------------------
# Span sets


def span_sets(n: int, n_types: int) -> list:
    """Every set of pairwise non-overlapping typed spans over positions
    0..n-1, each a tuple of (start, end, type), 0-based inclusive."""

    def from_position(i):
        if i >= n:
            return [()]
        out = list(from_position(i + 1))  # position i left uncovered
        for j in range(i, n):
            rest = from_position(j + 1)
            for t in range(n_types):
                out.extend(((i, j, t),) + r for r in rest)
        return out

    return from_position(0)


def span_set_tags(spans, n: int) -> list:
    """BIOES tag ids of one span set."""
    tags = [0] * n
    for i, j, t in spans:
        if i == j:
            tags[i] = 4 + 4 * t
        else:
            tags[i] = 1 + 4 * t
            for p in range(i + 1, j):
                tags[p] = 2 + 4 * t
            tags[j] = 3 + 4 * t
    return tags


def span_bioes_rows(scores) -> np.ndarray:
    """Per-position BIOES marginals of the span-set model with log scores
    scores[i, j, t], by enumerating every span set."""
    scores = np.asarray(scores, dtype=np.float64)
    n, _, n_types = scores.shape
    sets = span_sets(n, n_types)
    w = _normalise_log_weights(
        np.array([sum(scores[i, j, t] for i, j, t in s) for s in sets], dtype=np.float64)
    )
    rows = np.zeros((n, 1 + 4 * n_types))
    positions = np.arange(n)
    for s, wk in zip(sets, w):
        rows[positions, span_set_tags(s, n)] += wk
    return rows


def best_span_set(scores) -> frozenset:
    """Highest-scoring span set by enumeration, as 1-based (start, end, type)."""
    scores = np.asarray(scores, dtype=np.float64)
    n, _, n_types = scores.shape
    best = max(span_sets(n, n_types), key=lambda s: sum(scores[i, j, t] for i, j, t in s))
    return frozenset((i + 1, j + 1, t) for i, j, t in best)


# ---------------------------------------------------------------------------
# Mean field for the second-order parser


def _softmax_without_self(logits: np.ndarray) -> np.ndarray:
    n = logits.shape[0]
    out = np.zeros_like(logits)
    for i in range(n):
        keep = np.ones(n + 1, dtype=bool)
        keep[i + 1] = False
        x = logits[i, keep]
        e = np.exp(x - np.max(x))
        out[i, keep] = e / e.sum()
    return out


def mean_field_head_rows(arc, sib, iterations: int) -> np.ndarray:
    """Head rows after `iterations` mean-field updates.

    Row i of `arc` scores candidate heads 0..n (0 = root, j = token j); a
    token never heads itself.  Each update sets row i's logits to
    arc[i][j] + sum_{k != i} sib[i][k][j] * Q(h_k = j) and renormalises,
    starting from the softmax of `arc`.
    """
    arc = np.asarray(arc, dtype=np.float64)
    sib = np.asarray(sib, dtype=np.float64)
    n = arc.shape[0]
    q = _softmax_without_self(arc)
    for _ in range(iterations):
        logits = arc.copy()
        for i in range(n):
            for k in range(n):
                if k != i:
                    with np.errstate(invalid="ignore"):
                        logits[i] = logits[i] + sib[i, k] * q[k]
        q = _softmax_without_self(logits)
    return q


def softmax_rows(logits) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Losses of a zero-parameter model (every score 0)


def count_valid_bioes(n: int, n_types: int) -> int:
    """Number of well-formed BIOES sequences of length n."""
    closed, open_ = 1 + n_types, n_types  # after O/E/S, after B/I
    for _ in range(n - 1):
        closed, open_ = closed * (1 + n_types) + open_, closed * n_types + open_
    return closed


def count_span_sets(n: int, n_types: int) -> int:
    """Number of sets of non-overlapping typed spans over n positions."""
    f = [1]
    for i in range(1, n + 1):
        f.append(f[i - 1] + n_types * sum(f[:i]))
    return f[n]


def zero_loss_tokens(n: int, n_labels: int) -> float:
    """n * log L: per-token softmax, or an unconstrained chain, at zero weights."""
    return n * math.log(n_labels)


def zero_loss_constrained_chain(n: int, n_types: int) -> float:
    return math.log(count_valid_bioes(n, n_types))


def zero_loss_spans(n: int, n_types: int) -> float:
    return math.log(count_span_sets(n, n_types))


def zero_loss_heads(n: int, n_rels: int) -> float:
    """sum over tokens of log n + log R: n head candidates, R relations."""
    return n * (math.log(n) + math.log(n_rels))


# ---------------------------------------------------------------------------
# Metrics


def bioes_spans(tags) -> frozenset:
    """Spans (start, end, type), 1-based inclusive, of BIOES tag strings.

    A segment counts only when it opens with B or S and closes with E or S
    under one type; any other fragment is dropped.  This is the repair rule
    that the program documents in BioesCodec.bioes_to_spans.
    """
    spans = set()
    start = kind = None
    for pos, tag in enumerate(tags, start=1):
        prefix, _, typ = tag.partition("-")
        if prefix == "S" and typ:
            spans.add((pos, pos, typ))
            start = None
        elif prefix == "B" and typ:
            start, kind = pos, typ
        elif prefix == "I" and typ:
            if typ != kind:
                start = None
        elif prefix == "E" and typ:
            if start is not None and typ == kind:
                spans.add((start, pos, typ))
            start = None
        else:
            start = None
    return frozenset(spans)


def micro_f1(predicted, gold) -> float:
    """Micro-averaged exact-match F1 over parallel lists of span sets."""
    tp = n_pred = n_gold = 0
    for p, g in zip(predicted, gold, strict=True):
        tp += len(set(p) & set(g))
        n_pred += len(p)
        n_gold += len(g)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def read_conllu_arcs(path) -> list:
    """[(forms, heads, rels)] per sentence of a CoNLL-U file; lines whose ID
    is not an integer (multiword ranges, empty nodes) are skipped."""
    sentences, forms, heads, rels = [], [], [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line.strip():
                if forms:
                    sentences.append((tuple(forms), tuple(heads), tuple(rels)))
                forms, heads, rels = [], [], []
            elif not line.startswith("#"):
                cols = line.split("\t")
                if cols[0].isdigit():
                    forms.append(cols[1])
                    heads.append(int(cols[6]))
                    rels.append(cols[7])
    if forms:
        sentences.append((tuple(forms), tuple(heads), tuple(rels)))
    return sentences


def attachment_scores(predicted, gold):
    """(UAS, LAS) over parallel [(heads, rels)] sentence lists."""
    total = heads_ok = both_ok = 0
    for (ph, pr), (gh, gr) in zip(predicted, gold, strict=True):
        if len(ph) != len(gh):
            raise ValueError("sentence lengths differ between prediction and gold")
        for a, b, c, d in zip(ph, pr, gh, gr):
            total += 1
            heads_ok += a == c
            both_ok += a == c and b == d
    return heads_ok / total, both_ok / total
