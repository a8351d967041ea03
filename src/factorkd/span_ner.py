"""Span-factored NER: a globally normalized model over sets of pairwise
non-overlapping labeled spans.

A structure is any such set (the empty set scores 0); its score is the sum
of member span scores s(i, j, l).  Two dynamic programs over 0-based
positions share the work:

    suffix  F(i) = F(i+1) + sum_{j >= i} sum_l exp(s(i,j,l)) * F(j+1)
    prefix  B(i) = B(i-1) + sum_{k <= i-1} sum_l exp(s(k,i-1,l)) * B(k)

with F(n) = B(0) = 1, where F(i) sums structures over positions i..n-1 and
B(i) sums structures over positions 0..i-1, so Z = F(0) = B(n).  A span
(i, j, l) then has marginal B(i) * exp(s(i,j,l)) * F(j+1) / Z, and the five
BIOES position marginals are sums of such terms restricted by where spans
may start or end, which forces the boundary cases P(B at n) = P(I at 1) =
P(I at n) = P(E at 1) = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import BioesCodec, LabelAlphabet, SpanSet
from .numerics import NEG_INF, log_sum_exp, logsumexp_last
from .scorer import (
    FeatureHasher,
    HashedModel,
    build_slot_block,
    featurize_span,
)
from .token_maxent import TokenDistributions


@dataclass
class SpanScoreTable:
    """Log scores s[i, j, l] for 0-based inclusive spans i <= j; entries
    below the diagonal are ignored."""

    scores: np.ndarray  # (n, n, T)

    @property
    def n(self):
        return self.scores.shape[0]

    @property
    def n_types(self):
        return self.scores.shape[2]


def suffix_log_partitions(t: SpanScoreTable) -> np.ndarray:
    """log F(i) for i = 0..n (log F(n) = 0)."""
    n = t.n
    log_f = np.zeros(n + 1)
    for i in range(n - 1, -1, -1):
        opts = [log_f[i + 1]]
        for j in range(i, n):
            opts.extend(t.scores[i, j, :] + log_f[j + 1])
        log_f[i] = log_sum_exp(opts)
    return log_f


def prefix_log_partitions(t: SpanScoreTable) -> np.ndarray:
    """log B(i) for i = 0..n (log B(0) = 0)."""
    n = t.n
    log_b = np.zeros(n + 1)
    for i in range(1, n + 1):
        opts = [log_b[i - 1]]
        for k in range(i):
            opts.extend(t.scores[k, i - 1, :] + log_b[k])
        log_b[i] = log_sum_exp(opts)
    return log_b


def span_log_partition(t: SpanScoreTable) -> float:
    return float(suffix_log_partitions(t)[0])


def span_marginals(t: SpanScoreTable) -> np.ndarray:
    """(n, n, T) table of P(span (i, j, l) in the structure); zero below the
    diagonal."""
    n, _, T = t.scores.shape
    log_b = prefix_log_partitions(t)
    log_f = suffix_log_partitions(t)
    log_z = log_f[0]
    out = np.zeros((n, n, T))
    for i in range(n):
        for j in range(i, n):
            out[i, j, :] = np.exp(log_b[i] + t.scores[i, j, :] + log_f[j + 1] - log_z)
    return out


def bioes_marginals(t: SpanScoreTable) -> TokenDistributions:
    """Per-position distribution over BIOES tags implied by the span model:
    token rows laid out as O, then B/I/E/S per type (matching
    :class:`~factorkd.corpus.BioesCodec` tag ids)."""
    n, _, T = t.scores.shape
    log_b = prefix_log_partitions(t)
    log_f = suffix_log_partitions(t)
    log_z = log_f[0]
    rows = np.zeros((n, 1 + 4 * T))
    for i in range(n):
        rows[i, 0] = np.exp(log_b[i] + log_f[i + 1] - log_z)  # O
        for l in range(T):
            col = 1 + 4 * l
            # B: a longer span starts here (never possible at the last token)
            if i < n - 1:
                b = log_b[i] + logsumexp_last(t.scores[i, i + 1 :, l] + log_f[i + 2 :])
                rows[i, col + 0] = np.exp(b - log_z)
            # I: strictly inside a span (never at either boundary position)
            if 0 < i < n - 1:
                terms = (
                    log_b[:i, None] + t.scores[:i, i + 1 :, l] + log_f[None, i + 2 :]
                ).reshape(-1)
                rows[i, col + 1] = np.exp(log_sum_exp(terms) - log_z) if terms.size else 0.0
            # E: a longer span ends here (never possible at the first token)
            if i > 0:
                e = logsumexp_last(log_b[:i] + t.scores[:i, i, l]) + log_f[i + 1]
                rows[i, col + 2] = np.exp(e - log_z)
            # S: the single-token span
            rows[i, col + 3] = np.exp(log_b[i] + t.scores[i, i, l] + log_f[i + 1] - log_z)
    return TokenDistributions(rows)


def decode_spans(t: SpanScoreTable) -> SpanSet:
    """Highest-scoring span set.  Skipping a position ties ahead of opening
    a zero-gain span (fewer spans win), and among equal span options the
    smaller end position, then type id, wins; so only strictly positive
    score accrues spans."""
    n, _, T = t.scores.shape
    best = np.zeros(n + 1)
    choice: list = [None] * n  # None = leave position uncovered
    for i in range(n - 1, -1, -1):
        best[i] = best[i + 1]
        choice[i] = None
        for j in range(i, n):
            for l in range(T):
                cand = t.scores[i, j, l] + best[j + 1]
                if cand > best[i]:
                    best[i] = cand
                    choice[i] = (j, l)
    spans = []
    i = 0
    while i < n:
        if choice[i] is None:
            i += 1
        else:
            j, l = choice[i]
            spans.append((i + 1, j + 1, l))
            i = j + 1
    return SpanSet(frozenset(spans))


def sample_span_set(t: SpanScoreTable, rng) -> frozenset:
    """Exact draw from the span-set distribution via the suffix partitions;
    returns 1-based (start, end, type) triples."""
    n, _, T = t.scores.shape
    log_f = suffix_log_partitions(t)
    spans = []
    i = 0
    while i < n:
        logits = [log_f[i + 1]]
        opts = [None]
        for j in range(i, n):
            for l in range(T):
                logits.append(t.scores[i, j, l] + log_f[j + 1])
                opts.append((j, l))
        p = np.exp(np.asarray(logits) - log_f[i])
        p /= p.sum()
        pick = opts[int(rng.choice(len(opts), p=p))]
        if pick is None:
            i += 1
        else:
            j, l = pick
            spans.append((i + 1, j + 1, l))
            i = j + 1
    return frozenset(spans)


# ---------------------------------------------------------------------------
# Hashed linear span scorer


class SpanNerModel(HashedModel):
    """Span-set NER teacher with hashed span features and per-type biases."""

    family = "ner-span"
    alphabet_key = "types"
    gold_type = SpanSet

    def __init__(self, types: LabelAlphabet, bits: int = 20):
        self.types = types
        self.codec = BioesCodec(types)
        self.hasher = FeatureHasher(bits)
        self.params = {"weights": np.zeros(self.hasher.size), "bias": np.zeros(len(types))}

    def span_sites(self, n):
        return [(i, j) for i in range(n) for j in range(i, n)]

    def prepare(self, tokens) -> tuple:
        n = len(tokens)
        sites = self.span_sites(n)
        fvecs = [featurize_span(self.hasher, tokens, i, j) for i, j in sites]
        return n, build_slot_block(self.hasher, fvecs, len(self.types))

    def score_table(self, prep, scale: float = 1.0) -> SpanScoreTable:
        n, block = prep
        T = len(self.types)
        flat = block.scores(self.params["weights"], self.params["bias"]) * scale
        table = np.full((n, n, T), NEG_INF)
        for site, (i, j) in enumerate(self.span_sites(n)):
            table[i, j, :] = flat[site]
        return SpanScoreTable(table)

    def scatter_table_grad(self, prep, d_table: np.ndarray, out: dict, coef=1.0):
        n, block = prep
        sites = self.span_sites(n)
        d_flat = np.stack([d_table[i, j, :] for i, j in sites])
        block.scatter(out["weights"], out["bias"], coef * d_flat)

    def objective(self, prep, gold: SpanSet, table, lam: float, out: dict, coef=1.0):
        """log Z minus the gold structure's score; gradient per span score
        is its marginal minus the gold indicator.  This family is a teacher
        only, so lam must be 0."""
        if lam > 0.0:
            raise ValueError("the span NER model is a teacher family, not a KD student")
        table = self.score_table(prep)
        log_z = span_log_partition(table)
        gold_score = 0.0
        d = span_marginals(table)
        for s, e, l in gold:
            gold_score += table.scores[s - 1, e - 1, l]
            d[s - 1, e - 1, l] -= 1.0
        self.scatter_table_grad(prep, d, out, coef)
        return float(log_z - gold_score)

    def decode(self, prep) -> SpanSet:
        return decode_spans(self.score_table(prep))
