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

The kernels run over a (B, n, n, T) stack of same-length tables, one DP
step for the whole stack; `per_length` stacks a list of tables by length
and splits the results back.  The one-table functions are the B = 1 view.
No table is padded, so every stack gives each table exactly the numbers it
gets alone: each log-sum-exp is over one table's options laid out as one
row, in the order [log F(i+1)] then (j, l) j-major for the suffix DP,
[log B(i-1)] then (k, l) k-major for the prefix DP, and j, k or (k, j)
k-major per type for the BIOES B, E and I terms, and the row is reduced along the contiguous last axis,
which numpy sums as it sums that row on its own (a transposed view is
copied first: numpy may sum a strided axis in another order).  Every other
step is elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .corpus import BioesCodec, LabelAlphabet, SpanSet
from .numerics import NEG_INF, logsumexp_last
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


@lru_cache(maxsize=64)
def span_sites(n: int):
    """(starts, ends) of the n(n+1)/2 spans i <= j, row-major (i-major);
    read-only, as every caller shares them."""
    sites = np.triu_indices(n)
    for a in sites:
        a.flags.writeable = False
    return sites


def _lse_rows(opts: np.ndarray) -> np.ndarray:
    """log-sum-exp of each row of a DP step's options.  A row holds the
    previous partition (>= 0), so its maximum is finite and needs no
    guard."""
    m = opts.max(axis=1)
    return m + np.log(np.exp(opts - m[:, None]).sum(axis=1))


def stack_suffix_log_partitions(scores: np.ndarray) -> np.ndarray:
    """(B, n + 1) log F of a (B, n, n, T) stack; log F(n) = 0."""
    B, n, _, T = scores.shape
    log_f = np.zeros((B, n + 1))
    for i in range(n - 1, -1, -1):
        opts = np.empty((B, 1 + (n - i) * T))
        opts[:, 0] = log_f[:, i + 1]
        opts[:, 1:] = (scores[:, i, i:, :] + log_f[:, i + 1 :, None]).reshape(B, -1)
        log_f[:, i] = _lse_rows(opts)
    return log_f


def stack_prefix_log_partitions(scores: np.ndarray) -> np.ndarray:
    """(B, n + 1) log B of a (B, n, n, T) stack; log B(0) = 0."""
    B, n, _, T = scores.shape
    log_b = np.zeros((B, n + 1))
    for i in range(1, n + 1):
        opts = np.empty((B, 1 + i * T))
        opts[:, 0] = log_b[:, i - 1]
        opts[:, 1:] = (scores[:, :i, i - 1, :] + log_b[:, :i, None]).reshape(B, -1)
        log_b[:, i] = _lse_rows(opts)
    return log_b


def stack_span_marginals(scores: np.ndarray):
    """(log Z of shape (B,), span marginals of shape (B, n, n, T), zero
    below the diagonal) of a stack."""
    n = scores.shape[1]
    log_b = stack_prefix_log_partitions(scores)
    log_f = stack_suffix_log_partitions(scores)
    log_z = log_f[:, 0]
    i, j = span_sites(n)
    out = np.zeros(scores.shape)
    out[:, i, j] = np.exp(
        log_b[:, i, None] + scores[:, i, j] + log_f[:, j + 1, None] - log_z[:, None, None]
    )
    return log_z, out


def stack_bioes_rows(scores: np.ndarray) -> np.ndarray:
    """(B, n, 1 + 4T) BIOES rows of a stack, laid out as `bioes_marginals`."""
    B, n, _, T = scores.shape
    log_b = stack_prefix_log_partitions(scores)
    log_f = stack_suffix_log_partitions(scores)
    log_z = log_f[:, :1]
    rows = np.zeros((B, n, 1 + 4 * T))
    rows[:, :, 0] = np.exp(log_b[:, :n] + log_f[:, 1:] - log_z)  # O
    at = np.arange(n)
    rows[:, :, 4::4] = np.exp(  # S: the single-token span
        log_b[:, :n, None] + scores[:, at, at] + log_f[:, 1:, None] - log_z[:, :, None]
    )
    for i in range(n):
        # B: a longer span starts here (never possible at the last token)
        if i < n - 1:
            opts = (scores[:, i, i + 1 :, :] + log_f[:, i + 2 :, None]).transpose(0, 2, 1)
            b = log_b[:, i, None] + logsumexp_last(np.ascontiguousarray(opts))
            rows[:, i, 1::4] = np.exp(b - log_z)
        # I: strictly inside a span (never at either boundary position)
        if 0 < i < n - 1:
            terms = (
                log_b[:, :i, None, None] + scores[:, :i, i + 1 :, :] + log_f[:, None, i + 2 :, None]
            ).transpose(0, 3, 1, 2)
            terms = np.ascontiguousarray(terms).reshape(B, T, -1)
            rows[:, i, 2::4] = np.exp(logsumexp_last(terms) - log_z)
        # E: a longer span ends here (never possible at the first token)
        if i > 0:
            opts = (log_b[:, :i, None] + scores[:, :i, i, :]).transpose(0, 2, 1)
            e = logsumexp_last(np.ascontiguousarray(opts)) + log_f[:, i + 1, None]
            rows[:, i, 3::4] = np.exp(e - log_z)
    return rows


def per_length(kernel, tables) -> list:
    """kernel over each length's (B, n, n, T) stack of the tables, split
    back into one result per table (a tuple when the kernel returns one), in
    the tables' order."""
    groups = {}
    for k, t in enumerate(tables):
        groups.setdefault(t.n, []).append(k)
    out = [None] * len(tables)
    for ks in groups.values():
        res = kernel(np.stack([tables[k].scores for k in ks]))
        for k, r in zip(ks, zip(*res) if isinstance(res, tuple) else res):
            out[k] = r
    return out


def suffix_log_partitions(t: SpanScoreTable) -> np.ndarray:
    """log F(i) for i = 0..n (log F(n) = 0)."""
    return stack_suffix_log_partitions(t.scores[None])[0]


def prefix_log_partitions(t: SpanScoreTable) -> np.ndarray:
    """log B(i) for i = 0..n (log B(0) = 0)."""
    return stack_prefix_log_partitions(t.scores[None])[0]


def span_log_partition(t: SpanScoreTable) -> float:
    return float(suffix_log_partitions(t)[0])


def span_marginals(t: SpanScoreTable) -> np.ndarray:
    """(n, n, T) table of P(span (i, j, l) in the structure); zero below the
    diagonal."""
    return stack_span_marginals(t.scores[None])[1][0]


def bioes_marginals(t: SpanScoreTable) -> TokenDistributions:
    """Per-position distribution over BIOES tags implied by the span model:
    token rows laid out as O, then B/I/E/S per type (matching
    :class:`~factorkd.corpus.BioesCodec` tag ids)."""
    return TokenDistributions(stack_bioes_rows(t.scores[None])[0])


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
        # options: leave i uncovered, then the spans (i, j, l), j-major
        logits = np.empty(1 + (n - i) * T)
        logits[0] = log_f[i + 1]
        logits[1:] = (t.scores[i, i:, :] + log_f[i + 1 :, None]).reshape(-1)
        p = np.exp(logits - log_f[i])
        p /= p.sum()
        pick = int(rng.choice(len(p), p=p))
        if pick == 0:
            i += 1
        else:
            j, l = divmod(pick - 1, T)
            spans.append((i + 1, i + j + 1, l))
            i += j + 1
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

    def prepare(self, tokens) -> tuple:
        n = len(tokens)
        sites = ((i, j) for i in range(n) for j in range(i, n))  # as span_sites(n)
        fvecs = [featurize_span(self.hasher, tokens, i, j) for i, j in sites]
        return n, build_slot_block(self.hasher, fvecs, len(self.types))

    def score_table(self, prep, scale: float = 1.0) -> SpanScoreTable:
        n, block = prep
        flat = block.scores(self.params["weights"], self.params["bias"]) * scale
        table = np.full((n, n, len(self.types)), NEG_INF)
        table[span_sites(n)] = flat
        return SpanScoreTable(table)

    def scatter_table_grad(self, prep, d_table: np.ndarray, out: dict, coef=1.0):
        n, block = prep
        block.scatter(out["weights"], out["bias"], coef * d_table[span_sites(n)])

    def objective(self, prep, gold: SpanSet, table, lam: float, out: dict, coef=1.0):
        """log Z minus the gold structure's score; gradient per span score
        is its marginal minus the gold indicator.  This family is a teacher
        only, so lam must be 0."""
        return self.batch_objective([prep], [0], [gold], None, lam, out, coef)[0]

    def batch_objective(self, corpus, batch, golds, tables, lam: float, out: dict, coef=1.0):
        """`objective` of each sentence of the batch, in batch order, with
        log Z and the span marginals from one pass per sentence length."""
        if lam > 0.0:
            raise ValueError("the span NER model is a teacher family, not a KD student")
        score_tables = [self.score_table(corpus[i]) for i in batch]
        marginals = per_length(stack_span_marginals, score_tables)
        losses = []
        for i, table, (log_z, d) in zip(batch, score_tables, marginals):
            gold_score = 0.0
            for s, e, l in golds[i]:
                gold_score += table.scores[s - 1, e - 1, l]
                d[s - 1, e - 1, l] -= 1.0
            self.scatter_table_grad(corpus[i], d, out, coef)
            losses.append(float(log_z - gold_score))
        return losses

    def decode(self, prep) -> SpanSet:
        return decode_spans(self.score_table(prep))
