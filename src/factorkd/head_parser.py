"""Head-selection dependency models, first- and second-order.

Heads are chosen per token without a tree constraint: row i of a head table
is a distribution over candidates {0..n} \\ {i} where column 0 is the
synthetic root and columns 1..n are 1-based token indices.  Relations get
an independent per-token distribution, so the joint arc probability is the
product P(h_i) * P(l_i).

The second-order teacher adds sibling factors sib(i, k, j): a score for
dependents i and k sharing head j.  Mean-field variational inference
updates row i's logits to

    arc[i][j] + sum_{k != i} sib[i][k][j] * Q(h_k = j)

and renormalizes, starting from the first-order softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import HeadAssignment, LabelAlphabet
from .numerics import NEG_INF, log_softmax, rows_objective, softmax_last
from .scorer import (
    FeatureHasher,
    FeatureVec,
    HashedModel,
    SlotBlock,
    build_slot_block,
    featurize_arc,
    featurize_token,
)


@dataclass
class ArcDistributions:
    head_rows: np.ndarray  # (n, n+1); column 0 = root, self column is 0
    rel_rows: np.ndarray  # (n, R)

    @property
    def n(self):
        return self.head_rows.shape[0]

    @property
    def n_rels(self):
        return self.rel_rows.shape[1]


def self_mask(n: int) -> np.ndarray:
    """(n, n+1) additive mask: -inf on each token's own column."""
    m = np.zeros((n, n + 1))
    for i in range(n):
        m[i, i + 1] = NEG_INF
    return m


def arc_marginal(d: ArcDistributions, dep: int, head: int, rel: int) -> float:
    """P((h_dep, l_dep) = (head, rel)); dep is 0-based, head is 0 = root or
    a 1-based token index."""
    if head == dep + 1:
        raise ValueError(f"token {dep + 1} cannot head itself")
    if not 0 <= head <= d.n:
        raise ValueError(f"head {head} outside 0..{d.n}")
    return float(d.head_rows[dep, head] * d.rel_rows[dep, rel])


def decode_heads(d: ArcDistributions) -> HeadAssignment:
    """Per-token argmax head and relation; ties break toward the smaller
    head index / relation id."""
    heads = tuple(int(j) for j in np.argmax(d.head_rows, axis=1))
    rels = tuple(int(r) for r in np.argmax(d.rel_rows, axis=1))
    return HeadAssignment(heads, rels)


def mfvi_second_order(arc_scores: np.ndarray, sib_scores: np.ndarray, iterations: int) -> np.ndarray:
    """Mean-field head rows after `iterations` updates (0 = first-order)."""
    return mfvi_trace(arc_scores, sib_scores, iterations)[-1]


def _nodiag(sib: np.ndarray) -> np.ndarray:
    out = sib.copy()
    idx = np.arange(out.shape[0])
    out[idx, idx, :] = 0.0
    return out


def mfvi_trace(arc_scores: np.ndarray, sib_scores: np.ndarray, iterations: int):
    """All mean-field iterates Q^0..Q^K (needed for backprop)."""
    if iterations < 0:
        raise ValueError("iteration count must be >= 0")
    n = arc_scores.shape[0]
    masked = arc_scores + self_mask(n)
    sib = _nodiag(sib_scores)
    qs = [softmax_last(masked)]
    for _ in range(iterations):
        msg = np.einsum("ikj,kj->ij", sib, qs[-1])
        qs.append(softmax_last(masked + msg))
    return qs


def mfvi_backward(sib_scores: np.ndarray, qs, d_logits_last: np.ndarray):
    """Gradient of a loss through the mean-field iterations.

    d_logits_last is dL/d(logits of the final update), i.e. already through
    the last softmax (for cross-entropy losses pass Q^K minus the one-hot).
    Returns (d_arc, d_sib).
    """
    sib = _nodiag(sib_scores)
    idx = np.arange(sib.shape[0])
    d_arc = d_logits_last.copy()
    d_sib = np.zeros_like(sib)
    d_log = d_logits_last
    for t in range(len(qs) - 1, 0, -1):
        prev_q = qs[t - 1]
        contrib = d_log[:, None, :] * prev_q[None, :, :]
        contrib[idx, idx, :] = 0.0
        d_sib += contrib
        # the message into level t came from Q^{t-1}; push through that
        # softmax to get the gradient at level t-1's logits
        d_q = np.einsum("ikj,ij->kj", sib, d_log)
        d_log = prev_q * (d_q - np.sum(d_q * prev_q, axis=1, keepdims=True))
        d_arc += d_log
    return d_arc, d_sib


# ---------------------------------------------------------------------------
# Models


def featurize_sib(hasher: FeatureHasher, tokens, dep_a: int, dep_b: int, head: int) -> FeatureVec:
    """Sibling factor features for 0-based dependents sharing `head`
    (0 = root or 1-based); symmetric in the two dependents."""
    i, k = sorted((dep_a, dep_b))
    head_tok = "<root>" if head == 0 else tokens[head - 1]
    h0 = head - 1  # 0-based head position, -1 for root
    side = "L" if head != 0 and h0 < i else ("R" if head == 0 or h0 > k else "M")
    feats = [
        f"sib.pair={tokens[i]}|{tokens[k]}",
        f"sib.h={head_tok}",
        f"sib.gap={min(k - i, 5)}",
        f"sib.side={side}",
    ]
    return hasher.vec(feats)


@dataclass
class PreparedParse:
    n: int
    arc_block: SlotBlock  # sites = n*(n+1) flattened (dep, head)
    rel_block: SlotBlock  # sites = n tokens
    sib_block: SlotBlock | None = None  # sites = triples (i<k, j) when second-order
    sib_index: np.ndarray | None = None  # (sites, 3) rows (i, k, j)


class FirstOrderParser(HashedModel):
    """Head-selection parser: per-token softmax over arcs and relations."""

    family = "dep-1st"
    alphabet_key = "rels"
    gold_type = HeadAssignment

    def __init__(self, rels: LabelAlphabet, bits: int = 20):
        self.rels = rels
        self.hasher = FeatureHasher(bits)
        self.params = {
            "arc_weights": np.zeros(self.hasher.size),
            "arc_bias": np.zeros(1),
            "rel_weights": np.zeros(self.hasher.size),
            "rel_bias": np.zeros(len(rels)),
        }

    def _arc_fvecs(self, tokens):
        n = len(tokens)
        empty = FeatureVec(np.zeros(0, dtype=np.int64), np.zeros(0))
        fvecs = []
        for i in range(n):
            for j in range(n + 1):
                fvecs.append(empty if j == i + 1 else featurize_arc(self.hasher, tokens, i, j))
        return fvecs

    def prepare(self, tokens) -> PreparedParse:
        n = len(tokens)
        arc_block = build_slot_block(self.hasher, self._arc_fvecs(tokens), 1)
        rel_fvecs = [featurize_token(self.hasher, tokens, i) for i in range(n)]
        rel_block = build_slot_block(self.hasher, rel_fvecs, len(self.rels))
        return PreparedParse(n, arc_block, rel_block)

    def arc_logits(self, prep: PreparedParse, scale: float = 1.0) -> np.ndarray:
        p = self.params
        raw = prep.arc_block.scores(p["arc_weights"], p["arc_bias"])[:, 0]
        raw = raw.reshape(prep.n, prep.n + 1)
        return raw * scale + self_mask(prep.n)

    def rel_logits(self, prep: PreparedParse, scale: float = 1.0) -> np.ndarray:
        return prep.rel_block.scores(self.params["rel_weights"], self.params["rel_bias"]) * scale

    def distributions(self, prep: PreparedParse, scale: float = 1.0) -> ArcDistributions:
        return ArcDistributions(
            softmax_last(self.arc_logits(prep, scale)),
            softmax_last(self.rel_logits(prep, scale)),
        )

    def scatter_arc_grad(self, prep: PreparedParse, d_arc: np.ndarray, out: dict, coef=1.0):
        prep.arc_block.scatter(out["arc_weights"], out["arc_bias"], (coef * d_arc).reshape(-1, 1))

    def scatter_rel_grad(self, prep: PreparedParse, d_rel: np.ndarray, out: dict, coef=1.0):
        prep.rel_block.scatter(out["rel_weights"], out["rel_bias"], coef * d_rel)

    def objective(self, prep: PreparedParse, gold, table, lam: float, out: dict, coef=1.0):
        """`rows_objective` over the head rows and the relation rows of one
        sentence; accumulates coef * gradient into out and returns the loss."""
        heads = rels = q_head = q_rel = None
        if gold is not None:
            heads, rels = np.array(gold.heads), np.array(gold.rels)
        if table is not None:
            q_head, q_rel = table.head_rows, table.rel_rows
        loss, (d_arc, d_rel) = rows_objective(
            [(self.arc_logits(prep), heads, q_head), (self.rel_logits(prep), rels, q_rel)], lam
        )
        self.scatter_arc_grad(prep, d_arc, out, coef)
        self.scatter_rel_grad(prep, d_rel, out, coef)
        return loss

    def decode(self, prep: PreparedParse) -> HeadAssignment:
        return decode_heads(self.distributions(prep))


class SecondOrderParser(FirstOrderParser):
    """Adds sibling factors refined by mean-field inference (K iterations);
    relations stay first-order."""

    family = "dep-2nd"
    options = ("iterations",)

    def __init__(self, rels: LabelAlphabet, bits: int = 20, iterations: int = 3):
        super().__init__(rels, bits)
        self.params.update(sib_weights=np.zeros(self.hasher.size), sib_bias=np.zeros(1))
        self.iterations = iterations

    def prepare(self, tokens) -> PreparedParse:
        prep = super().prepare(tokens)
        n = prep.n
        fvecs, index = [], []
        for i in range(n):
            for k in range(i + 1, n):
                for j in range(n + 1):
                    if j == i + 1 or j == k + 1:
                        continue
                    fvecs.append(featurize_sib(self.hasher, tokens, i, k, j))
                    index.append((i, k, j))
        if fvecs:
            prep.sib_block = build_slot_block(self.hasher, fvecs, 1)
            prep.sib_index = np.array(index, dtype=np.int64)
        else:
            prep.sib_index = np.zeros((0, 3), dtype=np.int64)
        return prep

    def sib_tensor(self, prep: PreparedParse, scale: float = 1.0) -> np.ndarray:
        n = prep.n
        sib = np.zeros((n, n, n + 1))
        if prep.sib_block is not None:
            p = self.params
            vals = prep.sib_block.scores(p["sib_weights"], p["sib_bias"])[:, 0] * scale
            i, k, j = prep.sib_index.T
            sib[i, k, j] = vals
            sib[k, i, j] = vals
        return sib

    def head_rows(self, prep: PreparedParse, scale: float = 1.0) -> np.ndarray:
        return mfvi_second_order(
            self.arc_logits(prep, scale), self.sib_tensor(prep, scale), self.iterations
        )

    def distributions(self, prep: PreparedParse, scale: float = 1.0) -> ArcDistributions:
        return ArcDistributions(
            self.head_rows(prep, scale), softmax_last(self.rel_logits(prep, scale))
        )

    def objective(self, prep: PreparedParse, gold, table, lam: float, out: dict, coef=1.0):
        """The gold NLL through the mean-field iterations; this family is a
        teacher only, so lam must be 0."""
        if lam > 0.0:
            raise ValueError("the second-order parser is a teacher family, not a KD student")
        arc = self.arc_logits(prep)
        sib = self.sib_tensor(prep)
        qs = mfvi_trace(arc, sib, self.iterations)
        rel_lp = log_softmax(self.rel_logits(prep))
        idx = np.arange(prep.n)
        heads = np.array(gold.heads)
        rels = np.array(gold.rels)
        with np.errstate(divide="ignore"):
            head_lp = np.log(qs[-1][idx, heads])
        loss = -float(head_lp.sum() + rel_lp[idx, rels].sum())

        d_logits = qs[-1].copy()
        d_logits[idx, heads] -= 1.0
        d_arc, d_sib = mfvi_backward(sib, qs, d_logits)
        self.scatter_arc_grad(prep, d_arc, out, coef)
        if prep.sib_block is not None:
            i, k, j = prep.sib_index.T
            per_factor = d_sib[i, k, j] + d_sib[k, i, j]
            coef_sib = (coef * per_factor).reshape(-1, 1)
            prep.sib_block.scatter(out["sib_weights"], out["sib_bias"], coef_sib)
        d_rel = np.exp(rel_lp)
        d_rel[idx, rels] -= 1.0
        self.scatter_rel_grad(prep, d_rel, out, coef)
        return loss
