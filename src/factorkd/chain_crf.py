"""Exact inference for linear-chain CRFs.

A lattice holds per-position emission scores, per-transition scores, and
explicit start/stop boundary vectors:

    score(y) = start[y_1] + sum_i em[i][y_i]
             + sum_{i>1} tr[i-1][y_{i-1}, y_i] + stop[y_n]

The pairwise substructure at position i absorbs the emission of its right
label, so pair (a, b) ending at position i scores tr + em[i][b]; position 1
is the degenerate pair (BOS, y_1) with score start + em[1].  The forward
pass computes alpha, the backward pass beta, and marginals follow the
classical product alpha * edge * beta / Z.

All of this runs in one batched kernel, `forward_backward`, which takes a
list of lattices (one mini-batch) and returns log Z per lattice with its
unary and pairwise marginals.  The lattices are padded to the longest one,
as (B, N, L) emissions and (B, N-1, L, L) transitions, and one forward and
one backward loop run over the positions.  The padding is the exact
identity of the log semiring: padded emissions are 0 and padded
transitions are 0 on the diagonal and -inf off it, so alpha and beta pass
through padded positions unchanged, bit for bit, and no length masks are
needed.  Every reduction has the same shape and memory order as in a
single lattice, so a lattice gets bit-identical results in any batch;
`log_partition`, `pairwise_marginals` and `unary_marginals` are the
one-lattice views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabelAlphabet, TagSequence, BioesCodec
from .numerics import NEG_INF, logsumexp_last, masked_inner, softmax_last
from .scorer import (
    FeatureHasher,
    HashedModel,
    SlotBlock,
    build_slot_block,
    featurize_token,
)


@dataclass
class ChainLattice:
    emissions: np.ndarray  # (n, L)
    transitions: np.ndarray  # (n-1, L, L)
    start: np.ndarray  # (L,)
    stop: np.ndarray  # (L,)

    @property
    def n(self):
        return self.emissions.shape[0]

    @property
    def n_labels(self):
        return self.emissions.shape[1]


@dataclass
class ChainMarginals:
    """Chain marginal table: one distribution per pairwise slice plus one
    per position.  Slice i covers the label pair at positions (i, i+1)."""

    pairwise: np.ndarray  # (n-1, L, L), each slice sums to 1
    unary: np.ndarray  # (n, L), each row sums to 1

    @property
    def n(self):
        return self.unary.shape[0]

    @property
    def n_labels(self):
        return self.unary.shape[1]


@dataclass
class LatticeGrad:
    emissions: np.ndarray
    transitions: np.ndarray
    start: np.ndarray
    stop: np.ndarray


def _identity_transitions(L):
    """The (L, L) transition block of a padded position: 0 on the diagonal
    (the label stays), -inf elsewhere."""
    block = np.full((L, L), NEG_INF)
    np.fill_diagonal(block, 0.0)
    return block


def _alpha_beta(lattices):
    """Padded forward and backward passes over a list of lattices that share
    one label space.  Returns (em, tr, alpha, beta, log_z): the padded
    (B, N, L) emissions and (B, N-1, L, L) transitions, alpha and beta as
    (B, N, L), and log Z as (B,)."""
    B, N = len(lattices), max(lat.n for lat in lattices)
    L = lattices[0].n_labels
    em = np.empty((B, N, L))
    tr = np.empty((B, N - 1, L, L))
    start = np.empty((B, L))
    stop = np.empty((B, L))
    for b, lat in enumerate(lattices):
        n = lat.n
        em[b, :n] = lat.emissions
        tr[b, : n - 1] = lat.transitions
        if n < N:  # identity padding; nothing else is filled twice
            em[b, n:] = 0.0
            tr[b, n - 1 :] = _identity_transitions(L)
        start[b] = lat.start
        stop[b] = lat.stop

    alpha = np.empty((B, N, L))
    alpha[:, 0] = start + em[:, 0]
    for i in range(1, N):
        steps = alpha[:, i - 1, :, None] + tr[:, i - 1]  # [b, a, c]
        alpha[:, i] = em[:, i] + logsumexp_last(steps.transpose(0, 2, 1))
    beta = np.empty((B, N, L))
    beta[:, N - 1] = stop
    for i in range(N - 2, -1, -1):
        steps = tr[:, i] + (em[:, i + 1] + beta[:, i + 1])[:, None, :]
        beta[:, i] = logsumexp_last(steps)
    log_z = logsumexp_last(alpha[:, -1] + stop)
    return em, tr, alpha, beta, log_z


def forward_backward(lattices):
    """(log Z, marginals) for a batch of lattices: log Z as a (B,) array and
    one ChainMarginals per lattice, in input order.  Unary rows equal the
    pair-slice sums."""
    em, tr, alpha, beta, log_z = _alpha_beta(lattices)
    # the same sums in the same order as one expression, but in place:
    # the pairwise block is the largest array here, and `tr` is ours to reuse
    unary = alpha + beta
    unary -= log_z[:, None, None]
    np.exp(unary, out=unary)
    pairwise = np.add(tr, alpha[:, :-1, :, None], out=tr)
    pairwise += (em[:, 1:] + beta[:, 1:])[:, :, None, :]
    pairwise -= log_z[:, None, None, None]
    np.exp(pairwise, out=pairwise)
    margs = [
        ChainMarginals(pairwise[b, : lat.n - 1], unary[b, : lat.n])
        for b, lat in enumerate(lattices)
    ]
    return log_z, margs


def log_partition(lat: ChainLattice) -> float:
    return float(_alpha_beta([lat])[4][0])


def pairwise_marginals(lat: ChainLattice) -> ChainMarginals:
    return forward_backward([lat])[1][0]


def unary_marginals(lat: ChainLattice) -> np.ndarray:
    return pairwise_marginals(lat).unary


def viterbi(lat: ChainLattice) -> TagSequence:
    """Highest-scoring sequence; backpointer ties break toward the lowest
    label id (np.argmax keeps the first maximum)."""
    n, L = lat.emissions.shape
    delta = lat.start + lat.emissions[0]
    back = np.empty((n - 1, L), dtype=np.int64)
    for i in range(1, n):
        steps = delta[:, None] + lat.transitions[i - 1]  # [a, b]
        back[i - 1] = np.argmax(steps, axis=0)
        delta = lat.emissions[i] + np.max(steps, axis=0)
    tags = [int(np.argmax(delta + lat.stop))]
    for i in range(n - 2, -1, -1):
        tags.append(int(back[i][tags[-1]]))
    return TagSequence(tuple(reversed(tags)))


def sequence_score(lat: ChainLattice, tags) -> float:
    n = lat.n
    s = lat.start[tags[0]] + lat.emissions[0][tags[0]] + lat.stop[tags[n - 1]]
    for i in range(1, n):
        s += lat.transitions[i - 1][tags[i - 1], tags[i]] + lat.emissions[i][tags[i]]
    return float(s)


def lattice_objective(lat: ChainLattice, gold, table, lam: float, fb=None):
    """lam * KD + (1 - lam) * NLL of a chain lattice, and its gradient with
    respect to every lattice score: (loss, LatticeGrad).

    The NLL is log Z minus the score of the gold sequence; the KD loss is
    log Z minus the score expected under the teacher's chain table, whose
    first unary row couples to the start vector and the first emission (the
    degenerate BOS pair), each pair slice to its transition and the emission
    it ends on, and the last unary row to the stop vector.  The NLL is
    lam = 0 with no table, the KD loss lam = 1 with no gold.  The gradient
    is the student marginal minus the mixed target.  `fb` may carry the
    lattice's (marginals, log Z) from a batched `forward_backward`.
    """
    n, L = lat.emissions.shape
    if gold is not None:
        tags = tuple(gold)
        if len(tags) != n:
            raise ValueError(f"gold length {len(tags)} != lattice length {n}")
        if min(tags) < 0 or max(tags) >= L:
            raise ValueError("gold tag id outside the label space")
    if table is not None and table.unary.shape != (n, L):
        raise ValueError(f"teacher table {table.unary.shape} != student lattice ({n}, {L})")
    if fb is None:
        (log_z,), (marg,) = forward_backward([lat])
    else:
        marg, log_z = fb

    loss = log_z
    target_u = np.zeros_like(marg.unary)
    target_p = np.zeros_like(marg.pairwise)
    if gold is not None:
        loss = log_z - (1.0 - lam) * sequence_score(lat, tags)
        target_u[np.arange(n), tags] = 1.0 - lam
        for i in range(n - 1):
            target_p[i, tags[i], tags[i + 1]] = 1.0 - lam
    if table is not None and lam > 0.0:
        q_first, q_last = table.unary[0], table.unary[n - 1]
        expected = masked_inner(q_first, lat.start + lat.emissions[0]) + masked_inner(
            q_last, lat.stop
        )
        for i in range(n - 1):
            expected += masked_inner(
                table.pairwise[i], lat.transitions[i] + lat.emissions[i + 1][None, :]
            )
        loss -= lam * expected
        target_u += lam * table.unary
        target_p += lam * table.pairwise

    d_em = marg.unary.copy()
    d_em[0] -= target_u[0]
    if n > 1:
        d_em[1:] -= target_p.sum(axis=1)
    g = LatticeGrad(
        d_em, marg.pairwise - target_p, marg.unary[0] - target_u[0], marg.unary[-1] - target_u[-1]
    )
    return float(loss), g


def backward_scores(lat: ChainLattice) -> np.ndarray:
    """beta (n, L): log of the summed scores of every continuation after
    label y at position i, the stop score included."""
    return _alpha_beta([lat])[3][0]


def sample_tags(lat: ChainLattice, rng, beta=None) -> tuple:
    """Exact posterior draw by forward filtering, backward sampling
    (equivalently: sample y_1 from its filtered marginal, then each next
    label from the conditional given the prefix).  Pass the lattice's
    `backward_scores` as `beta` to sample one lattice many times."""
    n, L = lat.emissions.shape
    if beta is None:
        beta = backward_scores(lat)
    p0 = softmax_last(lat.start + lat.emissions[0] + beta[0])
    tags = [int(rng.choice(L, p=p0))]
    for i in range(1, n):
        logits = lat.transitions[i - 1][tags[-1]] + lat.emissions[i] + beta[i]
        tags.append(int(rng.choice(L, p=softmax_last(logits))))
    return tuple(tags)


# ---------------------------------------------------------------------------
# BIOES transition masking (optional, off by default)


def bioes_masks(codec: BioesCodec):
    """(-inf/0) masks forbidding label pairs that no valid BIOES sequence
    contains, plus start/stop masks for dangling B/I/E prefixes."""
    L = len(codec.tags)
    trans = np.zeros((L, L))
    start = np.zeros(L)
    stop = np.zeros(L)
    for a in range(L):
        pa, ta = codec.split(a)
        if pa in ("I", "E"):
            start[a] = NEG_INF
        if pa in ("B", "I"):
            stop[a] = NEG_INF
        for b in range(L):
            pb, tb = codec.split(b)
            inside_next = pb in ("I", "E") and ta == tb
            if pa in ("B", "I"):
                if not inside_next:
                    trans[a, b] = NEG_INF
            elif pb in ("I", "E"):
                trans[a, b] = NEG_INF
    return trans, start, stop


# ---------------------------------------------------------------------------
# Hashed linear CRF tagger


class ChainCrfTagger(HashedModel):
    """Linear-chain CRF with hashed emission features and dense transition,
    start, and stop parameters."""

    family = "ner-crf"
    alphabet_key = "tags"
    gold_type = TagSequence
    options = ("constrain_bioes",)

    def __init__(self, tags: LabelAlphabet, bits: int = 20, constrain_bioes: bool = False):
        self.tags = tags
        self.hasher = FeatureHasher(bits)
        L = len(tags)
        self.params = {
            "weights": np.zeros(self.hasher.size),
            "bias": np.zeros(L),
            "trans": np.zeros((L, L)),
            "start": np.zeros(L),
            "stop": np.zeros(L),
        }
        self.constrain_bioes = constrain_bioes
        self._masks = None
        if constrain_bioes:
            from .corpus import bioes_codec_from_tags

            codec = bioes_codec_from_tags(tags)
            tm, sm, pm = bioes_masks(codec)
            # reorder masks from codec tag order into this alphabet's order
            perm = np.array([codec.tags.index(lab) for lab in tags])
            self._masks = (tm[np.ix_(perm, perm)], sm[perm], pm[perm])

    def prepare(self, tokens) -> SlotBlock:
        fvecs = [featurize_token(self.hasher, tokens, i) for i in range(len(tokens))]
        return build_slot_block(self.hasher, fvecs, len(self.tags))

    def lattice(self, prep: SlotBlock, scale: float = 1.0) -> ChainLattice:
        n = prep.vals.shape[0]
        L = len(self.tags)
        p = self.params
        em = prep.scores(p["weights"], p["bias"]) * scale
        tr = np.broadcast_to(p["trans"] * scale, (max(n - 1, 0), L, L)).copy()
        start = p["start"] * scale
        stop = p["stop"] * scale
        if self._masks is not None:
            tr += self._masks[0]
            start = start + self._masks[1]
            stop = stop + self._masks[2]
        return ChainLattice(em, tr, start, stop)

    def forbidden_part(self, gold: TagSequence):
        """The first start, transition or stop of a gold tag sequence that
        the BIOES constraints forbid, described by its labels; None if the
        sequence is allowed (always, for an unconstrained tagger)."""
        if self._masks is None:
            return None
        tags = gold.tags
        trans, start, stop = self._masks
        label = self.tags.label
        if start[tags[0]] == NEG_INF:
            return f"start {label(tags[0])}"
        for a, b in zip(tags, tags[1:]):
            if trans[a, b] == NEG_INF:
                return f"transition {label(a)} -> {label(b)}"
        if stop[tags[-1]] == NEG_INF:
            return f"stop {label(tags[-1])}"
        return None

    def objective(self, prep: SlotBlock, gold, table, lam: float, out: dict, coef=1.0):
        """One sentence's `lattice_objective`; accumulates coef * gradient
        into out and returns the loss."""
        tables = None if table is None else [table]
        return self.batch_objective([prep], [0], [gold], tables, lam, out, coef)[0]

    def batch_objective(self, corpus, batch, golds, tables, lam: float, out: dict, coef=1.0):
        """`lattice_objective` per sentence in batch order, after one batched
        `forward_backward` over the mini-batch's lattices."""
        lats = [self.lattice(corpus[i]) for i in batch]
        log_z, margs = forward_backward(lats)
        losses = []
        for i, lat, marg, z in zip(batch, lats, margs, log_z):
            table = None if tables is None else tables[i]
            loss, g = lattice_objective(lat, golds[i], table, lam, (marg, z))
            corpus[i].scatter(out["weights"], out["bias"], coef * g.emissions)
            out["trans"] += coef * g.transitions.sum(axis=0)
            out["start"] += coef * g.start
            out["stop"] += coef * g.stop
            losses.append(loss)
        return losses

    def decode(self, prep: SlotBlock) -> TagSequence:
        return viterbi(self.lattice(prep))
