"""Token-wise locally normalized classifier (MaxEnt).

Each position gets an independent softmax over labels; the model is both a
student (distilled from chain or span teachers) and a teacher (whose pair
marginals are products of its token rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_crf import ChainMarginals
from .corpus import LabelAlphabet, TagSequence
from .numerics import Runs, log_softmax, rows_objective
from .scorer import (
    FeatureHasher,
    HashedModel,
    SlotBlock,
    StackedBlock,
    build_slot_block,
    featurize_token,
    stack_features,
    stack_slot_blocks,
)

# sites scored per pass when decoding a whole corpus: about one training
# mini-batch, so decoding gathers (sites, labels, features) blocks no larger
# than a training step does, and adds nothing to peak memory
DECODE_CHUNK = 256


@dataclass
class TokenDistributions:
    rows: np.ndarray  # (n, L), each row sums to 1

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def n_labels(self):
        return self.rows.shape[1]


class MaxEntTagger(HashedModel):
    family = "ner-maxent"
    alphabet_key = "tags"
    gold_type = TagSequence

    def __init__(self, tags: LabelAlphabet, bits: int = 20):
        self.tags = tags
        self.hasher = FeatureHasher(bits)
        self.params = {"weights": np.zeros(self.hasher.size), "bias": np.zeros(len(tags))}

    def prepare(self, tokens) -> SlotBlock:
        fvecs = [featurize_token(self.hasher, tokens, i) for i in range(len(tokens))]
        return build_slot_block(self.hasher, fvecs, len(self.tags))

    def prepare_corpus(self, token_lists) -> StackedBlock:
        """Features of many sentences stacked into one block."""
        fvec_lists = [
            [featurize_token(self.hasher, tokens, i) for i in range(len(tokens))]
            for tokens in token_lists
        ]
        return stack_features(self.hasher, fvec_lists, len(self.tags))

    def stack(self, blocks) -> StackedBlock:
        """One StackedBlock for per-sentence blocks made by `prepare`; a
        StackedBlock comes back as it is."""
        if isinstance(blocks, StackedBlock):
            return blocks
        return stack_slot_blocks(blocks, self.hasher.label_salts(len(self.tags)))

    def logits(self, prep: SlotBlock, scale: float = 1.0) -> np.ndarray:
        return prep.scores(self.params["weights"], self.params["bias"]) * scale

    def token_distributions(self, prep: SlotBlock, scale: float = 1.0) -> TokenDistributions:
        return TokenDistributions(np.exp(log_softmax(self.logits(prep, scale))))

    def objective(self, prep: SlotBlock, gold, table, lam: float, out: dict, coef=1.0):
        """One sentence's `rows_objective` over its token rows; accumulates
        coef * gradient into out and returns the loss."""
        gold_ids = None if gold is None else np.asarray(gold.tags)
        q = None if table is None else table.rows
        loss, (d,) = rows_objective([(self.logits(prep), gold_ids, q)], lam)
        prep.scatter(out["weights"], out["bias"], coef * d)
        return loss

    def batch_objective(self, corpus: StackedBlock, batch, golds, tables, lam, out, coef=1.0):
        """`objective` for a whole mini-batch of a stacked corpus: one score,
        softmax and scatter over the sentences' sites, with the gold tags and
        teacher rows (if `tables` is not None) of those sites gathered in the
        same order.  Returns the per-sentence losses in batch order, each
        bit-identical to `objective`'s, and leaves the same gradient in `out`."""
        rows = corpus.rows(batch)
        runs = Runs(corpus.offsets[batch + 1] - corpus.offsets[batch])
        logits = corpus.scores(self.params["weights"], self.params["bias"], rows)
        tags = np.array([t for i in batch for t in golds[i].tags], dtype=np.int64)
        q = None if tables is None else np.concatenate([tables[i].rows for i in batch])
        loss, (d,) = rows_objective([(logits, tags, q)], lam, runs)
        corpus.scatter(out["weights"], out["bias"], coef * d, rows, runs)
        return loss.tolist()

    def decode(self, prep: SlotBlock) -> TagSequence:
        return TagSequence(tuple(int(t) for t in np.argmax(self.logits(prep), axis=1)))

    def decode_corpus(self, corpus: StackedBlock) -> list:
        """Per-site argmax over a whole stacked corpus, one TagSequence per
        sentence; the same tags as `decode` sentence by sentence."""
        n_rows = corpus.offsets[-1]
        tags = []
        for a in range(0, n_rows, DECODE_CHUNK):
            rows = np.arange(a, min(a + DECODE_CHUNK, n_rows))
            scores = corpus.scores(self.params["weights"], self.params["bias"], rows)
            tags.extend(np.argmax(scores, axis=1).tolist())
        return [TagSequence(tags[a:b]) for a, b in zip(corpus.offsets, corpus.offsets[1:])]


def pair_marginals_from_tokens(d: TokenDistributions) -> ChainMarginals:
    """Chain marginal table implied by independent token rows: each pair
    slice is the outer product of the two adjacent rows."""
    rows = d.rows
    n, L = rows.shape
    pairwise = rows[:-1, :, None] * rows[1:, None, :]
    return ChainMarginals(pairwise, rows.copy())
