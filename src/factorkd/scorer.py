"""Hashed sparse linear scoring with gradient accumulation.

Feature strings are hashed with FNV-1a (64-bit) followed by the splitmix64
finalizer and masked to the configured hash-space width, so ids are stable
across platforms and runs.  Label conditioning XORs a label-salted constant
into the id, which keeps the slot inside the hash space.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from .corpus import LabelAlphabet


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_LABEL_SEED = 0x9E3779B97F4A7C15
ROOT_TOKEN = "<root>"
_BOUNDARY = "<pad>"


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def hash_feature(s: str) -> int:
    h = _FNV_OFFSET
    for b in s.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return _splitmix64(h)


@dataclass
class FeatureVec:
    """Hashed feature ids (already masked to the hash space) with weights."""

    ids: np.ndarray
    values: np.ndarray


class FeatureHasher:
    def __init__(self, bits: int = 20):
        if not 1 <= bits <= 30:
            raise ValueError("hash space width must be between 2^1 and 2^30")
        self.bits = bits
        self.mask = (1 << bits) - 1
        self.size = 1 << bits
        self._cache: dict[str, int] = {}

    def feature_id(self, s: str) -> int:
        fid = self._cache.get(s)
        if fid is None:
            fid = hash_feature(s) & self.mask
            self._cache[s] = fid
        return fid

    def label_salts(self, n_labels: int) -> np.ndarray:
        return np.array(
            [_splitmix64(_LABEL_SEED ^ (lab + 1)) & self.mask for lab in range(n_labels)],
            dtype=np.int64,
        )

    def vec(self, strings) -> FeatureVec:
        # duplicate template strings collapse to a single feature
        seen = dict.fromkeys(strings)
        ids = np.fromiter((self.feature_id(s) for s in seen), dtype=np.int64, count=len(seen))
        return FeatureVec(ids, np.ones(len(seen)))


def _token_templates(tokens, i, prefix=""):
    n = len(tokens)
    if not 0 <= i < n:
        raise ValueError(f"position {i} outside sentence of length {n}")
    w = tokens[i]
    feats = [f"{prefix}w={w}", f"{prefix}lo={w.lower()}"]
    for k in (1, 2, 3):
        if len(w) >= k:
            # affix features are unoriented: a length-k prefix and suffix
            # that coincide textually hash to the same id
            feats.append(f"{prefix}afx{k}={w[:k]}")
            feats.append(f"{prefix}afx{k}={w[-k:]}")
    feats.append(f"{prefix}prev={tokens[i - 1] if i > 0 else _BOUNDARY}")
    feats.append(f"{prefix}next={tokens[i + 1] if i + 1 < n else _BOUNDARY}")
    return feats


def _distance_bucket(d: int) -> str:
    sign = "-" if d < 0 else "+"
    a = abs(d)
    for cap in (1, 2, 3, 5, 8):
        if a <= cap:
            return f"{sign}{cap}"
    return f"{sign}inf"


def featurize_token(hasher: FeatureHasher, tokens, i) -> FeatureVec:
    """Features of token i: identity, lowercase, affixes <= 3, neighbors."""
    return hasher.vec(_token_templates(tokens, i))


def featurize_arc(hasher: FeatureHasher, tokens, dep, head) -> FeatureVec:
    """Features of the arc head -> dep; head index is 1-based with 0 = root."""
    n = len(tokens)
    if not (0 <= dep < n and 0 <= head <= n):
        raise ValueError(f"arc descriptor ({dep},{head}) outside sentence of length {n}")
    head_tok = ROOT_TOKEN if head == 0 else tokens[head - 1]
    feats = _token_templates(tokens, dep, prefix="d.")
    feats.append(f"h.w={head_tok}")
    feats.append(f"h.lo={head_tok.lower()}")
    feats.append(f"hd={head_tok}|{tokens[dep]}")
    feats.append(f"dist={_distance_bucket(0 if head == 0 else head - 1 - dep)}")
    if head == 0:
        feats.append("root")
    return hasher.vec(feats)


def featurize_span(hasher: FeatureHasher, tokens, start, end) -> FeatureVec:
    """Features of the 0-based inclusive span [start, end]: boundary tokens,
    interior tokens, outside neighbors, and a length bucket."""
    n = len(tokens)
    if not 0 <= start <= end < n:
        raise ValueError(f"span descriptor ({start},{end}) outside sentence of length {n}")
    a, b = tokens[start], tokens[end]
    feats = [
        f"sb.w={a}",
        f"sb.lo={a.lower()}",
        f"se.w={b}",
        f"se.lo={b.lower()}",
        f"s.out<={tokens[start - 1] if start > 0 else _BOUNDARY}",
        f"s.out>={tokens[end + 1] if end + 1 < n else _BOUNDARY}",
        f"s.len={_distance_bucket(end - start + 1)}",
    ]
    for k in (1, 2):
        if len(a) >= k:
            feats.append(f"sb.afx{k}={a[:k]}")
            feats.append(f"sb.afx{k}={a[-k:]}")
    for p in range(start + 1, end):
        feats.append(f"s.in={tokens[p]}")
    return hasher.vec(feats)


def score(params, hasher: FeatureHasher, f: FeatureVec, label: int) -> float:
    """Score of (f, label) under a mapping with "weights" and "bias" arrays."""
    weights, bias = params["weights"], params["bias"]
    if not 0 <= label < len(bias):
        raise ValueError(f"label id {label} outside 0..{len(bias) - 1}")
    salt = _splitmix64(_LABEL_SEED ^ (label + 1)) & hasher.mask
    return float(weights[f.ids ^ salt] @ f.values + bias[label])


def accumulate_grad(
    grad, hasher: FeatureHasher, f: FeatureVec, label: int, coefficient: float
):
    """grad[slot] += coefficient * value for every feature slot of (f, label),
    into a mapping with "weights" and "bias" arrays."""
    salt = _splitmix64(_LABEL_SEED ^ (label + 1)) & hasher.mask
    np.add.at(grad["weights"], f.ids ^ salt, coefficient * f.values)
    grad["bias"][label] += coefficient


# ---------------------------------------------------------------------------
# Prepared (vectorized) feature blocks


@dataclass
class SlotBlock:
    """Padded feature slots for a batch of sites sharing a label space.

    slots has shape sites x labels x max_features; vals is sites x
    max_features with zero padding, so padded slots contribute nothing to
    scores or gradients.
    """

    slots: np.ndarray
    vals: np.ndarray

    def scores(self, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        w = weights[self.slots]
        return np.einsum("slf,sf->sl", w, self.vals) + bias

    def scatter(self, weights: np.ndarray, bias: np.ndarray, coef: np.ndarray):
        """Accumulate d(loss)/d(score) given per (site, label) into the
        gradient arrays.  The slots go to np.add.at as one flat index, which
        numpy handles several times faster than a 3-D one, in the same order."""
        values = coef[:, :, None] * self.vals[:, None, :]
        np.add.at(weights, self.slots.reshape(-1), values.reshape(-1))
        bias += coef.sum(axis=0)


def _pad_features(fvecs, width: int):
    ids = np.zeros((len(fvecs), width), dtype=np.int64)
    vals = np.zeros((len(fvecs), width))
    for k, f in enumerate(fvecs):
        ids[k, : len(f.ids)] = f.ids
        vals[k, : len(f.ids)] = f.values
    return ids, vals


def build_slot_block(hasher: FeatureHasher, fvecs, n_labels: int) -> SlotBlock:
    salts = hasher.label_salts(n_labels)
    ids, vals = _pad_features(fvecs, max(len(f.ids) for f in fvecs))
    slots = ids[:, None, :] ^ salts[None, :, None]
    return SlotBlock(slots, vals)


@dataclass
class StackedBlock:
    """Padded feature ids of a whole corpus of sites sharing a label space.

    ids and vals are sites x max_features with zero padding; sentence k owns
    rows offsets[k]:offsets[k+1].  Slots (ids ^ label salt) are formed per
    gather, so the ids take 1/L of the room of the per-sentence SlotBlocks'
    slots they stand for.  widths[r] is the width of the SlotBlock of row r's
    sentence: scores are summed at that width, because einsum's summation
    order depends on it, and so stay bit-identical to SlotBlock.scores.
    """

    ids: np.ndarray
    vals: np.ndarray
    widths: np.ndarray
    offsets: np.ndarray
    salts: np.ndarray

    def rows(self, sentences) -> np.ndarray:
        """Row ids of the given sentences' sites, sentence after sentence."""
        starts = self.offsets[sentences]
        lengths = self.offsets[np.asarray(sentences) + 1] - starts
        return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(
            lengths.sum()
        )

    def block(self, k: int) -> SlotBlock:
        """Sentence k's own SlotBlock."""
        a, b = self.offsets[k], self.offsets[k + 1]
        width = self.widths[a]
        slots = self.ids[a:b, None, :width] ^ self.salts[None, :, None]
        return SlotBlock(slots, self.vals[a:b, :width].copy())

    def scores(self, weights: np.ndarray, bias: np.ndarray, rows) -> np.ndarray:
        widths = self.widths[rows]
        groups = set(widths.tolist())
        if len(groups) == 1:
            return self._raw_scores(weights, rows, groups.pop()) + bias
        out = np.empty((len(rows), len(self.salts)))
        for width in groups:
            sel = widths == width
            out[sel] = self._raw_scores(weights, rows[sel], width)
        return out + bias

    def _raw_scores(self, weights, rows, width):
        ids = self.ids[rows, :width]
        w = weights[ids[:, None, :] ^ self.salts[None, :, None]]
        return np.einsum("slf,sf->sl", w, self.vals[rows, :width])

    def scatter(self, weights: np.ndarray, bias: np.ndarray, coef: np.ndarray, rows, runs):
        """Accumulate d(loss)/d(score) per (row, label) into the gradient
        arrays as the rows' sentences (`runs` of rows, in order) would one
        after another through SlotBlock.scatter: the weights in one
        sequential pass (padded features add zeros), the bias one sentence
        sum at a time."""
        slots = self.ids[rows][:, None, :] ^ self.salts[None, :, None]
        values = coef[:, :, None] * self.vals[rows][:, None, :]
        np.add.at(weights, slots.reshape(-1), values.reshape(-1))
        # numpy sums over a leading axis row after row, as `+=` per sentence
        bias[:] = np.vstack([bias, runs.sums(coef)]).sum(axis=0)


def _offsets(lengths) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum(lengths)
    return offsets


def stack_features(hasher: FeatureHasher, fvec_lists, n_labels: int) -> StackedBlock:
    """One StackedBlock for per-sentence lists of site feature vectors."""
    lengths = [len(fvecs) for fvecs in fvec_lists]
    widths = [max(len(f.ids) for f in fvecs) for fvecs in fvec_lists]
    ids, vals = _pad_features([f for fvecs in fvec_lists for f in fvecs], max(widths, default=0))
    return StackedBlock(
        ids, vals, np.repeat(widths, lengths), _offsets(lengths), hasher.label_salts(n_labels)
    )


def stack_slot_blocks(blocks, salts: np.ndarray) -> StackedBlock:
    """The StackedBlock of already-built per-sentence SlotBlocks."""
    lengths = [len(b.vals) for b in blocks]
    widths = [b.vals.shape[1] for b in blocks]
    offsets = _offsets(lengths)
    ids = np.zeros((offsets[-1], max(widths, default=0)), dtype=np.int64)
    vals = np.zeros(ids.shape)
    for b, start, end, width in zip(blocks, offsets, offsets[1:], widths):
        ids[start:end, :width] = b.slots[:, 0, :] ^ salts[0]
        vals[start:end, :width] = b.vals
    return StackedBlock(ids, vals, np.repeat(widths, lengths), offsets, salts)


# ---------------------------------------------------------------------------
# Parameters and model files


TEMPLATE_VERSION = "tmpl-v1"


def encode_array(a: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def decode_array(s: str, shape=None) -> np.ndarray:
    a = np.frombuffer(base64.b64decode(s.encode("ascii")), dtype="<f8").copy()
    return a.reshape(shape) if shape is not None else a


class HashedModel:
    """Base of every model family: its parameters and its model file.

    `params` is an ordered dict of float64 arrays named as the blocks of the
    model file; a family's __init__ is the one place that says which blocks
    it has and what shapes they take.  Gradients are dicts with the same
    keys, a checkpoint is a copy of the arrays, and a model file holds one
    base64 block per array plus a header: the hash width, the alphabet in
    the attribute named `alphabet_key`, and the constructor arguments named
    in `options`.  `gold_type` is the class of the family's gold structures.
    A corpus is trained and decoded through `prepare_corpus`,
    `batch_objective` and `decode_corpus`: by default a list of per-sentence
    `prepare`s, `objective`s and `decode`s, overridden by a family that
    batches its work (and whose `stack` makes its corpus from `prepare`s).
    """

    family: str
    alphabet_key: str
    gold_type: type
    options: tuple = ()

    def prepare_corpus(self, token_lists):
        return [self.prepare(tokens) for tokens in token_lists]

    def stack(self, preps):
        return preps

    def batch_objective(self, corpus, batch, golds, tables, lam: float, out: dict, coef=1.0):
        """The mini-batch `batch` (indices into the corpus) of the objective:
        `objective` per sentence in batch order, with golds[i] and tables[i]
        (or no table when `tables` is None).  Accumulates coef * gradient
        into out and returns the per-sentence losses in batch order."""
        return [
            self.objective(corpus[i], golds[i], None if tables is None else tables[i], lam, out, coef)
            for i in batch
        ]

    def decode_corpus(self, corpus) -> list:
        return [self.decode(prep) for prep in corpus]

    def forbidden_part(self, gold):
        """The first part of a gold structure that the model's constraints
        forbid, described by its labels; None when it is allowed."""
        return None

    def new_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.params.items()}

    def sgd_step(self, grads: dict, lr: float):
        for k, p in self.params.items():
            p -= lr * grads[k]

    def snapshot(self) -> dict:
        return {k: v.copy() for k, v in self.params.items()}

    def restore(self, snap: dict):
        for k, p in self.params.items():
            p[...] = snap[k]

    def to_payload(self) -> dict:
        payload = {
            "family": self.family,
            "hash_bits": self.hasher.bits,
            "templates": TEMPLATE_VERSION,
            "alphabets": {self.alphabet_key: getattr(self, self.alphabet_key).to_dict()},
            "blocks": {k: encode_array(v) for k, v in self.params.items()},
        }
        payload.update((k, getattr(self, k)) for k in self.options)
        return payload

    @classmethod
    def from_payload(cls, p):
        """The model a payload describes.  Its template version and the
        length of every block are checked against the zero model built from
        its header before any block is decoded."""
        if p.get("templates") != TEMPLATE_VERSION:
            raise ValueError(
                f"feature templates {p.get('templates')!r}, expected {TEMPLATE_VERSION!r}"
            )
        alphabet = LabelAlphabet.from_dict(p["alphabets"][cls.alphabet_key])
        model = cls(alphabet, bits=p["hash_bits"], **{k: p[k] for k in cls.options if k in p})
        blocks = p["blocks"]
        for name, zero in model.params.items():
            if name not in blocks:
                raise ValueError(f"block {name!r} is missing")
            encoded = blocks[name]
            got = (len(encoded) * 3 // 4 - encoded[-2:].count("=")) / 8
            if got != zero.size:
                basis = f"{len(alphabet)} labels"
                if name.endswith("weights"):
                    basis = f"2^{model.hasher.bits} hash slots"
                raise ValueError(
                    f"block {name!r} has {got:g} entries, expected {zero.size} ({basis})"
                )
        for name, zero in model.params.items():
            model.params[name] = decode_array(blocks[name], zero.shape)
        return model
