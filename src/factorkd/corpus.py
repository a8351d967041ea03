"""Data ingestion, structure encoding/decoding, and synthetic corpora.

Token positions inside :class:`SpanSet` and :class:`HeadAssignment` are
1-based (head 0 is the synthetic root); everything that is an array index
elsewhere in the package is 0-based.  Files are UTF-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LABELED = "labeled"
PSEUDO_LABELED = "pseudo-labeled"


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class LabelAlphabet:
    """Bijection between label strings and dense integer ids."""

    def __init__(self, role: str, labels=()):
        self.role = role
        self._labels: list[str] = []
        self._index: dict[str, int] = {}
        self.frozen = False
        for lab in labels:
            self.add(lab)

    def add(self, label: str) -> int:
        idx = self._index.get(label)
        if idx is not None:
            return idx
        if self.frozen:
            raise ValueError(f"unknown label {label!r} in frozen {self.role} alphabet")
        idx = len(self._labels)
        self._labels.append(label)
        self._index[label] = idx
        return idx

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {label!r} in {self.role} alphabet") from None

    def label(self, idx: int) -> str:
        return self._labels[idx]

    def freeze(self):
        self.frozen = True
        return self

    def __len__(self):
        return len(self._labels)

    def __contains__(self, label):
        return label in self._index

    def __iter__(self):
        return iter(self._labels)

    def __eq__(self, other):
        return (
            isinstance(other, LabelAlphabet)
            and self.role == other.role
            and self._labels == other._labels
        )

    def to_dict(self):
        return {"role": self.role, "labels": list(self._labels)}

    @classmethod
    def from_dict(cls, d):
        return cls(d["role"], d["labels"]).freeze()


@dataclass(frozen=True)
class TagSequence:
    """One label id per token."""

    tags: tuple

    def __post_init__(self):
        object.__setattr__(self, "tags", tuple(int(t) for t in self.tags))

    def label_ids(self):
        return self.tags

    def __len__(self):
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)


@dataclass(frozen=True)
class HeadAssignment:
    """Per-token head index (1-based, 0 = root) and relation label id."""

    heads: tuple
    rels: tuple

    def __post_init__(self):
        heads = tuple(int(h) for h in self.heads)
        rels = tuple(int(r) for r in self.rels)
        if len(heads) != len(rels):
            raise ValueError("heads and rels must have equal length")
        n = len(heads)
        for i, h in enumerate(heads, start=1):
            if not 0 <= h <= n:
                raise ValueError(f"head {h} of token {i} outside 0..{n}")
            if h == i:
                raise ValueError(f"token {i} cannot head itself")
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "rels", rels)

    def label_ids(self):
        return self.rels

    def __len__(self):
        return len(self.heads)


@dataclass(frozen=True)
class SpanSet:
    """Non-overlapping labeled spans, (start, end, type id), 1-based inclusive."""

    spans: frozenset

    def __post_init__(self):
        spans = frozenset((int(s), int(e), int(t)) for s, e, t in self.spans)
        covered = set()
        for s, e, t in spans:
            if not 1 <= s <= e:
                raise ValueError(f"bad span bounds ({s},{e})")
            for p in range(s, e + 1):
                if p in covered:
                    raise ValueError(f"overlapping spans at position {p}")
                covered.add(p)
        object.__setattr__(self, "spans", spans)

    def check_length(self, n):
        for s, e, _ in self.spans:
            if e > n:
                raise ValueError(f"span ({s},{e}) exceeds sentence length {n}")
        return self

    def label_ids(self):
        return [t for _, _, t in sorted(self.spans)]

    def __len__(self):
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)


@dataclass
class SentenceRecord:
    """Tokens plus optional gold structure."""

    tokens: list
    gold: object = None
    provenance: str = LABELED

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise ValueError("a sentence needs at least one token")
        n = len(self.tokens)
        g = self.gold
        if isinstance(g, (TagSequence, HeadAssignment)) and len(g) != n:
            raise ValueError(f"gold length {len(g)} != token count {n}")
        if isinstance(g, SpanSet):
            g.check_length(n)

    def __len__(self):
        return len(self.tokens)


# ---------------------------------------------------------------------------
# BIOES encoding


BIOES_PREFIXES = ("B", "I", "E", "S")


class BioesCodec:
    """Maps between labeled span sets and BIOES tag sequences.

    The tag alphabet is O followed by B/I/E/S for each entity type, so O is
    always id 0 and per-site argmax ties resolve toward O.
    """

    def __init__(self, type_alphabet: LabelAlphabet):
        self.types = type_alphabet
        labels = ["O"]
        for t in type_alphabet:
            labels.extend(f"{p}-{t}" for p in BIOES_PREFIXES)
        self.tags = LabelAlphabet("bioes", labels).freeze()
        self.o_id = 0

    def tag_id(self, prefix: str, type_id: int) -> int:
        return 1 + 4 * type_id + BIOES_PREFIXES.index(prefix)

    def split(self, tag_id: int):
        """(prefix, type id) of a tag; ('O', None) for the O tag."""
        if tag_id == self.o_id:
            return "O", None
        k = tag_id - 1
        return BIOES_PREFIXES[k % 4], k // 4

    def spans_to_bioes(self, spans: SpanSet, n: int) -> TagSequence:
        spans.check_length(n)
        tags = [self.o_id] * n
        for s, e, t in spans:
            if s == e:
                tags[s - 1] = self.tag_id("S", t)
            else:
                tags[s - 1] = self.tag_id("B", t)
                for p in range(s + 1, e):
                    tags[p - 1] = self.tag_id("I", t)
                tags[e - 1] = self.tag_id("E", t)
        return TagSequence(tags)

    def bioes_to_spans(self, tags: TagSequence) -> SpanSet:
        """Decode a (possibly invalid) BIOES sequence into spans.

        Repair rule for unconstrained decoder output: a segment is accepted
        only if it opens with B/S and closes with E/S with a consistent
        type; every other fragment is dropped, so no entity is fabricated
        that the decoder did not commit to.
        """
        spans = []
        open_start = None
        open_type = None
        for pos, tag in enumerate(tags, start=1):
            prefix, typ = self.split(tag)
            if prefix == "O":
                open_start = None
            elif prefix == "S":
                spans.append((pos, pos, typ))
                open_start = None
            elif prefix == "B":
                open_start, open_type = pos, typ
            elif prefix == "I":
                if open_start is not None and typ != open_type:
                    open_start = None
            else:  # E
                if open_start is not None and typ == open_type:
                    spans.append((open_start, pos, typ))
                open_start = None
        return SpanSet(frozenset(spans))


def bioes_codec_from_tags(tag_alphabet: LabelAlphabet) -> BioesCodec:
    """Recover a codec from a BIOES-shaped tag alphabet (order-insensitive)."""
    types = []
    for lab in tag_alphabet:
        if len(lab) > 2 and lab[1] == "-" and lab[0] in BIOES_PREFIXES:
            t = lab[2:]
            if t not in types:
                types.append(t)
    return BioesCodec(LabelAlphabet("entity-types", types).freeze())


def retag(tags: TagSequence, src: LabelAlphabet, dst: LabelAlphabet) -> TagSequence:
    """Re-encode tag ids from one alphabet into another by label string."""
    return TagSequence(tuple(dst.index(src.label(t)) for t in tags))


# ---------------------------------------------------------------------------
# CoNLL readers / writers


def _read_lines(source):
    if isinstance(source, (str, bytes)):
        raise TypeError("pass an open file object or use the *_path helpers")
    data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.splitlines()


def read_conll_ner(source, alphabet: LabelAlphabet | None = None):
    """Read whitespace-column NER data: token columns, tag last, blank-line
    sentence boundaries, ``-DOCSTART-`` lines dropped.

    Returns (records, tag alphabet); tags are kept verbatim as strings and
    interned into the alphabet in order of first occurrence.  Entity tags
    must be BIOES: a file with no E-/S- tag in which an I- tag ends an
    entity is IOB-tagged, and raises ParseError at the first such tag (its
    entities would otherwise decode to no spans at all).  Tag sets without
    B-/I-/E-/S- prefixes, such as POS tags, are read as they are.
    """
    if alphabet is None:
        alphabet = LabelAlphabet("ner-tags")
    records = []
    tokens, tag_names, tag_lines, width = [], [], [], None
    iob_end = None  # (line, tag) of the first I- tag that ends an entity
    has_closer = False  # an E- or S- tag was seen

    def flush():
        nonlocal tokens, tag_names, tag_lines, width, iob_end, has_closer
        if tokens:
            tags = TagSequence(tuple(alphabet.add(t) for t in tag_names))
            records.append(SentenceRecord(tokens, tags))
            has_closer = has_closer or any(t[:2] in ("E-", "S-") for t in tag_names)
            if iob_end is None:
                for tag, nxt, line in zip(tag_names, tag_names[1:] + ["O"], tag_lines):
                    if tag[:2] == "I-" and nxt not in ("I" + tag[1:], "E" + tag[1:]):
                        iob_end = (line, tag)
                        break
        tokens, tag_names, tag_lines, width = [], [], [], None

    for line_no, line in enumerate(_read_lines(source), start=1):
        if not line.strip():
            flush()
            continue
        if line.startswith("-DOCSTART-"):
            continue
        cols = line.split()
        if len(cols) < 2:
            raise ParseError(f"expected at least 2 columns, got {len(cols)}", line_no)
        if width is None:
            width = len(cols)
        elif len(cols) != width:
            raise ParseError(
                f"ragged columns: {len(cols)} vs {width} earlier in the sentence", line_no
            )
        tokens.append(cols[0])
        tag_names.append(cols[-1])
        tag_lines.append(line_no)
    flush()
    if iob_end is not None and not has_closer:
        line, tag = iob_end
        raise ParseError(
            f"{tag} ends an entity and the file has no E-/S- tags: "
            "this looks like IOB tagging, but BIOES tags are expected",
            line,
        )
    return records, alphabet


def read_conllu(source, rel_alphabet: LabelAlphabet | None = None):
    """Read 10-column CoNLL-U; only ID, FORM, HEAD and DEPREL are consumed.

    Comment lines start with '#'; multiword ranges and empty nodes (any
    non-integer ID) are skipped.  Each integer ID must be the token's 1-based
    position in its sentence, since HEAD refers to tokens by ID.
    """
    if rel_alphabet is None:
        rel_alphabet = LabelAlphabet("deprel")
    records = []
    tokens, heads, rels = [], [], []

    def flush(line_no):
        nonlocal tokens, heads, rels
        if tokens:
            try:
                gold = HeadAssignment(tuple(heads), tuple(rels))
            except ValueError as e:
                raise ParseError(str(e), line_no) from None
            records.append(SentenceRecord(tokens, gold))
        tokens, heads, rels = [], [], []

    line_no = 0
    for line_no, line in enumerate(_read_lines(source), start=1):
        if not line.strip():
            flush(line_no)
            continue
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}", line_no)
        if not cols[0].isdigit():
            continue  # multiword token range or empty node
        if int(cols[0]) != len(tokens) + 1:
            raise ParseError(f"token ID {cols[0]} where {len(tokens) + 1} was expected", line_no)
        try:
            head = int(cols[6])
        except ValueError:
            raise ParseError(f"non-integer HEAD {cols[6]!r}", line_no) from None
        tokens.append(cols[1])
        heads.append(head)
        rels.append(rel_alphabet.add(cols[7]))
    flush(line_no + 1)
    return records, rel_alphabet


def write_conll_ner(records, alphabet: LabelAlphabet, dest):
    for rec in records:
        for tok, tag in zip(rec.tokens, rec.gold.tags):
            dest.write(f"{tok} {alphabet.label(tag)}\n")
        dest.write("\n")


def write_conllu(records, rel_alphabet: LabelAlphabet, dest):
    for rec in records:
        gold = rec.gold
        for i, tok in enumerate(rec.tokens):
            rel = rel_alphabet.label(gold.rels[i])
            cols = [str(i + 1), tok, "_", "_", "_", "_", str(gold.heads[i]), rel, "_", "_"]
            dest.write("\t".join(cols) + "\n")
        dest.write("\n")


def read_tokens(source):
    """Unlabeled sentences: first whitespace column is the token, blank-line
    sentence boundaries; any further columns are ignored."""
    records = []
    tokens = []
    for line in _read_lines(source):
        if not line.strip():
            if tokens:
                records.append(SentenceRecord(tokens))
                tokens = []
            continue
        if line.startswith("-DOCSTART-"):
            continue
        tokens.append(line.split()[0])
    if tokens:
        records.append(SentenceRecord(tokens))
    return records


def read_ner_path(path, alphabet=None):
    with open(path, "rb") as f:
        return read_conll_ner(f, alphabet)


def read_tokens_path(path):
    with open(path, "rb") as f:
        return read_tokens(f)


def read_conllu_path(path, rel_alphabet=None):
    with open(path, "rb") as f:
        return read_conllu(f, rel_alphabet)


# ---------------------------------------------------------------------------
# Synthetic corpora from planted models


@dataclass
class SynthChainSpec:
    """Planted BIOES chain model: a label-transition CRF with token pools.

    Tag sequences are drawn exactly from the transition-only CRF by
    forward-filtering backward-sampling; tokens are then drawn per tag from
    pools that deliberately overlap across entity types, so transition
    structure carries signal a token-local model cannot fully recover.
    """

    entity_types: tuple = ("PER", "LOC")
    vocab_per_type: int = 30
    filler_vocab: int = 120
    shared_frac: float = 0.8  # interior tokens drawn from the shared pool
    boundary_shared_frac: float = 0.35  # boundary tokens occasionally ambiguous too
    trans_scale: float = 1.0


def _planted_chain_model(spec: SynthChainSpec, rng):
    codec = BioesCodec(LabelAlphabet("entity-types", spec.entity_types).freeze())
    L = len(codec.tags)
    forbid = -1e9  # effectively impossible, keeps lattice entries finite

    trans = rng.normal(0.0, spec.trans_scale, size=(L, L))
    start = rng.normal(0.0, spec.trans_scale, size=L)
    stop = rng.normal(0.0, spec.trans_scale, size=L)
    for a in range(L):
        pa, ta = codec.split(a)
        if pa in ("B", "I"):
            stop[a] = forbid
        if pa in ("I", "E"):
            start[a] = forbid
        for b in range(L):
            pb, tb = codec.split(b)
            inside_next = pb in ("I", "E") and ta == tb
            if pa in ("B", "I"):
                if not inside_next:
                    trans[a, b] = forbid
            else:
                if pb in ("I", "E"):
                    trans[a, b] = forbid
    # favor multi-token entities so transitions carry real signal
    for t in range(len(spec.entity_types)):
        b_id, i_id, e_id, s_id = (codec.tag_id(p, t) for p in BIOES_PREFIXES)
        start[b_id] += 0.8
        trans[codec.o_id, b_id] += 0.8
        trans[codec.o_id, s_id] -= 0.3
        trans[b_id, i_id] += 1.2
        trans[b_id, e_id] += 0.5
        trans[i_id, e_id] += 1.0
        trans[i_id, i_id] += 0.8
    return codec, trans, start, stop


def planted_chain_lattice(spec: SynthChainSpec, n: int, seed: int):
    """Zero-emission lattice of the planted chain model, for a given length."""
    from .chain_crf import ChainLattice

    rng = np.random.default_rng(seed)
    codec, trans, start, stop = _planted_chain_model(spec, rng)
    return codec, ChainLattice(
        emissions=np.zeros((n, len(codec.tags))),
        transitions=np.broadcast_to(trans, (max(n - 1, 0), len(codec.tags), len(codec.tags))).copy(),
        start=start.copy(),
        stop=stop.copy(),
    )


def _chain_token_pools(spec: SynthChainSpec):
    """Boundary tokens are type-flavored; entity interiors draw from a
    type-ambiguous shared pool, so segment type must be carried by context."""
    v = spec.vocab_per_type
    pools = {}
    for t, typ in enumerate(spec.entity_types):
        pools[("B", t)] = [f"{typ.lower()}b{k:03d}" for k in range(v)]
        pools[("E", t)] = [f"{typ.lower()}e{k:03d}" for k in range(v)]
        pools[("M", t)] = [f"{typ.lower()}m{k:03d}" for k in range(v)]
    pools["shared"] = [f"name{k:03d}" for k in range(v)]
    pools["O"] = [f"w{k:03d}" for k in range(spec.filler_vocab)]
    return pools


def _sample_chain_sentence(codec, lattice, beta, pools, spec, rng):
    from .chain_crf import sample_tags

    tags = sample_tags(lattice, rng, beta)
    tokens = []
    for tag in tags:
        prefix, typ = codec.split(tag)
        if prefix == "O":
            pool = pools["O"]
        elif prefix in ("B", "S"):
            shared = rng.random() < spec.boundary_shared_frac
            pool = pools["shared"] if shared else pools[("B", typ)]
        elif prefix == "E":
            shared = rng.random() < spec.boundary_shared_frac
            pool = pools["shared"] if shared else pools[("E", typ)]
        else:  # I: usually ambiguous between types
            pool = pools["shared"] if rng.random() < spec.shared_frac else pools[("M", typ)]
        tokens.append(pool[rng.integers(len(pool))])
    return SentenceRecord(tokens, TagSequence(tags))


def _synth_chain(n_sentences, min_len, max_len, spec, seed):
    rng = np.random.default_rng(seed)
    codec, trans, start, stop = _planted_chain_model(spec, np.random.default_rng(seed))
    pools = _chain_token_pools(spec)
    from .chain_crf import ChainLattice, backward_scores

    L = len(codec.tags)
    lattices = {}  # length -> (lattice, its backward scores)
    records = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        if n not in lattices:
            lat = ChainLattice(
                emissions=np.zeros((n, L)),
                transitions=np.broadcast_to(trans, (max(n - 1, 0), L, L)).copy(),
                start=start.copy(),
                stop=stop.copy(),
            )
            lattices[n] = (lat, backward_scores(lat))
        records.append(_sample_chain_sentence(codec, *lattices[n], pools, spec, rng))
    return records, codec.tags


def _synth_heads(n_sentences, min_len, max_len, n_rels, seed):
    rng = np.random.default_rng(seed)
    n_classes = 4
    rel_alpha = LabelAlphabet("deprel", [f"rel{r}" for r in range(n_rels)]).freeze()
    affinity = rng.normal(0.0, 1.0, size=(n_classes, n_classes + 1))
    rel_pref = rng.normal(0.0, 1.5, size=(n_classes, n_rels))
    vocab = [[f"c{c}t{k:02d}" for k in range(25)] for c in range(n_classes)]

    records = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        classes = rng.integers(n_classes, size=n)
        tokens = [vocab[c][rng.integers(25)] for c in classes]
        heads, rels = [], []
        for i in range(1, n + 1):
            cand = [j for j in range(n + 1) if j != i]
            logits = []
            for j in cand:
                aff = affinity[classes[i - 1], n_classes if j == 0 else classes[j - 1]]
                dist = 0.0 if j == 0 else -0.6 * (abs(j - i) - 1)
                logits.append(aff + dist)
            p = np.exp(logits - np.max(logits))
            p /= p.sum()
            heads.append(cand[rng.choice(len(cand), p=p)])
            pr = np.exp(rel_pref[classes[i - 1]] - rel_pref[classes[i - 1]].max())
            pr /= pr.sum()
            rels.append(int(rng.choice(n_rels, p=pr)))
        records.append(SentenceRecord(tokens, HeadAssignment(tuple(heads), tuple(rels))))
    return records, rel_alpha


def _synth_spans(n_sentences, min_len, max_len, entity_types, seed):
    from .span_ner import SpanScoreTable, sample_span_set

    rng = np.random.default_rng(seed)
    types = LabelAlphabet("entity-types", entity_types).freeze()
    T = len(types)
    ent_vocab = [[f"e{t}w{k:02d}" for k in range(20)] for t in range(T)]
    filler = [f"f{k:03d}" for k in range(80)]

    records = []
    for _ in range(n_sentences):
        n = int(rng.integers(min_len, max_len + 1))
        # plant typed segments, then sample the gold exactly from the span
        # model whose scores reward segment-consistent spans
        mark = np.full(n, -1)
        pos = 0
        while pos < n:
            if rng.random() < 0.4:
                length = min(int(rng.integers(1, 4)), n - pos)
                mark[pos : pos + length] = int(rng.integers(T))
                pos += length
            else:
                pos += 1
        tokens = [
            ent_vocab[mark[i]][rng.integers(20)] if mark[i] >= 0 else filler[rng.integers(80)]
            for i in range(n)
        ]
        # span (i, j) of type t scores by its m tokens marked t and its
        # j - i + 1 - m others (entries below the diagonal are never read)
        matched = np.zeros((n + 1, T), dtype=np.int64)
        matched[1:] = np.cumsum(mark[:, None] == np.arange(T), axis=0)
        m = matched[None, 1:, :] - matched[:-1, None, :]
        length = np.arange(1, n + 1)[None, :, None] - np.arange(n)[:, None, None]
        scores = -1.4 + 1.8 * m - 2.5 * (length - m)
        spans = sample_span_set(SpanScoreTable(scores), rng)
        records.append(SentenceRecord(tokens, SpanSet(frozenset(spans))))
    return records, types


def synth_generate(
    task: str,
    n_sentences: int,
    max_len: int = 10,
    min_len: int = 3,
    seed: int = 0,
    n_rels: int = 3,
    entity_types=("PER", "LOC"),
    chain_spec: SynthChainSpec | None = None,
):
    """Deterministically sample a dataset from a planted model.

    task 'chain' returns (records with TagSequence gold, BIOES tag alphabet);
    'heads' returns (records with HeadAssignment gold, relation alphabet);
    'spans' returns (records with SpanSet gold, entity type alphabet).
    """
    if n_sentences < 1 or max_len < 1 or min_len < 1 or min_len > max_len:
        raise ValueError("sizes must be >= 1 and min_len <= max_len")
    if task == "chain":
        return _synth_chain(n_sentences, min_len, max_len, chain_spec or SynthChainSpec(), seed)
    if task == "heads":
        return _synth_heads(n_sentences, min_len, max_len, n_rels, seed)
    if task == "spans":
        return _synth_spans(n_sentences, min_len, max_len, entity_types, seed)
    raise ValueError(f"unknown synthetic task {task!r}")
