"""Knowledge distillation between structured models via teacher marginals.

Teacher marginals are always taken over the *student's* substructure space:
pairwise label tables for CRF students, per-token label rows for MaxEnt
students, per-token arc distributions for head-selection students, and
BIOES rows for the span-teacher case.  Globally normalized students pay
their own log-partition term (`chain_crf.lattice_objective`); locally
normalized students reduce to a sum of per-site cross-entropies
(`numerics.rows_objective`).

Temperature is applied to the teacher only: global mode divides every score
entering the teacher's marginalization by T, local mode computes marginals
at T = 1 and then re-normalizes each substructure's own distribution after
dividing its log by T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chain_crf
from .chain_crf import ChainCrfTagger, ChainMarginals
from .corpus import PSEUDO_LABELED, SentenceRecord, TagSequence
from .head_parser import ArcDistributions, FirstOrderParser, SecondOrderParser, decode_heads
from .numerics import log_softmax
from .span_ner import BioesMarginals, SpanNerModel, bioes_marginals, decode_spans
from .token_maxent import MaxEntTagger, TokenDistributions, pair_marginals_from_tokens


@dataclass(frozen=True)
class KdCase:
    tag: str
    teacher_family: str
    student_family: str
    table_kind: str  # chain | token | arc | bioes
    normalization: str  # global | local (of the student)


CASES = {
    "1a": KdCase("1a", "ner-crf", "ner-crf", "chain", "global"),
    "1b": KdCase("1b", "dep-1st", "dep-1st", "arc", "local"),
    "2a": KdCase("2a", "ner-crf", "ner-maxent", "token", "local"),
    "2b": KdCase("2b", "dep-2nd", "dep-1st", "arc", "local"),
    "3": KdCase("3", "ner-maxent", "ner-crf", "chain", "global"),
    "4": KdCase("4", "ner-span", "ner-maxent", "bioes", "local"),
}


@dataclass
class TemperatureConfig:
    temperature: float = 1.0
    mode: str = "local"

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.mode not in ("local", "global"):
            raise ValueError(f"unknown temperature mode {self.mode!r}")


@dataclass
class AnnealConfig:
    rate: float = 1.0
    total_steps: int = 1

    def __post_init__(self):
        if self.rate <= 0 or self.total_steps < 1:
            raise ValueError("anneal rate must be > 0 and total_steps >= 1")


def lambda_schedule(step: int, cfg: AnnealConfig) -> float:
    """Interpolation weight of the KD loss: 1 at step 0, decreasing
    linearly at the configured rate and clamped to [0, 1]."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return float(min(1.0, max(0.0, 1.0 - cfg.rate * step / cfg.total_steps)))


# ---------------------------------------------------------------------------
# Local (per-substructure) temperature


def temper_rows(rows: np.ndarray, temperature: float) -> np.ndarray:
    """p -> p^(1/T) renormalized per row; exact zeros stay exact zeros.
    A block with no rows (the pair slices of a one-token sentence) comes
    back unchanged."""
    if temperature == 1.0 or rows.size == 0:
        return rows.copy()
    with np.errstate(divide="ignore"):
        logits = np.log(rows) / temperature
    return np.exp(log_softmax(logits))


def apply_temperature(table, temperature: float, mode: str = "local"):
    """Temper an already-computed marginal table (local mode), or scale raw
    scores for global mode when handed a lattice/score table."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if mode == "global":
        if hasattr(table, "scaled"):
            return table.scaled(1.0 / temperature)
        raise ValueError("global temperature applies to raw scores, not marginal tables")
    if mode != "local":
        raise ValueError(f"unknown temperature mode {mode!r}")
    if isinstance(table, ChainMarginals):
        n, L = table.unary.shape
        flat = table.pairwise.reshape(max(n - 1, 0), L * L)
        return ChainMarginals(
            temper_rows(flat, temperature).reshape(max(n - 1, 0), L, L),
            temper_rows(table.unary, temperature),
        )
    if isinstance(table, TokenDistributions):
        return TokenDistributions(temper_rows(table.rows, temperature))
    if isinstance(table, BioesMarginals):
        return BioesMarginals(temper_rows(table.rows, temperature))
    if isinstance(table, ArcDistributions):
        return ArcDistributions(
            temper_rows(table.head_rows, temperature),
            temper_rows(table.rel_rows, temperature),
        )
    raise TypeError(f"cannot temper {type(table).__name__}")


# ---------------------------------------------------------------------------
# Teacher marginal extraction


def _check_family(case: KdCase, teacher):
    if teacher.family != case.teacher_family:
        raise ValueError(
            f"case {case.tag} expects a {case.teacher_family} teacher, got {teacher.family}"
        )


def teacher_marginal_table(case, teacher, tokens, temp: TemperatureConfig):
    """Marginals of the teacher over the student substructure space for one
    sentence, with temperature already applied."""
    case = CASES[case] if isinstance(case, str) else case
    _check_family(case, teacher)
    t = temp.temperature
    scale = 1.0 / t if temp.mode == "global" else 1.0
    prep = teacher.prepare(tokens)

    if case.tag in ("1a", "2a"):
        marg = chain_crf.pairwise_marginals(teacher.lattice(prep, scale))
        if case.tag == "2a":
            rows = TokenDistributions(marg.unary)
            return apply_temperature(rows, t) if temp.mode == "local" else rows
        return apply_temperature(marg, t) if temp.mode == "local" else marg

    if case.tag == "3":
        rows = teacher.token_distributions(prep, scale)
        table = pair_marginals_from_tokens(rows)
        return apply_temperature(table, t) if temp.mode == "local" else table

    if case.tag in ("1b", "2b"):
        dist = teacher.distributions(prep, scale)
        return apply_temperature(dist, t) if temp.mode == "local" else dist

    if case.tag == "4":
        table = bioes_marginals(teacher.score_table(prep, scale))
        return apply_temperature(table, t) if temp.mode == "local" else table

    raise ValueError(f"unknown case {case.tag}")


# ---------------------------------------------------------------------------
# Decoding helpers


def decode_from_marginals(table):
    """Per-site argmax of a marginal table (ties toward the lowest id);
    used for teacher-quality analysis, not for training."""
    if isinstance(table, ChainMarginals):
        return TagSequence(tuple(int(t) for t in np.argmax(table.unary, axis=1)))
    if isinstance(table, (TokenDistributions, BioesMarginals)):
        return TagSequence(tuple(int(t) for t in np.argmax(table.rows, axis=1)))
    if isinstance(table, ArcDistributions):
        return decode_heads(table)
    raise TypeError(f"cannot decode {type(table).__name__}")


def pseudo_label(teacher, sentence) -> SentenceRecord:
    """Teacher's Top-1 decode of a sentence, packaged as pseudo gold."""
    tokens = sentence.tokens if isinstance(sentence, SentenceRecord) else list(sentence)
    prep = teacher.prepare(tokens)
    if isinstance(teacher, ChainCrfTagger):
        gold = chain_crf.viterbi(teacher.lattice(prep))
    elif isinstance(teacher, MaxEntTagger):
        gold = teacher.decode(prep)
    elif isinstance(teacher, (FirstOrderParser, SecondOrderParser)):
        gold = decode_heads(teacher.distributions(prep))
    elif isinstance(teacher, SpanNerModel):
        spans = decode_spans(teacher.score_table(prep))
        gold = teacher.codec.spans_to_bioes(spans, len(tokens))
    else:
        raise TypeError(f"cannot pseudo-label with {type(teacher).__name__}")
    return SentenceRecord(list(tokens), gold, provenance=PSEUDO_LABELED)
