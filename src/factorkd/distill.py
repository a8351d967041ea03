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

import math
from dataclasses import dataclass, fields, replace
from numbers import Real

import numpy as np

from . import chain_crf
from .corpus import PSEUDO_LABELED, SentenceRecord, SpanSet
from .numerics import log_softmax
from .span_ner import bioes_marginals, per_length, stack_bioes_rows
from .token_maxent import TokenDistributions, pair_marginals_from_tokens


@dataclass(frozen=True)
class KdCase:
    tag: str
    teacher_family: str
    student_family: str
    table_kind: str  # chain | token | arc | bioes


CASES = {
    "1a": KdCase("1a", "ner-crf", "ner-crf", "chain"),
    "1b": KdCase("1b", "dep-1st", "dep-1st", "arc"),
    "2a": KdCase("2a", "ner-crf", "ner-maxent", "token"),
    "2b": KdCase("2b", "dep-2nd", "dep-1st", "arc"),
    "3": KdCase("3", "ner-maxent", "ner-crf", "chain"),
    "4": KdCase("4", "ner-span", "ner-maxent", "bioes"),
}


def check_positive(name: str, value):
    """Raise ValueError unless value is a finite number above 0."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


@dataclass
class TemperatureConfig:
    temperature: float = 1.0
    mode: str = "local"

    def __post_init__(self):
        check_positive("temperature", self.temperature)
        if self.mode not in ("local", "global"):
            raise ValueError(f"unknown temperature mode {self.mode!r}")

    @property
    def score_scale(self) -> float:
        """Factor on the teacher's scores: 1/T in global mode, 1 in local."""
        return 1.0 / self.temperature if self.mode == "global" else 1.0


@dataclass
class AnnealConfig:
    rate: float = 1.0
    total_steps: int = 1

    def __post_init__(self):
        check_positive("anneal rate", self.rate)
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


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


def apply_temperature(table, temperature: float):
    """Temper an already-computed marginal table: every array of it,
    flattened past its first axis, is a stack of distributions, each
    tempered by `temper_rows`."""
    check_positive("temperature", temperature)
    tempered = {}
    for f in fields(table):
        a = getattr(table, f.name)
        rows = a.reshape(a.shape[0], math.prod(a.shape[1:]))
        tempered[f.name] = temper_rows(rows, temperature).reshape(a.shape)
    return replace(table, **tempered)


# ---------------------------------------------------------------------------
# Teacher marginal extraction


def _teacher_case(case, teacher) -> KdCase:
    case = CASES[case] if isinstance(case, str) else case
    if teacher.family != case.teacher_family:
        raise ValueError(
            f"case {case.tag} expects a {case.teacher_family} teacher, got {teacher.family}"
        )
    return case


def _tempered(table, temp: TemperatureConfig):
    return apply_temperature(table, temp.temperature) if temp.mode == "local" else table


def teacher_marginal_table(case, teacher, tokens, temp: TemperatureConfig):
    """Marginals of the teacher over the student substructure space for one
    sentence, with temperature already applied."""
    case = _teacher_case(case, teacher)
    scale = temp.score_scale
    prep = teacher.prepare(tokens)
    if case.tag in ("1a", "2a"):
        table = chain_crf.pairwise_marginals(teacher.lattice(prep, scale))
        if case.tag == "2a":
            table = TokenDistributions(table.unary)
    elif case.tag == "3":
        table = pair_marginals_from_tokens(teacher.token_distributions(prep, scale))
    elif case.tag in ("1b", "2b"):
        table = teacher.distributions(prep, scale)
    elif case.tag == "4":
        table = bioes_marginals(teacher.score_table(prep, scale))
    else:
        raise ValueError(f"unknown case {case.tag}")
    return _tempered(table, temp)


def teacher_marginal_tables(case, teacher, token_lists, temp: TemperatureConfig) -> list:
    """`teacher_marginal_table` of every sentence of a corpus.  Case 4's
    BIOES rows come from one `stack_bioes_rows` pass per sentence length,
    each row bit for bit the one-sentence table's."""
    case = _teacher_case(case, teacher)
    if case.tag != "4":
        return [teacher_marginal_table(case, teacher, tokens, temp) for tokens in token_lists]
    tables = [teacher.score_table(teacher.prepare(t), temp.score_scale) for t in token_lists]
    return [
        _tempered(TokenDistributions(rows), temp) for rows in per_length(stack_bioes_rows, tables)
    ]


# ---------------------------------------------------------------------------
# Pseudo-labeling


def pseudo_label(teacher, sentence) -> SentenceRecord:
    """Teacher's Top-1 decode of a sentence, packaged as pseudo gold."""
    tokens = sentence.tokens if isinstance(sentence, SentenceRecord) else list(sentence)
    gold = teacher.decode(teacher.prepare(tokens))
    if isinstance(gold, SpanSet):
        gold = teacher.codec.spans_to_bioes(gold, len(tokens))
    return SentenceRecord(list(tokens), gold, provenance=PSEUDO_LABELED)
