"""Factorized knowledge distillation between structured prediction models.

Sequence labeling (linear-chain CRF, token MaxEnt), head-selection
dependency parsing (first- and second-order), and span-factored NER share
one KD engine: teacher marginals over the student's substructure space,
combined with either the student's log-partition (globally normalized
students) or per-site cross-entropies (locally normalized students).
Everything is verifiable against a brute-force enumeration oracle.
"""

from .chain_crf import ChainCrfTagger, ChainLattice, ChainMarginals
from .corpus import (
    BioesCodec,
    HeadAssignment,
    LabelAlphabet,
    SentenceRecord,
    SpanSet,
    TagSequence,
    synth_generate,
)
from .distill import (
    CASES,
    AnnealConfig,
    TemperatureConfig,
    apply_temperature,
    lambda_schedule,
    pseudo_label,
    teacher_marginal_table,
    teacher_marginal_tables,
)
from .head_parser import ArcDistributions, FirstOrderParser, SecondOrderParser
from .models import load_model, new_model, save_model
from .span_ner import SpanNerModel, SpanScoreTable
from .token_maxent import MaxEntTagger, TokenDistributions
from .train_eval import DistillConfig, TrainConfig, entity_f1, train, uas_las

__version__ = "0.1.0"
