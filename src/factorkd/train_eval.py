"""Training loops (plain mini-batch SGD) and evaluation metrics.

Models start from zero parameters, so a run is fully determined by its
seed (which only drives sentence shuffling) and config.  When distilling,
each sentence contributes lambda * KD + (1 - lambda) * target, with lambda
annealed per optimizer step; both parts share one forward pass, in each
family's objective.  The trainer knows no family: a model prepares its own
corpus (`prepare_corpus`), takes one `batch_objective` call per mini-batch
and decodes a whole corpus (`decode_corpus`), batching the work as it sees
fit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .corpus import (
    HeadAssignment,
    SpanSet,
    TagSequence,
    bioes_codec_from_tags,
)
from .distill import (
    CASES,
    AnnealConfig,
    TemperatureConfig,
    apply_temperature,
    check_positive,
    lambda_schedule,
    pseudo_label,
    teacher_marginal_table,  # noqa: F401  re-exported; kdbench's tracer patches it here
    teacher_marginal_tables,
)

FIXED_SEEDS = (1, 2, 3, 4, 5)
TEMPERATURE_GRID = (1.0, 2.0, 3.0, 4.0, 5.0)
ANNEAL_RATE_GRID = (0.5, 1.0, 1.5)


# ---------------------------------------------------------------------------
# Metrics


def _span_counts(pred: SpanSet, gold: SpanSet):
    p, g = set(pred.spans), set(gold.spans)
    return len(p & g), len(p), len(g)


def entity_f1(preds, golds, codec=None):
    """Micro-averaged exact span-and-type (precision, recall, F1).

    Accepts SpanSet or TagSequence items (single or sequence); tag
    sequences are decoded through the codec's repair rule first.
    """
    if isinstance(preds, (SpanSet, TagSequence)):
        preds, golds = [preds], [golds]
    tp = n_pred = n_gold = 0
    for pred, gold in zip(preds, golds, strict=True):
        if isinstance(pred, TagSequence):
            pred = codec.bioes_to_spans(pred)
        if isinstance(gold, TagSequence):
            gold = codec.bioes_to_spans(gold)
        a, b, c = _span_counts(pred, gold)
        tp, n_pred, n_gold = tp + a, n_pred + b, n_gold + c
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def uas_las(preds, golds):
    """(unlabeled, labeled) attachment scores over a corpus; punctuation is
    not excluded."""
    if isinstance(preds, HeadAssignment):
        preds, golds = [preds], [golds]
    total = heads_ok = both_ok = 0
    for pred, gold in zip(preds, golds, strict=True):
        if len(pred) != len(gold):
            raise ValueError(f"length mismatch: {len(pred)} vs {len(gold)}")
        for h, r, gh, gr in zip(pred.heads, pred.rels, gold.heads, gold.rels):
            total += 1
            if h == gh:
                heads_ok += 1
                if r == gr:
                    both_ok += 1
    return (heads_ok / total if total else 0.0, both_ok / total if total else 0.0)


def token_accuracy(preds, golds):
    ok = total = 0
    for pred, gold in zip(preds, golds, strict=True):
        for a, b in zip(pred.tags, gold.tags):
            total += 1
            ok += a == b
    return ok / total if total else 0.0


# ---------------------------------------------------------------------------
# Config and manifest


@dataclass
class TrainConfig:
    epochs: int = 10
    lr: float = 0.1
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        check_positive("learning rate", self.lr)


@dataclass
class DistillConfig:
    case: str
    temperature: float = 1.0
    temp_mode: str = "local"
    anneal_rate: float = 1.0

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; pick one of {sorted(CASES)}")
        self.temp()  # the temperature configs check their own values
        AnnealConfig(self.anneal_rate)

    def temp(self) -> TemperatureConfig:
        return TemperatureConfig(self.temperature, self.temp_mode)


@dataclass
class RunManifest:
    family: str
    config: dict
    seed: int
    history: list = field(default_factory=list)
    best_epoch: int = 0
    best_dev: float = 0.0
    dev_metrics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "family": self.family,
            "config": self.config,
            "seed": self.seed,
            "history": self.history,
            "best_epoch": self.best_epoch,
            "best_dev": self.best_dev,
            "dev_metrics": self.dev_metrics,
        }

    def history_csv(self) -> str:
        lines = ["epoch,train_loss,dev_metric"]
        for row in self.history:
            lines.append(f"{row['epoch']},{row['train_loss']:.6f},{row['dev_metric']:.6f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Input checks


def _check_gold(model, rec, index, table=None):
    """Raise ValueError, naming the record, if its gold structure or teacher
    table does not fit the model: the wrong gold type, a label id outside
    the model's alphabet, a part the model's constraints forbid, or a table
    over a different number of tokens."""
    gold, want = rec.gold, model.gold_type
    if not isinstance(gold, want):
        raise ValueError(
            f"{type(model).__name__} trains on {want.__name__} gold, got {type(gold).__name__}"
        )
    n_labels = len(getattr(model, model.alphabet_key))
    bad = [label for label in gold.label_ids() if not 0 <= label < n_labels]
    if bad:
        raise ValueError(f"record {index}: gold label id {bad[0]} outside 0..{n_labels - 1}")
    forbidden = model.forbidden_part(gold)
    if forbidden is not None:
        raise ValueError(
            f"record {index}: gold has a {forbidden} that the BIOES constraints forbid"
        )
    if table is not None and table.n != len(rec):
        raise ValueError(f"record {index}: teacher table over {table.n} tokens, record {len(rec)}")


# ---------------------------------------------------------------------------
# Prepared corpora and evaluation


def prepare_records(model, records):
    """Features of a corpus as `train` and `evaluate` consume them: the
    model's `prepare_corpus` of the records' tokens."""
    return model.prepare_corpus([r.tokens for r in records])


def _prepared(model, records, prepared):
    """A prepared corpus, made here when None; per-sentence preps from
    `prepare` become the model's corpus through its `stack`."""
    return prepare_records(model, records) if prepared is None else model.stack(prepared)


def _bioes_spans(model, codec, seqs):
    # tags that do not parse as BIOES count as O for span extraction
    tag_strings = [model.tags.label(i) for i in range(len(model.tags))]
    remap = np.array([codec.tags.index(s) if s in codec.tags else 0 for s in tag_strings])
    return [codec.bioes_to_spans(TagSequence(tuple(remap[list(t.tags)]))) for t in seqs]


def metric_gold(model, records):
    """The gold side of `evaluate`'s metric: span sets for a tagger with
    BIOES tags, the records' own gold otherwise."""
    golds = [r.gold for r in records]
    if model.gold_type is TagSequence:
        codec = bioes_codec_from_tags(model.tags)
        if len(codec.types):
            return _bioes_spans(model, codec, golds)
    return golds


def evaluate(model, records, prepared=None, gold=None):
    """(primary metric, metric dict) for a model on gold-bearing records.

    `prepared` (from `prepare_records`, or per-sentence preps) and `gold`
    (from `metric_gold`) may be passed to share that work across calls.
    The model decodes the whole corpus with one `decode_corpus` call.
    """
    prepared = _prepared(model, records, prepared)
    if gold is None:
        gold = metric_gold(model, records)
    preds = model.decode_corpus(prepared)
    if model.gold_type is TagSequence:
        codec = bioes_codec_from_tags(model.tags)
        if len(codec.types) == 0:
            acc = token_accuracy(preds, gold)
            return acc, {"token_accuracy": acc}
        p, r, f1 = entity_f1(_bioes_spans(model, codec, preds), gold)
        return f1, {"precision": p, "recall": r, "f1": f1}
    if model.gold_type is HeadAssignment:
        u, l = uas_las(preds, gold)
        return l, {"uas": u, "las": l}
    if model.gold_type is SpanSet:
        p, r, f1 = entity_f1(preds, gold)
        return f1, {"precision": p, "recall": r, "f1": f1}
    raise TypeError(f"cannot evaluate {type(model).__name__}")


# ---------------------------------------------------------------------------
# Trainer


class DivergedError(ValueError):
    """A training epoch ended with a non-finite loss."""


def pseudo_label_records(teacher, records):
    return [pseudo_label(teacher, r) for r in records]


def train(
    model,
    train_records,
    dev_records,
    cfg: TrainConfig,
    distill_cfg: DistillConfig | None = None,
    teacher=None,
    prepared=None,
    dev_prepared=None,
    teacher_tables=None,
):
    """Mini-batch SGD with best-dev-checkpoint selection.

    Returns (model, manifest); the model carries the best checkpoint's
    parameters, or the last epoch's when there are no dev records.
    `prepared`/`dev_prepared` (from `prepare_records`, or per-sentence
    preps) and, when distilling, `teacher_tables` may be passed to share
    work across runs (they must align with the records).  Each mini-batch
    is one `model.batch_objective` call, whose per-sentence losses are
    summed in batch order.  Raises DivergedError (a ValueError) if an
    epoch's training loss is not finite.
    """
    if not train_records:
        raise ValueError("training set is empty")
    if (distill_cfg is None) != (teacher is None):
        raise ValueError("distillation needs both a case config and a teacher")
    if distill_cfg is not None:
        case = CASES[distill_cfg.case]
        if model.family != case.student_family:
            raise ValueError(
                f"case {case.tag} expects a {case.student_family} student, got {model.family}"
            )
    if teacher_tables is not None and distill_cfg is None:
        raise ValueError("teacher tables are only used when distilling")
    if teacher_tables is not None and len(teacher_tables) != len(train_records):
        raise ValueError(f"{len(teacher_tables)} teacher tables for {len(train_records)} records")
    for index, rec in enumerate(train_records):
        _check_gold(model, rec, index, None if teacher_tables is None else teacher_tables[index])

    prepared = _prepared(model, train_records, prepared)
    dev_prepared = _prepared(model, dev_records, dev_prepared)
    if distill_cfg is not None and teacher_tables is None:
        temp = distill_cfg.temp()
        teacher_tables = teacher_marginal_tables(
            distill_cfg.case, teacher, [r.tokens for r in train_records], temp
        )
    golds = [r.gold for r in train_records]

    n = len(train_records)
    batches_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    anneal = None
    if distill_cfg is not None:
        anneal = AnnealConfig(
            distill_cfg.anneal_rate, max(cfg.epochs * batches_per_epoch, 1)
        )

    manifest = RunManifest(
        family=model.family,
        config={
            "epochs": cfg.epochs,
            "lr": cfg.lr,
            "batch_size": cfg.batch_size,
            "distill": None if distill_cfg is None else asdict(distill_cfg),
        },
        seed=cfg.seed,
    )

    best_metric, best_snap, best_epoch = -1.0, model.snapshot(), 0
    if dev_records:
        dev_gold = metric_gold(model, dev_records)
        best_metric, _ = evaluate(model, dev_records, dev_prepared, dev_gold)

    rng = np.random.default_rng(cfg.seed)
    grads = model.new_grads()
    order = np.arange(n)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        rng.shuffle(order)
        epoch_loss = 0.0
        for b in range(batches_per_epoch):
            batch = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            lam = lambda_schedule(step, anneal) if anneal is not None else 0.0
            for g in grads.values():
                g.fill(0.0)
            losses = model.batch_objective(
                prepared, batch, golds, teacher_tables, lam, grads, 1.0 / len(batch)
            )
            for loss in losses:  # in batch order, as the per-sentence sum
                epoch_loss += loss
            model.sgd_step(grads, cfg.lr)
            step += 1
        if not np.isfinite(epoch_loss):
            raise DivergedError(
                f"training diverged: epoch {epoch} has a non-finite loss ({epoch_loss}); "
                f"try a smaller learning rate than {cfg.lr}"
            )
        metric = best_metric
        if dev_records:
            metric, _ = evaluate(model, dev_records, dev_prepared, dev_gold)
            if metric > best_metric:
                best_metric, best_snap, best_epoch = metric, model.snapshot(), epoch
        manifest.history.append(
            {"epoch": epoch, "train_loss": epoch_loss / n, "dev_metric": metric}
        )

    if dev_records:
        model.restore(best_snap)
    else:  # nothing to select on: keep the last epoch
        best_epoch = cfg.epochs
    manifest.best_epoch = best_epoch
    manifest.best_dev = max(best_metric, 0.0)
    if dev_records:
        _, manifest.dev_metrics = evaluate(model, dev_records, dev_prepared, dev_gold)
    return model, manifest


# ---------------------------------------------------------------------------
# Grid search over temperature and anneal rate


@dataclass
class GridResult:
    rows: list
    best: dict

    def best_config(self) -> DistillConfig:
        return DistillConfig(**{f.name: self.best[f.name] for f in fields(DistillConfig)})


def distill_grid_search(
    case: str,
    teacher,
    model_factory,
    train_records,
    dev_records,
    cfg: TrainConfig,
    temperatures=TEMPERATURE_GRID,
    rates=ANNEAL_RATE_GRID,
    seeds=FIXED_SEEDS,
    mode: str = "local",
    unlabeled=None,
) -> GridResult:
    """Mean dev metric over seeds for every (temperature, anneal rate).

    Student features are prepared once per grid and teacher tables once per
    temperature.  In local mode the table at T is the T = 1 table tempered,
    so the teacher runs once per sentence for the whole grid; global mode
    rescales the teacher's scores for every T.
    """
    records = list(train_records)
    if unlabeled:
        records.extend(pseudo_label_records(teacher, unlabeled))
    probe = model_factory()
    prepared = prepare_records(probe, records)
    dev_prepared = prepare_records(probe, dev_records)
    tokens = [r.tokens for r in records]
    if mode == "local":
        base = teacher_marginal_tables(case, teacher, tokens, TemperatureConfig(1.0, mode))

    rows = []
    for t in temperatures:
        if mode == "local":
            tables = [apply_temperature(q, t) for q in base]
        else:
            tables = teacher_marginal_tables(case, teacher, tokens, TemperatureConfig(t, mode))
        for rate in rates:
            devs = []
            for seed in seeds:
                run_cfg = TrainConfig(cfg.epochs, cfg.lr, cfg.batch_size, seed)
                dcfg = DistillConfig(case, t, mode, rate)
                model = model_factory()
                _, manifest = train(
                    model,
                    records,
                    dev_records,
                    run_cfg,
                    distill_cfg=dcfg,
                    teacher=teacher,
                    prepared=prepared,
                    dev_prepared=dev_prepared,
                    teacher_tables=tables,
                )
                devs.append(manifest.best_dev)
            rows.append(
                {
                    "case": case,
                    "temperature": t,
                    "temp_mode": mode,
                    "anneal_rate": rate,
                    "mean_dev": float(np.mean(devs)),
                    "devs": devs,
                }
            )
    best = max(rows, key=lambda r: r["mean_dev"])
    return GridResult(rows, best)
