"""The benchmark's three workloads.

Each workload makes its inputs from the run's seed in `setup`, then runs
whole rounds of the same operations.  An operation is one training run, one
teacher-table pass, one decode pass or one CLI command.  The program is
reached only through its public API and `factorkd.cli.main`, always by
module attribute at call time, so that the traced run's wrappers see every
call.  `check` verifies the first round's outputs against computations made
apart from the program (reference.py); `digest` condenses a round's outputs
so that later rounds can be compared with the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from factorkd import cli, corpus, distill, models, train_eval

from kdbench import checks, reference

KINDS = ("teacher", "student", "decode")
# Sentences of at most this many tokens are checked against enumeration:
# 9^5 label sequences, or 571 span sets of two types.
SHORT = 5
N_SHORT = 6
LENGTHS = range(4, 9)


class Round:
    """The operations of one round: their outputs, how many were attempted
    and failed, and per kind the seconds spent and the work done
    (sentence-updates for training, sentences for decoding)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.seconds = dict.fromkeys(KINDS, 0.0)
        self.work = dict.fromkeys(KINDS, 0)
        self.out = {}
        self.wall_s = 0.0

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def op(self, name, kind, work, fn, count=1):
        """Run one operation (or `count` of them in one call) and record it;
        an exception counts all of them as failed and yields None."""
        self.attempted += count
        t0 = time.perf_counter()
        try:
            with self.span(f"op.{name}"):
                result = fn()
        except Exception:
            self.failed += count
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            result = None
        else:
            self.work[kind] += work
        self.seconds[kind] += time.perf_counter() - t0
        self.out[name] = result
        return result

    @classmethod
    def total(cls, rounds):
        """The work and seconds of several rounds added up."""
        out = cls()
        for r in rounds:
            for kind in KINDS:
                out.seconds[kind] += r.seconds[kind]
                out.work[kind] += r.work[kind]
            out.wall_s += r.wall_s
        return out

    def metrics(self) -> dict:
        def rate(kind):
            return self.work[kind] / self.seconds[kind] if self.seconds[kind] else 0.0

        return {
            "wall_s": self.wall_s,
            "teacher_sents_per_s": rate("teacher"),
            "student_sents_per_s": rate("student"),
            "decode_sents_per_s": rate("decode"),
        }


class Verdict:
    """Collects the messages of failed checks."""

    def __init__(self):
        self.failures = []

    def __call__(self, check, *args):
        try:
            check(*args)
        except checks.CheckFailed as e:
            self.failures.append(str(e))


def _summary(value):
    """A comparable condensation of one operation's output."""
    if value is None:
        return None
    if isinstance(value, train_eval.GridResult):
        return [(r["temperature"], r["anneal_rate"], r["devs"]) for r in value.rows]
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], train_eval.RunManifest):
        m = value[1]
        return (m.best_epoch, m.best_dev, m.history, m.dev_metrics)
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], dict):
        return value  # (primary metric, metric dict) of evaluate
    if isinstance(value, list) and value and isinstance(value[0], corpus.SentenceRecord):
        return [r.gold for r in value]
    if isinstance(value, list):  # a teacher-table pass
        return hashlib.sha256(b"".join(_table_bytes(t) for t in value)).hexdigest()
    return value


def _table_bytes(table) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in vars(table).values())


def _by_length(task, n, seed, **kwargs):
    """n synthetic sentences, n / 5 of each length 4..8, in the order one
    draw yields them, so that every seed gives the same amount of work.  A
    longer draw with the same seed starts with the same sentences."""
    per = n // len(LENGTHS)
    pool_size = 2 * n
    while True:
        pool, alphabet = corpus.synth_generate(
            task, pool_size, min_len=LENGTHS[0], max_len=LENGTHS[-1], seed=seed, **kwargs
        )
        counts = dict.fromkeys(LENGTHS, 0)
        picked = []
        for rec in pool:
            if counts[len(rec)] < per:
                counts[len(rec)] += 1
                picked.append(rec)
        if len(picked) == per * len(LENGTHS):
            return picked, alphabet
        pool_size *= 2


def _grid_cell(grid, temperature, rate):
    return next(r for r in grid.rows if r["temperature"] == temperature and r["anneal_rate"] == rate)


def _short_indices(records, seed):
    short = [k for k, r in enumerate(records) if len(r.tokens) <= SHORT]
    rng = np.random.default_rng(seed)
    return sorted(int(k) for k in rng.choice(short, size=min(N_SHORT, len(short)), replace=False))


def _tag_spans(model, records):
    """Own span extraction from the model's decoded tags, per record."""
    out = []
    for rec in records:
        tags = model.decode(model.prepare(rec.tokens))
        out.append(reference.bioes_spans([model.tags.label(t) for t in tags]))
    return out


class _Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _seed(self, k: int) -> int:
        return 1000 * self.seed + k

    def _student_cfg(self, seed=1):
        return train_eval.TrainConfig(seed=seed, **self.STUDENT)

    def digest(self, out: dict):
        return {name: _summary(v) for name, v in out.items()}

    def cleanup(self):
        pass


class ChainGrid(_Workload):
    """Scenarios 1-3 on a chain-planted corpus at hash bits 16."""

    name = "chain-grid"
    BITS = 16
    TEMPERATURES = (1.0, 2.0, 4.0)
    RATES = (0.5, 1.0)
    SEEDS = (1, 2, 3)
    STUDENT = {"epochs": 2, "lr": 0.2}
    TEACHER = {"epochs": 3, "lr": 0.25, "seed": 1}
    SIZES = {"teacher_train": 500, "train": 300, "dev": 150, "test": 400, "unlabeled": 150}
    # the planted corpus of acceptance criterion 6
    SPEC = {"shared_frac": 0.85, "boundary_shared_frac": 0.0, "vocab_per_type": 80, "filler_vocab": 500}

    def setup(self):
        spec = corpus.SynthChainSpec(**self.SPEC)
        data = {}
        for k, (part, n) in enumerate(self.SIZES.items(), start=1):
            data[part], self.tags = _by_length("chain", n, self._seed(k), chain_spec=spec)
        self.tags.freeze()
        self.teacher_train, self.train, self.dev, self.test = (
            data["teacher_train"], data["train"], data["dev"], data["test"]
        )
        self.unlabeled = [corpus.SentenceRecord(r.tokens) for r in data["unlabeled"]]
        self.short_train = _short_indices(self.train, self._seed(6))
        self.short_unlabeled = _short_indices(self.unlabeled, self._seed(7))

    def _new(self, family, **kwargs):
        return models.new_model(family, self.tags, bits=self.BITS, **kwargs)

    def _tables(self, case, teacher, records, temperature):
        temp = distill.TemperatureConfig(temperature, "local")
        return [distill.teacher_marginal_table(case, teacher, r.tokens, temp) for r in records]

    def _distill(self, family, case, teacher, tables, records, temperature, rate, seed=1):
        return train_eval.train(
            self._new(family), records, self.dev, self._student_cfg(seed),
            distill_cfg=train_eval.DistillConfig(case, temperature, "local", rate),
            teacher=teacher, teacher_tables=tables,
        )

    def run_round(self, r: Round):
        epochs, n = self.STUDENT["epochs"], len(self.train)
        teacher = r.op(
            "teacher", "teacher", self.TEACHER["epochs"] * len(self.teacher_train),
            lambda: train_eval.train(
                self._new("ner-crf", constrain_bioes=True), self.teacher_train, self.dev,
                train_eval.TrainConfig(**self.TEACHER),
            ),
        )
        runs = len(self.TEMPERATURES) * len(self.RATES) * len(self.SEEDS)
        grid = r.op(
            "grid-2a", "student", runs * epochs * n,
            lambda: train_eval.distill_grid_search(
                "2a", teacher[0], lambda: self._new("ner-maxent"), self.train, self.dev,
                train_eval.TrainConfig(**self.STUDENT), temperatures=self.TEMPERATURES,
                rates=self.RATES, seeds=self.SEEDS, mode="local",
            ),
            count=len(self.TEMPERATURES) + runs,
        )
        t1a = r.op("table-1a", "student", 0, lambda: self._tables("1a", teacher[0], self.train, 2.0))
        s1a = r.op(
            "student-1a", "student", epochs * n,
            lambda: self._distill("ner-crf", "1a", teacher[0], t1a, self.train, 2.0, 1.0),
        )
        base = r.op(
            "baseline", "student", epochs * n,
            lambda: train_eval.train(self._new("ner-maxent"), self.train, self.dev, self._student_cfg()),
        )
        t3 = r.op("table-3", "student", 0, lambda: self._tables("3", base[0], self.train, 1.0))
        s3 = r.op(
            "student-3", "student", epochs * n,
            lambda: self._distill("ner-crf", "3", base[0], t3, self.train, 1.0, 1.0),
        )
        pseudo = r.op(
            "pseudo-label", "decode", len(self.unlabeled),
            lambda: train_eval.pseudo_label_records(teacher[0], self.unlabeled),
        )
        n7 = n + len(self.unlabeled)
        t7 = r.op(
            "table-7", "student", 0,
            lambda: self._tables("2a", teacher[0], self.train + pseudo, grid.best["temperature"]),
        )
        s7 = r.op(
            "student-7", "student", epochs * n7,
            lambda: self._distill(
                "ner-maxent", "2a", teacher[0], t7, self.train + pseudo,
                grid.best["temperature"], grid.best["anneal_rate"],
            ),
        )
        for name, fitted in (("teacher", teacher), ("baseline", base), ("student-1a", s1a),
                             ("student-3", s3), ("student-7", s7)):
            r.op(
                f"eval-{name}", "decode", len(self.test),
                lambda fitted=fitted: train_eval.evaluate(fitted[0], self.test),
            )

    def _gold_spans(self, records):
        return [reference.bioes_spans([self.tags.label(t) for t in r.gold]) for r in records]

    def _check_fitted(self, v, name, fitted, zero_loss):
        model, manifest = fitted
        v(checks.loss_below_zero_model, manifest.history, zero_loss, name)
        own = reference.micro_f1(_tag_spans(model, self.dev), self._gold_spans(self.dev))
        v(checks.f1_matches, manifest.dev_metrics["f1"], own, f"{name} dev")

    def check(self, out: dict, v: Verdict):
        n_types = len(self.tags) // 4
        L = len(self.tags)
        zero_tokens = statistics.fmean(reference.zero_loss_tokens(len(r), L) for r in self.train)
        teacher, grid = out["teacher"][0], out["grid-2a"]
        extended = self.train + out["pseudo-label"]
        zero = {
            "teacher": statistics.fmean(reference.zero_loss_constrained_chain(len(r), n_types) for r in self.teacher_train),
            "baseline": zero_tokens,
            "student-1a": zero_tokens,
            "student-3": zero_tokens,
            "student-7": statistics.fmean(reference.zero_loss_tokens(len(r), L) for r in extended),
        }
        gold_test = self._gold_spans(self.test)
        for name, zero_loss in zero.items():
            self._check_fitted(v, name, out[name], zero_loss)
            own = reference.micro_f1(_tag_spans(out[name][0], self.test), gold_test)
            v(checks.f1_matches, out[f"eval-{name}"][1]["f1"], own, f"eval-{name} test")

        exact = {}
        for k in self.short_train:
            lat = teacher.lattice(teacher.prepare(self.train[k].tokens))
            exact[k] = reference.chain_marginals(lat.emissions, lat.transitions, lat.start, lat.stop)

        # the 2a grid: tables at every temperature, and every cell re-run
        # from tables checked here must reproduce the grid's dev figure
        probe = self._new("ner-maxent")
        prepared = [probe.prepare(r.tokens) for r in self.train]
        dev_prepared = [probe.prepare(r.tokens) for r in self.dev]
        for t in self.TEMPERATURES:
            tables = self._tables("2a", teacher, self.train, t)
            v(checks.rows_sum_to_one, np.concatenate([q.rows for q in tables]), f"2a table T={t}")
            for k, (_, unary) in exact.items():
                v(checks.tables_match, tables[k].rows, reference.temper(unary, t), f"2a table T={t} sentence {k}")
            for rate in self.RATES:
                devs = _grid_cell(grid, t, rate)["devs"]
                for seed, grid_dev in zip(self.SEEDS, devs, strict=True):
                    cell = f"grid cell T={t} rate={rate} seed={seed}"
                    fitted = train_eval.train(
                        self._new("ner-maxent"), self.train, self.dev, self._student_cfg(seed),
                        distill_cfg=train_eval.DistillConfig("2a", t, "local", rate), teacher=teacher,
                        prepared=prepared, dev_prepared=dev_prepared, teacher_tables=tables,
                    )
                    v(checks.same, fitted[1].best_dev, grid_dev, cell)
                    self._check_fitted(v, cell, fitted, zero_tokens)

        t1a = out["table-1a"]
        for k, q in enumerate(t1a):
            v(checks.rows_sum_to_one, q.unary, f"1a table sentence {k}")
            v(checks.pair_slices_sum_to_one, q.pairwise, f"1a table sentence {k}")
        for k, (pairwise, unary) in exact.items():
            v(checks.tables_match, t1a[k].pairwise, reference.temper_slices(pairwise, 2.0), f"1a pairs sentence {k}")
            v(checks.tables_match, t1a[k].unary, reference.temper(unary, 2.0), f"1a unary sentence {k}")
        for k, q in enumerate(self._tables("1a", teacher, self.train, 1.0)):
            v(checks.pairs_marginalise, q.pairwise, q.unary, f"1a table T=1 sentence {k}")

        base = out["baseline"][0]
        for k, (rec, q) in enumerate(zip(self.train, out["table-3"], strict=True)):
            rows = reference.softmax_rows(base.logits(base.prepare(rec.tokens)))
            v(checks.rows_sum_to_one, q.unary, f"3 table sentence {k}")
            v(checks.pairs_marginalise, q.pairwise, q.unary, f"3 table sentence {k}")
            v(checks.tables_match, q.pairwise, rows[:-1, :, None] * rows[1:, None, :], f"3 table sentence {k}")

        v(checks.rows_sum_to_one, np.concatenate([q.rows for q in out["table-7"]]), "criterion-7 table")
        for k in self.short_unlabeled:
            lat = teacher.lattice(teacher.prepare(self.unlabeled[k].tokens))
            best = reference.chain_argmax(lat.emissions, lat.transitions, lat.start, lat.stop)
            v(checks.same, tuple(out["pseudo-label"][k].gold), best, f"pseudo-label sentence {k}")


class SpanBioes(_Workload):
    """Scenario 4 on the span-planted corpus at one temperature."""

    name = "span-bioes"
    BITS = 16
    TEMPERATURE = 1.0
    RATES = (0.5, 1.0)
    SEEDS = (1, 2)
    STUDENT = {"epochs": 2, "lr": 0.2}
    TEACHER = {"epochs": 3, "lr": 0.4, "seed": 1}
    SIZES = {"teacher_train": 500, "train": 300, "dev": 150, "test": 400}

    def setup(self):
        data = {}
        for k, (part, n) in enumerate(self.SIZES.items(), start=1):
            data[part], self.types = _by_length("spans", n, self._seed(k))
        self.types.freeze()
        self.codec = corpus.BioesCodec(self.types)
        self.teacher_train, self.dev_spans, self.test_spans = (
            data["teacher_train"], data["dev"], data["test"]
        )
        self.train, self.dev, self.test = (
            [corpus.SentenceRecord(r.tokens, self.codec.spans_to_bioes(r.gold, len(r))) for r in data[part]]
            for part in ("train", "dev", "test")
        )
        self.unlabeled = [corpus.SentenceRecord(r.tokens) for r in self.test]
        self.short_train = _short_indices(self.train, self._seed(6))
        self.short_test = _short_indices(self.test, self._seed(7))

    def _new_student(self):
        return models.new_model("ner-maxent", self.codec.tags, bits=self.BITS)

    def run_round(self, r: Round):
        epochs, n = self.STUDENT["epochs"], len(self.train)
        teacher = r.op(
            "teacher", "teacher", self.TEACHER["epochs"] * len(self.teacher_train),
            lambda: train_eval.train(
                models.new_model("ner-span", self.types, bits=self.BITS), self.teacher_train,
                self.dev_spans, train_eval.TrainConfig(**self.TEACHER),
            ),
        )
        base = r.op(
            "baseline", "student", epochs * n,
            lambda: train_eval.train(self._new_student(), self.train, self.dev, self._student_cfg()),
        )
        runs = len(self.RATES) * len(self.SEEDS)
        r.op(
            "grid-4", "student", runs * epochs * n,
            lambda: train_eval.distill_grid_search(
                "4", teacher[0], self._new_student, self.train, self.dev,
                train_eval.TrainConfig(**self.STUDENT), temperatures=(self.TEMPERATURE,),
                rates=self.RATES, seeds=self.SEEDS, mode="local",
            ),
            count=1 + runs,
        )
        r.op(
            "pseudo-label", "decode", len(self.unlabeled),
            lambda: train_eval.pseudo_label_records(teacher[0], self.unlabeled),
        )
        r.op("eval-teacher", "decode", len(self.test), lambda: train_eval.evaluate(teacher[0], self.test_spans))
        r.op("eval-baseline", "decode", len(self.test), lambda: train_eval.evaluate(base[0], self.test))

    def _gold(self, span_records):
        return [frozenset((s, e, self.types.label(t)) for s, e, t in r.gold) for r in span_records]

    def _teacher_spans(self, teacher, records):
        return [
            frozenset((s, e, teacher.types.label(t)) for s, e, t in teacher.decode(teacher.prepare(r.tokens)))
            for r in records
        ]

    def _check_student(self, v, name, fitted, zero_loss):
        model, manifest = fitted
        v(checks.loss_below_zero_model, manifest.history, zero_loss, name)
        own = reference.micro_f1(_tag_spans(model, self.dev), self._gold(self.dev_spans))
        v(checks.f1_matches, manifest.dev_metrics["f1"], own, f"{name} dev")

    def check(self, out: dict, v: Verdict):
        T, L = len(self.types), len(self.codec.tags)
        teacher, manifest = out["teacher"]
        zero_spans = statistics.fmean(reference.zero_loss_spans(len(r), T) for r in self.teacher_train)
        zero_tokens = statistics.fmean(reference.zero_loss_tokens(len(r), L) for r in self.train)
        v(checks.loss_below_zero_model, manifest.history, zero_spans, "span teacher")
        own = reference.micro_f1(self._teacher_spans(teacher, self.dev_spans), self._gold(self.dev_spans))
        v(checks.f1_matches, manifest.dev_metrics["f1"], own, "span teacher dev")
        own = reference.micro_f1(self._teacher_spans(teacher, self.test_spans), self._gold(self.test_spans))
        v(checks.f1_matches, out["eval-teacher"][1]["f1"], own, "eval-teacher test")
        self._check_student(v, "baseline", out["baseline"], zero_tokens)
        own = reference.micro_f1(_tag_spans(out["baseline"][0], self.test), self._gold(self.test_spans))
        v(checks.f1_matches, out["eval-baseline"][1]["f1"], own, "eval-baseline test")

        temp = distill.TemperatureConfig(self.TEMPERATURE, "local")
        tables = [distill.teacher_marginal_table("4", teacher, r.tokens, temp) for r in self.train]
        for k, q in enumerate(tables):
            v(checks.rows_sum_to_one, q.rows, f"4 table sentence {k}")
            v(checks.bioes_boundary_zeros, q.rows, T, f"4 table sentence {k}")
        for k in self.short_train:
            scores = teacher.score_table(teacher.prepare(self.train[k].tokens)).scores
            want = reference.temper(reference.span_bioes_rows(scores), self.TEMPERATURE)
            v(checks.tables_match, tables[k].rows, want, f"4 table sentence {k}")
        grid = out["grid-4"]
        for rate in self.RATES:
            devs = _grid_cell(grid, self.TEMPERATURE, rate)["devs"]
            for seed, grid_dev in zip(self.SEEDS, devs, strict=True):
                cell = f"grid cell rate={rate} seed={seed}"
                fitted = train_eval.train(
                    self._new_student(), self.train, self.dev, self._student_cfg(seed),
                    distill_cfg=train_eval.DistillConfig("4", self.TEMPERATURE, "local", rate),
                    teacher=teacher, teacher_tables=tables,
                )
                v(checks.same, fitted[1].best_dev, grid_dev, cell)
                self._check_student(v, cell, fitted, zero_tokens)

        for k in self.short_test:
            scores = teacher.score_table(teacher.prepare(self.test[k].tokens)).scores
            best = {(s, e, self.types.label(t)) for s, e, t in reference.best_span_set(scores)}
            got = reference.bioes_spans([self.codec.tags.label(t) for t in out["pseudo-label"][k].gold])
            v(checks.same, got, frozenset(best), f"pseudo-label sentence {k}")


class DepCli(_Workload):
    """The dependency pipeline through `factorkd.cli.main` at the default
    --hash-bits 20.  Train, dev and test come from separate seeds."""

    name = "dep-cli"
    EPOCHS = 2
    TEMPERATURE = 2.0
    SIZES = {"train": 300, "dev": 80, "test": 300}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        for k, (part, n) in enumerate(self.SIZES.items(), start=1):
            records, rels = _by_length("heads", n, self._seed(k))
            with open(self._path(f"{part}.conllu"), "w", encoding="utf-8") as f:
                corpus.write_conllu(records, rels, f)

    def _cli(self, r: Round, argv):
        out = io.StringIO()
        with r.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"factorkd {argv[0]} exited with code {code}")
        return out.getvalue()

    def run_round(self, r: Round):
        p = self._path
        data = ["--train", p("train.conllu"), "--dev", p("dev.conllu")]
        fit = ["--epochs", str(self.EPOCHS), "--seed", "1"]
        n_train, n_test = self.SIZES["train"], self.SIZES["test"]
        commands = [
            ("train-teacher", "teacher", self.EPOCHS * n_train,
             ["train-teacher", "--task", "dep-2nd", *data, "--out", p("teacher.json"), *fit]),
            ("distill", "student", self.EPOCHS * n_train,
             ["distill", "--case", "2b", "--teacher", p("teacher.json"), *data, "--out", p("student.json"),
              "--temperature", str(self.TEMPERATURE), *fit]),
            ("eval", "decode", n_test,
             ["eval", "--model", p("teacher.json"), "--test", p("test.conllu"), "--json"]),
            ("pseudo-label", "decode", n_test,
             ["pseudo-label", "--teacher", p("teacher.json"), "--in", p("test.conllu"), "--out", p("pseudo.conllu")]),
        ]
        for name, kind, work, argv in commands:
            r.op(name, kind, work, lambda argv=argv: self._cli(r, argv))

    def _files(self):
        return [self._path(f) for f in ("teacher.json", "student.json", "pseudo.conllu",
                                         "teacher.json.manifest.json", "student.json.manifest.json")]

    def digest(self, out: dict):
        d = dict(out)
        for path in self._files():
            with contextlib.suppress(FileNotFoundError), open(path, "rb") as f:
                d[os.path.basename(path)] = hashlib.sha256(f.read()).hexdigest()
        return d

    def check(self, out: dict, v: Verdict):
        train = reference.read_conllu_arcs(self._path("train.conllu"))
        n_rels = len({rel for _, _, rels in train for rel in rels})
        zero = statistics.fmean(reference.zero_loss_heads(len(heads), n_rels) for _, heads, _ in train)
        for name in ("teacher", "student"):
            with open(self._path(f"{name}.json.manifest.json"), encoding="utf-8") as f:
                manifest = json.load(f)
            v(checks.loss_below_zero_model, manifest["history"], zero, f"dep {name}")

        pseudo = reference.read_conllu_arcs(self._path("pseudo.conllu"))
        gold = reference.read_conllu_arcs(self._path("test.conllu"))
        uas, las = reference.attachment_scores([s[1:] for s in pseudo], [s[1:] for s in gold])
        v(checks.attachment_matches, json.loads(out["eval"].strip().splitlines()[-1]), uas, las, "eval --json")

        teacher = models.load_model(self._path("teacher.json"))
        temp = distill.TemperatureConfig(self.TEMPERATURE, "local")
        for k, (tokens, _, _) in enumerate(train):
            q = distill.teacher_marginal_table("2b", teacher, list(tokens), temp)
            what = f"2b table sentence {k}"
            v(checks.rows_sum_to_one, q.head_rows, what)
            v(checks.rows_sum_to_one, q.rel_rows, what)
            v(checks.self_column_zero, q.head_rows, what)
            prep = teacher.prepare(list(tokens))
            heads = reference.mean_field_head_rows(
                teacher.arc_logits(prep), teacher.sib_tensor(prep), teacher.iterations
            )
            v(checks.tables_match, q.head_rows, reference.temper(heads, self.TEMPERATURE), f"{what} heads")
            rels = reference.softmax_rows(teacher.rel_logits(prep))
            v(checks.tables_match, q.rel_rows, reference.temper(rels, self.TEMPERATURE), f"{what} relations")

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ChainGrid, SpanBioes, DepCli)}
