"""Command-line surface.

Commands: train-teacher, train-student, distill, eval, pseudo-label,
verify.  NER tasks read CoNLL column files (last column = tag); dependency
tasks read CoNLL-U.  Usage problems exit with code 2, verification
failures with 1, and a training run whose loss stops being finite with 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import corpus, models, train_eval, verify
from .corpus import bioes_codec_from_tags
from .distill import CASES
from .train_eval import DistillConfig, TrainConfig, train

NER_FAMILIES = ("ner-crf", "ner-maxent", "ner-span")
DEP_FAMILIES = ("dep-1st", "dep-2nd")

USAGE_EXIT = 2
VERIFY_EXIT = 1
DIVERGED_EXIT = 3


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _bad_settings():
    """Report a setting that a config or model constructor rejects as a usage error."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from None


def _load_dataset(path, family, tag_alphabet=None, rel_alphabet=None):
    try:
        if family in DEP_FAMILIES:
            return corpus.read_conllu_path(path, rel_alphabet)
        return corpus.read_ner_path(path, tag_alphabet)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except ValueError as e:  # parse errors and labels outside a frozen alphabet
        raise UsageError(f"{path}: {e}") from None


def _records_to_spans(records, tag_alphabet):
    """Re-interpret BIOES tag gold as span gold for the span NER family."""
    codec = bioes_codec_from_tags(tag_alphabet)
    if len(codec.types) == 0:
        raise UsageError("span NER training needs BIOES-shaped tags in the data")
    out = []
    for rec in records:
        tags = corpus.retag(rec.gold, tag_alphabet, codec.tags)
        out.append(corpus.SentenceRecord(rec.tokens, codec.bioes_to_spans(tags)))
    return out, codec


def _build_model_and_data(family, train_path, bits, constrain_bioes=False):
    records, alphabet = _load_dataset(train_path, family)
    labels, kwargs = alphabet.freeze(), {}
    if family == "ner-span":
        records, codec = _records_to_spans(records, alphabet)
        labels = codec.types
    elif family == "ner-crf":
        kwargs = {"constrain_bioes": constrain_bioes}
    with _bad_settings():
        model = models.new_model(family, labels, bits=bits, **kwargs)
    return model, records, alphabet


def _dev_records(model, path, tag_alphabet):
    family = model.family
    if family in DEP_FAMILIES:
        records, _ = _load_dataset(path, family, rel_alphabet=model.rels)
        return records
    records, _ = _load_dataset(path, family, tag_alphabet=tag_alphabet)
    if family == "ner-span":
        records, _ = _records_to_spans(records, tag_alphabet)
    return records


def _emit_manifest(manifest, out_path):
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest.to_json_dict(), f, sort_keys=True, indent=2)
        f.write("\n")
    with open(f"{out_path}.history.csv", "w", encoding="utf-8") as f:
        f.write(manifest.history_csv())


def cmd_train(args):
    with _bad_settings():
        cfg = TrainConfig(args.epochs, args.lr, args.batch_size, args.seed)
    model, records, alphabet = _build_model_and_data(
        args.task, args.train, args.hash_bits, getattr(args, "constrain_bioes", False)
    )
    dev = _dev_records(model, args.dev, alphabet)
    model, manifest = train(model, records, dev, cfg)
    models.save_model(model, args.out)
    _emit_manifest(manifest, args.out)
    print(f"saved {args.task} model to {args.out} (best dev {manifest.best_dev:.4f})")
    return 0


def cmd_distill(args):
    resolved = {
        "case": args.case,
        "temperature": args.temperature,
        "temp_mode": args.temp_mode,
        "anneal_rate": args.anneal_rate,
        "unlabeled": args.unlabeled,
        "seed": args.seed,
    }
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                file_cfg = json.load(f)
        except FileNotFoundError:
            raise UsageError(f"no such file: {args.config}") from None
        for key, value in file_cfg.items():
            if key not in resolved:
                raise UsageError(f"unknown key {key!r} in {args.config}")
            resolved[key] = value
    if resolved["case"] is None:
        raise UsageError("--case is required (flag or config file)")
    case_tag = str(resolved["case"])
    with _bad_settings():
        cfg = TrainConfig(args.epochs, args.lr, args.batch_size, int(resolved["seed"]))
        dcfg = DistillConfig(
            case_tag,
            float(resolved["temperature"]),
            str(resolved["temp_mode"]),
            float(resolved["anneal_rate"]),
        )
    case = CASES[case_tag]

    teacher = _load_model(args.teacher)
    if teacher.family != case.teacher_family:
        raise UsageError(
            f"case {case_tag} expects a {case.teacher_family} teacher, "
            f"got {teacher.family} from {args.teacher}"
        )

    student_family = case.student_family
    if student_family in DEP_FAMILIES:
        alphabet, tag_alphabet = teacher.rels, None
        records, _ = _load_dataset(args.train, student_family, rel_alphabet=alphabet)
    else:
        # the case-4 BIOES student's alphabet comes from the span teacher's types
        tag_alphabet = alphabet = teacher.codec.tags if case_tag == "4" else teacher.tags
        records, _ = _load_dataset(args.train, student_family, tag_alphabet=tag_alphabet)
    with _bad_settings():
        student = models.new_model(student_family, alphabet, bits=args.hash_bits)
    dev = _dev_records(student, args.dev, tag_alphabet)

    if resolved["unlabeled"]:
        unlabeled = _read_unlabeled(resolved["unlabeled"], student_family)
        records = records + train_eval.pseudo_label_records(teacher, unlabeled)

    student, manifest = train(student, records, dev, cfg, distill_cfg=dcfg, teacher=teacher)
    models.save_model(student, args.out)
    _emit_manifest(manifest, args.out)
    print(
        f"distilled case {case_tag} student to {args.out} (best dev {manifest.best_dev:.4f})"
    )
    return 0


def _read_unlabeled(path, family):
    """Unlabeled sentences: token-per-line blocks (extra columns ignored)
    for NER tasks, CoNLL-U for dependency tasks (gold columns ignored)."""
    try:
        if family in DEP_FAMILIES:
            records, _ = corpus.read_conllu_path(path)
            return [corpus.SentenceRecord(r.tokens) for r in records]
        return corpus.read_tokens_path(path)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except corpus.ParseError as e:
        raise UsageError(f"{path}: {e}") from None


def _load_model(path):
    try:
        return models.load_model(path)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except (ValueError, KeyError) as e:
        raise UsageError(f"cannot load model {path}: {e}") from None


def cmd_eval(args):
    model = _load_model(args.model)
    if model.family in DEP_FAMILIES:
        test = _dev_records(model, args.test, None)
    elif model.family == "ner-span":
        test = _dev_records(model, args.test, model.codec.tags)
    else:
        test = _dev_records(model, args.test, model.tags)
    _, metrics = train_eval.evaluate(model, test)
    if args.json:
        print(json.dumps({k: round(v * 100, 4) for k, v in metrics.items()}, sort_keys=True))
    else:
        width = max(len(k) for k in metrics)
        for key in sorted(metrics):
            print(f"{key:<{width}}  {metrics[key] * 100:6.2f}")
    return 0


def cmd_pseudo_label(args):
    teacher = _load_model(args.teacher)
    unlabeled = _read_unlabeled(args.infile, teacher.family)
    labeled = train_eval.pseudo_label_records(teacher, unlabeled)
    with open(args.out, "w", encoding="utf-8") as f:
        if teacher.family in DEP_FAMILIES:
            corpus.write_conllu(labeled, teacher.rels, f)
        elif teacher.family == "ner-span":
            corpus.write_conll_ner(labeled, teacher.codec.tags, f)
        else:
            corpus.write_conll_ner(labeled, teacher.tags, f)
    print(f"wrote {len(labeled)} pseudo-labeled sentences to {args.out}")
    return 0


def cmd_verify(args):
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    checks = verify.run_suites(names, seed=args.seed, trials=args.trials)
    failed = [c for c in checks if not c.ok]
    if args.json:
        print(
            json.dumps(
                [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks], indent=2
            )
        )
    else:
        for c in checks:
            print(f"[{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}")
        print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return VERIFY_EXIT if failed else 0


def build_parser():
    p = argparse.ArgumentParser(prog="factorkd", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_train_flags(sp):
        sp.add_argument("--epochs", type=int, default=10)
        sp.add_argument("--lr", type=float, default=0.1)
        sp.add_argument("--batch-size", type=int, default=32)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--hash-bits", type=int, default=20)

    for name in ("train-teacher", "train-student"):
        sp = sub.add_parser(name, help="train a model without distillation")
        sp.add_argument("--task", required=True, choices=sorted(models.FAMILIES))
        sp.add_argument("--train", required=True)
        sp.add_argument("--dev", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--constrain-bioes", action="store_true",
                        help="forbid invalid BIOES transitions in the CRF")
        add_train_flags(sp)
        sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("distill", help="train a student against a teacher")
    sp.add_argument("--case", choices=sorted(CASES))
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--train", required=True)
    sp.add_argument("--dev", required=True)
    sp.add_argument("--unlabeled")
    sp.add_argument("--temperature", type=float, default=1.0)
    sp.add_argument("--temp-mode", choices=("local", "global"), default="local")
    sp.add_argument("--anneal-rate", type=float, default=1.0)
    sp.add_argument("--config", help="flat JSON config; flags fill unset keys")
    sp.add_argument("--out", required=True)
    add_train_flags(sp)
    sp.set_defaults(fn=cmd_distill)

    sp = sub.add_parser("eval", help="score a model on a test file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--test", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("pseudo-label", help="write the teacher's predictions")
    sp.add_argument("--teacher", required=True)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_pseudo_label)

    sp = sub.add_parser("verify", help="run oracle-equivalence and gradient suites")
    sp.add_argument("--suite", choices=sorted(verify.SUITES) + ["all"], default="all")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except train_eval.DivergedError as e:
        print(f"error: {e}", file=sys.stderr)
        return DIVERGED_EXIT


if __name__ == "__main__":
    sys.exit(main())
