import json
import os

import numpy as np
import pytest

from factorkd import corpus
from factorkd.cli import DIVERGED_EXIT, main


@pytest.fixture(scope="module")
def ner_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("ner")
    spec = corpus.SynthChainSpec(vocab_per_type=15, filler_vocab=40)
    train, alpha = corpus.synth_generate("chain", 60, max_len=6, min_len=3, seed=1, chain_spec=spec)
    dev, _ = corpus.synth_generate("chain", 20, max_len=6, min_len=3, seed=2, chain_spec=spec)
    paths = {}
    for name, records in (("train", train), ("dev", dev)):
        p = root / f"{name}.conll"
        with open(p, "w", encoding="utf-8") as f:
            corpus.write_conll_ner(records, alpha, f)
        paths[name] = str(p)
    paths["root"] = str(root)
    return paths


@pytest.fixture(scope="module")
def dep_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("dep")
    train, rels = corpus.synth_generate("heads", 40, max_len=5, min_len=3, seed=3)
    dev, _ = corpus.synth_generate("heads", 15, max_len=5, min_len=3, seed=4)
    paths = {}
    for name, records in (("train", train), ("dev", dev)):
        p = root / f"{name}.conllu"
        with open(p, "w", encoding="utf-8") as f:
            corpus.write_conllu(records, rels, f)
        paths[name] = str(p)
    paths["root"] = str(root)
    return paths


def _train_teacher(ner_files, task="ner-crf", out="teacher.json", extra=()):
    out_path = os.path.join(ner_files["root"], out)
    code = main(
        [
            "train-teacher", "--task", task,
            "--train", ner_files["train"], "--dev", ner_files["dev"],
            "--out", out_path, "--epochs", "2", "--hash-bits", "12", *extra,
        ]
    )
    assert code == 0
    return out_path


def test_train_teacher_writes_model_and_manifest(ner_files, capsys):
    out = _train_teacher(ner_files)
    assert os.path.exists(out)
    assert os.path.exists(out + ".manifest.json")
    assert os.path.exists(out + ".history.csv")
    with open(out + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["seed"] == 1 and len(manifest["history"]) == 2


def test_eval_prints_metric_table(ner_files, capsys):
    model = _train_teacher(ner_files)
    code = main(["eval", "--model", model, "--test", ner_files["dev"]])
    assert code == 0
    out = capsys.readouterr().out
    assert "f1" in out and "precision" in out


def test_eval_json_output_shape(ner_files, capsys):
    model = _train_teacher(ner_files)
    capsys.readouterr()
    code = main(["eval", "--model", model, "--test", ner_files["dev"], "--json"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert set(metrics) == {"precision", "recall", "f1"}


def test_eval_on_memorized_data_prints_hundred(tmp_path, capsys):
    # a tiny corpus with distinctive tokens is memorized exactly, so eval on
    # the training data itself prints a perfect score
    records = [
        corpus.SentenceRecord(["kyoto", "beams"], corpus.TagSequence((0, 1))),
        corpus.SentenceRecord(["quartz", "volant", "nimbus"], corpus.TagSequence((1, 0, 1))),
    ]
    alpha = corpus.LabelAlphabet("ner-tags", ["S-PER", "O"]).freeze()
    data = tmp_path / "tiny.conll"
    with open(data, "w", encoding="utf-8") as f:
        corpus.write_conll_ner(records, alpha, f)
    model_path = str(tmp_path / "tiny.json")
    code = main(
        [
            "train-teacher", "--task", "ner-maxent", "--train", str(data),
            "--dev", str(data), "--out", model_path,
            "--epochs", "40", "--lr", "1.0", "--hash-bits", "12",
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["eval", "--model", model_path, "--test", str(data)])
    assert code == 0
    out = capsys.readouterr().out
    assert "100.00" in out


def test_distill_case_2a_end_to_end(ner_files, capsys):
    teacher = _train_teacher(ner_files)
    out = os.path.join(ner_files["root"], "student.json")
    code = main(
        [
            "distill", "--case", "2a", "--teacher", teacher,
            "--train", ner_files["train"], "--dev", ner_files["dev"],
            "--temperature", "2", "--anneal-rate", "1.0", "--seed", "3",
            "--epochs", "2", "--hash-bits", "12", "--out", out,
        ]
    )
    assert code == 0
    with open(out) as f:
        payload = json.load(f)
    assert payload["family"] == "ner-maxent"
    with open(out + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["config"]["distill"]["temperature"] == 2.0
    assert manifest["config"]["distill"]["case"] == "2a"


def test_distill_family_mismatch_is_usage_error(ner_files, capsys):
    teacher = _train_teacher(ner_files, task="ner-maxent", out="maxent.json")
    out = os.path.join(ner_files["root"], "bad.json")
    code = main(
        [
            "distill", "--case", "1a", "--teacher", teacher,
            "--train", ner_files["train"], "--dev", ner_files["dev"], "--out", out,
        ]
    )
    assert code == 2
    assert "expects a ner-crf teacher" in capsys.readouterr().err


def test_distill_config_file_merges(ner_files, tmp_path, capsys):
    teacher = _train_teacher(ner_files)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"case": "2a", "temperature": 3.0, "anneal_rate": 0.5}))
    out = os.path.join(ner_files["root"], "student_cfg.json")
    code = main(
        [
            "distill", "--teacher", teacher, "--config", str(cfg),
            "--train", ner_files["train"], "--dev", ner_files["dev"],
            "--epochs", "1", "--hash-bits", "12", "--out", out,
        ]
    )
    assert code == 0
    with open(out + ".manifest.json") as f:
        manifest = json.load(f)
    assert manifest["config"]["distill"]["temperature"] == 3.0


def test_missing_file_is_usage_error(ner_files, capsys):
    code = main(
        [
            "train-teacher", "--task", "ner-crf",
            "--train", "/nonexistent.conll", "--dev", ner_files["dev"],
            "--out", os.path.join(ner_files["root"], "x.json"),
        ]
    )
    assert code == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("distill", ["--temperature", "0"], None),
        ("distill", ["--anneal-rate", "0"], None),
        ("distill", [], {"temp_mode": "sideways"}),
        ("distill", [], {"temperature": "hot"}),
        ("distill", ["--batch-size", "0"], None),
        ("train-teacher", ["--batch-size", "0"], None),
        ("train-teacher", ["--epochs", "-1"], None),
        ("train-teacher", ["--lr", "-0.1"], None),
        ("train-teacher", ["--hash-bits", "40"], None),
    ],
    ids=[
        "temperature-0", "anneal-rate-0", "config-mode", "config-temperature",
        "distill-batch-size-0", "batch-size-0", "epochs-negative", "lr-negative", "hash-bits-40",
    ],
)
def test_bad_settings_are_usage_errors_before_any_file_is_written(
    ner_files, tmp_path, capsys, command, flags, config
):
    argv = [command, "--train", ner_files["train"], "--dev", ner_files["dev"]]
    if command == "distill":
        argv += ["--case", "2a", "--teacher", _train_teacher(ner_files)]
    else:
        argv += ["--task", "ner-crf"]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "model.json"
    capsys.readouterr()
    assert main(argv + ["--out", str(out), "--hash-bits", "12", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.glob("model.json*"))


def test_unknown_flag_exits_two(ner_files):
    with pytest.raises(SystemExit) as e:
        main(["eval", "--nope"])
    assert e.value.code == 2


def test_diverging_training_exits_nonzero_with_the_epoch(ner_files, capsys):
    out = os.path.join(ner_files["root"], "diverged.json")
    with np.errstate(all="ignore"):
        code = main(
            [
                "train-teacher", "--task", "ner-crf",
                "--train", ner_files["train"], "--dev", ner_files["dev"],
                "--out", out, "--epochs", "2", "--hash-bits", "12", "--lr", "1e300", "--batch-size", "2",
            ]
        )
    assert code == DIVERGED_EXIT
    assert "epoch 1" in capsys.readouterr().err
    assert not os.path.exists(out + ".manifest.json")


def test_pseudo_label_round_trip(ner_files, capsys):
    teacher = _train_teacher(ner_files)
    out = os.path.join(ner_files["root"], "pseudo.conll")
    code = main(["pseudo-label", "--teacher", teacher, "--in", ner_files["dev"], "--out", out])
    assert code == 0
    records, _ = corpus.read_ner_path(out)
    assert len(records) == 20


def test_pseudo_label_token_only_input(ner_files, tmp_path):
    teacher = _train_teacher(ner_files)
    raw = tmp_path / "raw.txt"
    raw.write_text("w001\nname002\n\nw003\n\n")
    out = str(tmp_path / "pseudo.conll")
    code = main(["pseudo-label", "--teacher", teacher, "--in", str(raw), "--out", out])
    assert code == 0
    records, _ = corpus.read_ner_path(out)
    assert [len(r) for r in records] == [2, 1]


def test_distill_with_unlabeled_file(ner_files, tmp_path):
    teacher = _train_teacher(ner_files)
    raw = tmp_path / "unlabeled.txt"
    raw.write_text("w001 junkcolumn\nname002 junkcolumn\n\nw003 junkcolumn\n\n")
    out = os.path.join(ner_files["root"], "student_unlab.json")
    code = main(
        [
            "distill", "--case", "2a", "--teacher", teacher,
            "--train", ner_files["train"], "--dev", ner_files["dev"],
            "--unlabeled", str(raw), "--epochs", "1", "--hash-bits", "12",
            "--out", out,
        ]
    )
    assert code == 0


def test_dep_train_and_eval(dep_files, capsys):
    out = os.path.join(dep_files["root"], "parser.json")
    code = main(
        [
            "train-student", "--task", "dep-1st",
            "--train", dep_files["train"], "--dev", dep_files["dev"],
            "--out", out, "--epochs", "2", "--hash-bits", "12",
        ]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["eval", "--model", out, "--test", dep_files["dev"], "--json"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert set(metrics) == {"las", "uas"}


def test_second_order_teacher_trains(dep_files):
    out = os.path.join(dep_files["root"], "parser2.json")
    code = main(
        [
            "train-teacher", "--task", "dep-2nd",
            "--train", dep_files["train"], "--dev", dep_files["dev"],
            "--out", out, "--epochs", "1", "--hash-bits", "12",
        ]
    )
    assert code == 0


def test_distill_case_2b_end_to_end(dep_files):
    teacher = os.path.join(dep_files["root"], "parser2.json")
    if not os.path.exists(teacher):
        test_second_order_teacher_trains(dep_files)
    out = os.path.join(dep_files["root"], "student2b.json")
    code = main(
        [
            "distill", "--case", "2b", "--teacher", teacher,
            "--train", dep_files["train"], "--dev", dep_files["dev"],
            "--epochs", "1", "--hash-bits", "12", "--out", out,
        ]
    )
    assert code == 0


def test_span_teacher_and_case4_distill(ner_files):
    teacher = os.path.join(ner_files["root"], "span_teacher.json")
    code = main(
        [
            "train-teacher", "--task", "ner-span",
            "--train", ner_files["train"], "--dev", ner_files["dev"],
            "--out", teacher, "--epochs", "2", "--hash-bits", "12",
        ]
    )
    assert code == 0
    with open(teacher) as f:
        assert json.load(f)["family"] == "ner-span"
    out = os.path.join(ner_files["root"], "student4.json")
    code = main(
        [
            "distill", "--case", "4", "--teacher", teacher,
            "--train", ner_files["train"], "--dev", ner_files["dev"],
            "--temperature", "1", "--epochs", "1", "--hash-bits", "12", "--out", out,
        ]
    )
    assert code == 0
    with open(out) as f:
        assert json.load(f)["family"] == "ner-maxent"


def test_verify_suite_chain_passes(capsys):
    code = main(["verify", "--suite", "chain", "--trials", "10"])
    assert code == 0
    assert "[ok]" in capsys.readouterr().out


def test_verify_json_output(capsys):
    code = main(["verify", "--suite", "heads", "--trials", "5", "--json"])
    assert code == 0
    checks = json.loads(capsys.readouterr().out)
    assert all(c["ok"] for c in checks)


def test_determinism_byte_identical_artifacts(ner_files):
    out_a = os.path.join(ner_files["root"], "det_a.json")
    out_b = os.path.join(ner_files["root"], "det_b.json")
    for out in (out_a, out_b):
        code = main(
            [
                "train-teacher", "--task", "ner-maxent",
                "--train", ner_files["train"], "--dev", ner_files["dev"],
                "--out", out, "--epochs", "2", "--seed", "9", "--hash-bits", "12",
            ]
        )
        assert code == 0
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()
    with open(out_a + ".manifest.json", "rb") as fa, open(out_b + ".manifest.json", "rb") as fb:
        assert fa.read() == fb.read()
