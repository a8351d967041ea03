import json

import pytest

from factorkd import models
from factorkd.corpus import LabelAlphabet

LABELS = LabelAlphabet("labels", ["O", "S-X", "B-X", "E-X"]).freeze()


def _saved(tmp_path, family, edit):
    path = tmp_path / "model.json"
    models.save_model(models.new_model(family, LABELS, bits=12), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("family", sorted(models.FAMILIES))
def test_load_accepts_every_family_as_saved(tmp_path, family):
    assert models.load_model(_saved(tmp_path, family, lambda p: None)).family == family


def test_load_rejects_hash_bits_that_do_not_match_the_weights(tmp_path):
    path = _saved(tmp_path, "ner-maxent", lambda p: p.update(hash_bits=14))
    with pytest.raises(ValueError, match=r"model\.json: block 'weights' has 4096 entries, expected 16384"):
        models.load_model(path)


def test_load_rejects_label_blocks_that_do_not_match_the_alphabet(tmp_path):
    def drop_label(p):
        (alphabet,) = p["alphabets"].values()
        alphabet["labels"].pop()

    path = _saved(tmp_path, "ner-span", drop_label)
    with pytest.raises(ValueError, match=r"model\.json: block 'bias' has 4 entries, expected 3"):
        models.load_model(path)

    path = _saved(tmp_path, "ner-crf", lambda p: p["blocks"].update(trans=p["blocks"]["start"]))
    with pytest.raises(ValueError, match=r"block 'trans' has 4 entries, expected 16"):
        models.load_model(path)

    path = _saved(tmp_path, "dep-2nd", lambda p: p["blocks"].update(rel_bias=p["blocks"]["sib_bias"]))
    with pytest.raises(ValueError, match=r"block 'rel_bias' has 1 entries, expected 4"):
        models.load_model(path)


def test_load_rejects_other_template_versions(tmp_path):
    path = _saved(tmp_path, "ner-crf", lambda p: p.update(templates="tmpl-v2"))
    with pytest.raises(ValueError, match=r"model\.json: feature templates 'tmpl-v2'"):
        models.load_model(path)
