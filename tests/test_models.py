import json

import numpy as np
import pytest

from factorkd import models
from factorkd.corpus import LabelAlphabet
from factorkd.scorer import encode_array
from factorkd.verify import rand_model

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

    # a model with random parameters loads back bit for bit, every block
    model = rand_model(family, np.random.default_rng(0), n_labels=len(LABELS))
    models.save_model(model, tmp_path / "random.json")
    loaded = models.load_model(tmp_path / "random.json")
    assert list(loaded.params) == list(model.params)
    for name, a in model.params.items():
        assert loaded.params[name].shape == a.shape
        assert loaded.params[name].tobytes() == a.tobytes()

    # any one block one entry short is rejected, naming the file and the block
    for name, a in model.params.items():
        short = encode_array(np.zeros(a.size - 1))
        path = _saved(tmp_path, family, lambda p: p["blocks"].update({name: short}))
        with pytest.raises(
            ValueError,
            match=rf"model\.json: block '{name}' has {a.size - 1} entries, expected {a.size} ",
        ):
            models.load_model(path)


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
