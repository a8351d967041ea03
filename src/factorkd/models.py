"""Model family registry and JSON (de)serialization."""

from __future__ import annotations

import json

from .chain_crf import ChainCrfTagger
from .corpus import LabelAlphabet
from .head_parser import FirstOrderParser, SecondOrderParser
from .span_ner import SpanNerModel
from .token_maxent import MaxEntTagger

FAMILIES = {
    "ner-crf": ChainCrfTagger,
    "ner-maxent": MaxEntTagger,
    "ner-span": SpanNerModel,
    "dep-1st": FirstOrderParser,
    "dep-2nd": SecondOrderParser,
}

FORMAT = "factorkd-model-v1"
TEMPLATES = "tmpl-v1"


def new_model(family: str, alphabet: LabelAlphabet, bits: int = 20, **kwargs):
    """Zero-initialized model; `alphabet` is the tag, relation, or entity
    type alphabet depending on the family."""
    try:
        cls = FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown model family {family!r}") from None
    return cls(alphabet, bits=bits, **kwargs)


def save_model(model, path):
    payload = model.to_payload()
    payload["format"] = FORMAT
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def _block_lengths(family: str, bits: int, n_labels: int) -> dict:
    """Number of float64 entries in each parameter block of a model file."""
    size, L = 1 << bits, n_labels
    if family.startswith("ner-"):
        blocks = {"weights": size, "bias": L}
        if family == "ner-crf":
            blocks.update(trans=L * L, start=L, stop=L)
        return blocks
    blocks = {"arc_weights": size, "arc_bias": 1, "rel_weights": size, "rel_bias": L}
    if family == "dep-2nd":
        blocks.update(sib_weights=size, sib_bias=1)
    return blocks


def _check_payload(path, payload):
    """Reject a model file whose template version or block shapes do not
    match its hash width and alphabet, before any array is decoded."""
    if payload.get("templates") != TEMPLATES:
        raise ValueError(
            f"{path}: feature templates {payload.get('templates')!r}, expected {TEMPLATES!r}"
        )
    bits = payload["hash_bits"]
    (alphabet,) = payload["alphabets"].values()
    n_labels = len(alphabet["labels"])
    blocks = payload["blocks"]
    for name, want in _block_lengths(payload["family"], bits, n_labels).items():
        if name not in blocks:
            raise ValueError(f"{path}: block {name!r} is missing")
        encoded = blocks[name]
        got = (len(encoded) * 3 // 4 - encoded[-2:].count("=")) / 8
        if got != want:
            basis = f"2^{bits} hash slots" if name.endswith("weights") else f"{n_labels} labels"
            raise ValueError(
                f"{path}: block {name!r} has {got:g} entries, expected {want} ({basis})"
            )


def load_model(path):
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    family = payload["family"]
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    _check_payload(path, payload)
    return FAMILIES[family].from_payload(payload)
