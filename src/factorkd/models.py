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


def load_model(path):
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} document")
    family = payload["family"]
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown model family {family!r}")
    try:
        return FAMILIES[family].from_payload(payload)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
