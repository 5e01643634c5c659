"""Golden serving answers: one sha256 per serving route.

A fixed seeded request set — drawn words plus edge inputs (empty, one
token, over-length, all-OOV, tokens longer than ``max_chars``,
non-ASCII) — is tagged by a seeded backbone through three routes:
``predict_spans`` (one sentence per call), a ``TaggingService`` and an
in-process ``ShardedGateway``.  Each route's answers are serialised to
canonical JSON and hashed; the hashes in
``tests/golden/serving_answers.json`` must match exactly.  The routes
are pinned separately because they do not all agree: the service and
the gateway reject the empty and the over-length request, while
``predict_spans`` tags the over-length one and raises ``ValueError``
("sentence 0: empty token sequence", the service's reason) on the
empty one.

A change that means to move an answer regenerates the file with::

    PYTHONPATH=src python -m tests.test_golden_serving

and says why in CHANGES.md.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.data.sentence import Sentence
from repro.data.synthetic import generate_dataset
from repro.data.tags import TagScheme
from repro.data.vocab import CharVocabulary, Vocabulary
from repro.models import BackboneConfig, CNNBiGRUCRF
from repro.serving import (
    GatewayConfig,
    ManualClock,
    ServiceConfig,
    ShardedGateway,
    TaggingService,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "serving_answers.json")
ROUTES = ("predict_spans", "service", "gateway")
MAX_CHARS = 6
SANITIZER_MAX_TOKENS = 512

EDGE_REQUESTS = [
    [],
    ["the"],
    ["tok"] * (SANITIZER_MAX_TOKENS + 1),
    ["Qxvbnq", "zzkrw", "Plmvt", "Wqqzy"],
    ["internationalisation", "Kristiansand", "counterrevolutionaries"],
    ["Zürich", "東京", "naïve", "Αθήνα", "café", "🙂"],
    ["x" * 80, "reports"],
]


def _model():
    dataset = generate_dataset("OntoNotes", scale=0.02, seed=0)
    word_vocab = Vocabulary.from_datasets([dataset])
    char_vocab = CharVocabulary.from_datasets([dataset])
    scheme = TagScheme(("PER", "ORG", "LOC"))
    model = CNNBiGRUCRF(
        word_vocab, char_vocab, scheme.num_tags,
        BackboneConfig(word_dim=10, char_dim=6, char_filters=6, hidden=8,
                       max_chars=MAX_CHARS),
        np.random.default_rng(3), tag_names=scheme.tags,
    )
    rng = np.random.default_rng(11)
    words = sorted({t for s in dataset.sentences for t in s.tokens})
    drawn = [
        [words[i] for i in rng.integers(0, len(words), size=n)]
        for n in rng.integers(1, 25, size=24)
    ]
    return model, scheme, drawn + EDGE_REQUESTS


def _answer(result) -> list:
    if result.ok:
        return ["ok", [list(span) for span in result.spans],
                result.degraded, result.modified]
    return [result.status, getattr(result, "reason", "")]


def _predict_spans(model, scheme, requests):
    answers = []
    for tokens in requests:
        try:
            spans = model.predict_spans([Sentence(tuple(tokens))], scheme)[0]
        except ValueError as exc:
            # The model rejects the empty sentence before encoding, with
            # the service's reason; only the exception type is pinned.
            answers.append(["error", type(exc).__name__])
            continue
        answers.append(["ok", [list(span) for span in spans]])
    return answers


def _service(model, scheme):
    return TaggingService(model, scheme, ServiceConfig(max_pending=64),
                          clock=ManualClock())


def route_answers(route: str):
    """The route's answers to the request set, as JSON-ready lists."""
    model, scheme, requests = _model()
    if route == "predict_spans":
        return _predict_spans(model, scheme, requests)
    if route == "service":
        results = _service(model, scheme).tag_many(requests)
    else:
        clock = ManualClock()
        gateway = ShardedGateway(
            lambda _replica: _service(model, scheme),
            GatewayConfig(replicas=2), backend="in-process", clock=clock,
        )
        with gateway:
            results = gateway.tag_many(requests, timeout_s=30)
    return [_answer(result) for result in results]


def digest(answers) -> str:
    text = json.dumps(answers, sort_keys=True, ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_file_pins_every_route_with_spans():
    golden = _golden()
    assert sorted(golden["sha256"]) == sorted(ROUTES)
    assert golden["requests"] == len(_model()[2])
    assert golden["with_spans"] > 0


@pytest.mark.parametrize("route", ROUTES)
def test_serving_answers_match_golden(route):
    assert digest(route_answers(route)) == _golden()["sha256"][route]


if __name__ == "__main__":
    answers = {route: route_answers(route) for route in ROUTES}
    hashes = {route: digest(a) for route, a in answers.items()}
    with_spans = sum(1 for answer in answers["service"]
                     if answer[0] == "ok" and answer[1])
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump({"regenerate": "PYTHONPATH=src python -m "
                                 "tests.test_golden_serving",
                   "requests": len(answers["service"]),
                   "with_spans": with_spans,
                   "sha256": hashes}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
