"""Schema checks on whole vectors: same verdicts as the per-element rules.

``_check_finite_floats`` and ``_check_ring_words`` judge a vector by the
set of types in it plus one pass over the values; these tests pin the
accept/reject boundary element by element, including the values that
used to escape as a bare ``OverflowError`` instead of a violation blamed
on the sender, and every field of the contribute command, checked at the
wire so a rewrite in transit is a blamed violation end to end.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.glimmer import features_digest
from repro.core.signing import SignedContribution
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolViolation
from repro.experiments.common import Deployment
from repro.network.adversary import NetworkAdversary
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.wire import (
    _check_finite_floats,
    _check_ring_words,
    validate_contribution,
    validate_payload,
)

SENDER = "client:mallory"
HUGE = 10**400  # an int no float can hold


def _contribution(**overrides):
    fields = dict(
        round_id=1,
        nonce=b"\x07" * 16,
        blinded=True,
        ring_payload=(1, 2, 3),
        plain_payload=None,
        confidence=0.5,
        signature=SchnorrSignature(challenge=1, response=1),
    )
    fields.update(overrides)
    return SignedContribution(**fields)


def _assert_blamed(excinfo):
    assert excinfo.value.offender == SENDER
    assert excinfo.value.kind == VIOLATION_MALFORMED


@pytest.mark.parametrize(
    "values",
    [(), (0.0, 1, -2.5, 10**300), (np.float64(0.25), 1.0), tuple([0.5] * 4096)],
)
def test_finite_floats_accepted(values):
    _check_finite_floats(SENDER, 1, "values", values)


@pytest.mark.parametrize(
    "values",
    [
        [1.0, 2.0],
        (1.0, float("nan")),
        (float("inf"), 1.0),
        (1.0, True),
        (1.0, "2"),
        (1.0, None),
        (1.0, 1j),
        pytest.param((1.0, HUGE), id="too-large-for-a-float"),
        pytest.param((-HUGE,), id="too-small-for-a-float"),
    ],
)
def test_malformed_floats_are_blamed_on_the_sender(values):
    with pytest.raises(ProtocolViolation) as excinfo:
        _check_finite_floats(SENDER, 1, "values", values)
    _assert_blamed(excinfo)


@pytest.mark.parametrize("words", [(), (0, 1, (1 << 64) - 1), tuple(range(4096))])
def test_ring_words_accepted(words):
    _check_ring_words(SENDER, 1, "ring_payload", words)


def test_ring_words_must_come_in_a_tuple():
    with pytest.raises(ProtocolViolation) as excinfo:
        _check_ring_words(SENDER, 1, "ring_payload", [1, 2])
    _assert_blamed(excinfo)


@pytest.mark.parametrize(
    "stray",
    [-1, 1 << 64, pytest.param(HUGE, id="huge"), 2.0, True, np.uint64(2), "2"],
)
def test_malformed_ring_word_is_named_and_blamed_on_the_sender(stray):
    for words in ((stray, 1), (1, stray, 3)):
        with pytest.raises(ProtocolViolation) as excinfo:
            _check_ring_words(SENDER, 1, "ring_payload", words)
        _assert_blamed(excinfo)
        assert repr(stray) in str(excinfo.value)


@pytest.mark.parametrize("confidence", [0, 1, 0.0, 1.0, 0.25])
def test_confidence_in_range_accepted(confidence):
    validate_contribution(SENDER, 1, _contribution(confidence=confidence))


@pytest.mark.parametrize(
    "confidence",
    [
        pytest.param(HUGE, id="too-large-for-a-float"),
        pytest.param(-HUGE, id="too-small-for-a-float"),
        2, -0.5, float("nan"), float("inf"), True, "0.5", None,
    ],
)
def test_confidence_out_of_range_is_blamed_on_the_sender(confidence):
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_contribution(SENDER, 1, _contribution(confidence=confidence))
    _assert_blamed(excinfo)


def test_unrepresentable_plain_payload_is_a_violation_not_a_crash():
    forged = _contribution(
        blinded=False, ring_payload=None, plain_payload=(1.0, HUGE)
    )
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(
            m.KIND_SUBMIT, SENDER, m.SubmitContribution(round_id=1, contribution=forged)
        )
    _assert_blamed(excinfo)


# ------------------------------------------------------- the contribute command

BIGRAMS = (("the", "cat"), ("cat", "sat"))


def _command(**overrides):
    fields = dict(
        round_id=1,
        values=(0.5, 0.25),
        features=BIGRAMS,
        features_digest=features_digest(BIGRAMS),
    )
    fields.update(overrides)
    return m.ContributeCommand(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        dict(features=()),
        dict(features=(), features_digest=b"\x00" * 32),
        dict(blind=False),
        dict(claims=(("age", 30), ("region", "eu"))),
        dict(context_fields=("typing-speed",)),
    ],
)
def test_contribute_command_accepted(overrides):
    validate_payload(m.KIND_CONTRIBUTE, SENDER, _command(**overrides))


@pytest.mark.parametrize(
    "overrides",
    [
        dict(features_digest=b"\x00" * 31),
        dict(features_digest=b"\x00" * 33),
        dict(features_digest="0" * 32),
        dict(features_digest=None),
        dict(features=None),
        dict(features=7),
        dict(features=list(BIGRAMS)),
        dict(features=(["the", "cat"],)),
        dict(features=(("a",),) * 3),
        dict(features=(("the", "cat", "sat"),)),
        dict(features=(("the", 1),)),
        pytest.param(dict(features=BIGRAMS[:1]), id="list-misses-its-digest"),
        dict(blind="yes"),
        dict(blind=None),
        dict(blind=1),
        dict(claims=None),
        dict(claims=(("a",),)),
        dict(claims=((1, "x"),)),
        dict(claims=[("a", 1)]),
        dict(context_fields=None),
        dict(context_fields=(1, 2)),
        dict(context_fields=["typing-speed"]),
    ],
)
def test_malformed_contribute_command_is_blamed_on_the_sender(overrides):
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(m.KIND_CONTRIBUTE, SENDER, _command(**overrides))
    _assert_blamed(excinfo)


class RewriteContribute(NetworkAdversary):
    """On-path: rewrite fields of the contribute commands to one device, in
    the rounds named (all rounds when ``rounds`` is ``None``)."""

    def __init__(self, user_id: str, rounds=None, **fields) -> None:
        self.receiver = m.client_endpoint(user_id)
        self.rounds = rounds
        self.fields = fields

    def process(self, message):
        if (
            message.kind == m.KIND_CONTRIBUTE
            and message.receiver == self.receiver
            and (self.rounds is None or message.payload.round_id in self.rounds)
        ):
            return message.with_payload(replace(message.payload, **self.fields))
        return message


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param(dict(values=(float("nan"),) * 77), id="values-nan"),
        pytest.param(dict(features=None), id="features-none"),
        pytest.param(dict(features=7), id="features-int"),
        pytest.param(dict(features=(("a",),) * 3), id="features-short-pairs"),
        pytest.param(dict(claims=None), id="claims-none"),
        pytest.param(dict(claims=(("a",),)), id="claims-short-pair"),
        pytest.param(dict(context_fields=None), id="context-none"),
        pytest.param(dict(context_fields=(1, 2)), id="context-ints"),
        pytest.param(dict(blind="yes"), id="blind-str"),
        pytest.param(dict(blind=None), id="blind-none"),
    ],
)
def test_tampered_contribute_command_is_a_violation_end_to_end(fields):
    """Each rewrite reaches ``run_round`` as the same blamed violation the
    tampered ``values`` always did, never a raw ``TypeError``/``ValueError``
    and never an unblinded signature."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    victim = deployment.corpus.users[1].user_id
    deployment.network.interpose(RewriteContribute(victim, **fields))
    with pytest.raises(ProtocolViolation) as excinfo:
        deployment.honest_round(1)
    assert excinfo.value.kind == VIOLATION_MALFORMED
    assert excinfo.value.offender == m.ENGINE
