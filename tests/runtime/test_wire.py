"""Schema checks on whole vectors: same verdicts as the per-element rules.

``_check_finite_floats`` and ``_check_ring_words`` judge a vector by the
set of types in it plus one pass over the values; these tests pin the
accept/reject boundary element by element, including the values that
used to escape as a bare ``OverflowError`` instead of a violation blamed
on the sender, and every field of the contribute command and of the
mask request's two shapes, checked at the wire so a rewrite in transit is
a blamed violation end to end.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import invariants
from repro.core.glimmer import HANDLE_BYTES, features_digest
from repro.core.signing import SignedContribution
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolViolation
from repro.experiments.common import Deployment
from repro.network.adversary import NetworkAdversary
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import OUTCOME_QUARANTINED
from repro.runtime.wire import (
    _check_finite_floats,
    _check_ring_words,
    validate_contribution,
    validate_payload,
)
from repro.sgx.attestation import Quote

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


# ------------------------------------------------------------ the mask request

QUOTE = Quote(
    mrenclave=b"\x01" * 32,
    mrsigner=b"\x02" * 32,
    version=1,
    debug=False,
    report_data=b"\x03" * 64,
    platform_id=b"\x04" * 16,
    signature=SchnorrSignature(challenge=1, response=1),
)
HANDLE = b"\x05" * HANDLE_BYTES


def _mask_request(**overrides):
    fields = dict(
        session_id=b"user-0000\x00\x00\x00\x01",
        dh_public=5,
        quote=QUOTE,
        round_id=1,
        party_index=0,
    )
    fields.update(overrides)
    return m.MaskRequest(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="full"),
        pytest.param(dict(session_id=HANDLE, dh_public=None, quote=None), id="in-session"),
    ],
)
def test_mask_request_accepted(overrides):
    validate_payload(m.KIND_MASK_REQUEST, SENDER, _mask_request(**overrides))


@pytest.mark.parametrize(
    "overrides",
    [
        # the full shape, type-confused
        dict(quote="not-a-quote"),
        dict(quote=7),
        dict(quote=None),
        dict(quote=replace(QUOTE, platform_id=[4])),
        dict(quote=replace(QUOTE, version="1")),
        dict(quote=replace(QUOTE, debug=0)),
        dict(quote=replace(QUOTE, signature=(1, 1))),
        dict(quote=replace(QUOTE, signature=SchnorrSignature(challenge=1.0, response=1))),
        dict(dh_public=None),
        dict(dh_public=0),
        dict(dh_public=True),
        dict(session_id=b""),
        dict(session_id="user-0000"),
        # the in-session shape, with something of the other or a bad handle
        dict(session_id=HANDLE, dh_public=None, quote=QUOTE),
        dict(session_id=HANDLE, dh_public=5, quote=None),
        dict(session_id=HANDLE[:-1], dh_public=None, quote=None),
        dict(session_id=HANDLE + b"\x00", dh_public=None, quote=None),
        dict(session_id=None, dh_public=None, quote=None),
    ],
)
def test_malformed_mask_request_is_blamed_on_the_sender(overrides):
    with pytest.raises(ProtocolViolation) as excinfo:
        validate_payload(m.KIND_MASK_REQUEST, SENDER, _mask_request(**overrides))
    _assert_blamed(excinfo)


class RewriteMaskRequest(NetworkAdversary):
    """On-path: rewrite fields of one device's mask requests."""

    def __init__(self, user_id: str, **fields) -> None:
        self.sender = m.client_endpoint(user_id)
        self.fields = fields

    def process(self, message):
        if message.kind == m.KIND_MASK_REQUEST and message.sender == self.sender:
            return message.with_payload(replace(message.payload, **self.fields))
        return message


@pytest.mark.parametrize("quote", ["not-a-quote", None, 7], ids=["str", "none", "int"])
def test_type_confused_quote_ends_in_a_verdict(quote):
    """A rewritten quote is a ``malformed`` violation blamed on the device
    whose request carried it: the round finalizes exactly over the rest,
    with that device quarantined — never a raw ``AttributeError``."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[1]
    deployment.network.interpose(RewriteMaskRequest(victim, quote=quote))
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(
        1, users, vectors, deployment.features.bigrams
    )
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.client_endpoint(victim),)
    assert report.outcomes[victim] == OUTCOME_QUARANTINED
    assert [(v.offender, v.kind) for v in report.violations] == [
        (m.client_endpoint(victim), VIOLATION_MALFORMED)
    ]
