"""Schema checks on whole vectors: same verdicts as the per-element rules.

``_check_finite_floats`` and ``_check_ring_words`` judge a vector by the
set of types in it plus one pass over the values; these tests pin the
accept/reject boundary element by element, including the values that
used to escape as a bare ``OverflowError`` instead of a violation blamed
on the sender.
"""

import numpy as np
import pytest

from repro.core.signing import SignedContribution
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolViolation
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
