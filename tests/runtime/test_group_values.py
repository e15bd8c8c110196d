"""Group values on the wire: fixed widths, refusals at decode, and frames
whose lengths no longer follow the enclave's measurement.

Every group element, scalar and challenge a record carries crosses as an
unsigned integer exactly as wide as its bound in the record's group (the
group itself as a one-byte code), so a frame's length follows its
declaration, never the value: not the signer's nonce, not MRENCLAVE.  A
value outside the group is a ``ProtocolViolation`` at decode that names
the class and the field.  The finalize reply the engine audits and the
auditor's verdict message are declared field by field too, so a mistyped
field is refused as it crosses, not met later as a ``TypeError``.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec, invariants
from repro.core.auditor import VerdictMessage
from repro.core.glimmer import KeyDelivery
from repro.core.remote import AttestedOffer
from repro.core.service import RoundResult
from repro.core.split import PairingOffer
from repro.crypto import group_ops
from repro.crypto.commitments import MaskCommitmentRecord, MaskCommitmentSet, MaskOpening
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.masking import MaskShare
from repro.crypto.schnorr import CHALLENGE_BITS, SchnorrPublicKey, SchnorrSignature
from repro.errors import ProtocolViolation
from repro.experiments.common import Deployment
from repro.network.transport import REPLY_SUFFIX, Network
from repro.perf import kernels
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.sgx import measurement
from tests.runtime.test_codec import QUOTE, REPORT, SAMPLES
from tests.runtime.test_schema import _aborted_round_with

GROUPS = (TEST_GROUP, OAKLEY_GROUP_1)
ELEMENT, SCALAR, CHALLENGE = "element", "scalar", "challenge"


def _member(group, exponent: int = 12345) -> int:
    return pow(4, exponent, group.prime)


def _records(group):
    """``(class, field, kind, build)``: one per group value a record
    carries, ``build(value)`` the record with ``value`` in that field."""
    e = _member(group)
    sig = SchnorrSignature(1, 1, e, group)
    committed = MaskCommitmentSet(
        7, 2, 2, group, (b"\x01" * 32, b"\x02" * 32), (e, e),
        kernels.be_words_to_bytes(range(8)), 11,
    )
    return [
        (SchnorrSignature, "challenge", CHALLENGE, lambda v: replace(sig, challenge=v)),
        (SchnorrSignature, "response", SCALAR, lambda v: replace(sig, response=v)),
        (SchnorrSignature, "commitment", ELEMENT, lambda v: replace(sig, commitment=v)),
        (SchnorrPublicKey, "element", ELEMENT, lambda v: SchnorrPublicKey(group, v)),
        (MaskCommitmentRecord, "point", ELEMENT,
         lambda v: replace(committed.record_for(0), point=v)),
        (MaskCommitmentSet, "points", ELEMENT, lambda v: replace(committed, points=(e, v))),
        (MaskCommitmentSet, "randomizer_sum", SCALAR,
         lambda v: replace(committed, randomizer_sum=v)),
        (MaskOpening, "randomizer", SCALAR,
         lambda v: MaskOpening(MaskShare(2, words=kernels.be_words_to_bytes((0, 1))), b"\x06" * 32, v, group)),
        (m.MaskRequest, "dh_public", ELEMENT,
         lambda v: m.MaskRequest(b"\x05" * 16, v, QUOTE, 1, 3, group)),
        (KeyDelivery, "peer_dh_public", ELEMENT,
         lambda v: KeyDelivery(b"\x05" * 16, v, sig, b"\x08" * 48, group)),
        (AttestedOffer, "dh_public", ELEMENT,
         lambda v: AttestedOffer(b"\x05" * 16, v, QUOTE, group)),
        (PairingOffer, "dh_public", ELEMENT, lambda v: PairingOffer(v, REPORT, group)),
    ]


CASES = [
    pytest.param(group, index, id=f"{group.name}-{cls.__name__}.{field}")
    for group in GROUPS
    for index, (cls, field, __, ___) in enumerate(_records(group))
]


def _bound(group, kind: str) -> int:
    if kind == ELEMENT:
        return group.prime
    if kind == SCALAR:
        return group.subgroup_order
    return min(group.subgroup_order, 1 << CHALLENGE_BITS)


def _admitted(group, kind: str):
    """Values the field admits: subgroup members for an element (squares,
    small ones included), anything below the bound for a scalar."""
    if kind == ELEMENT:
        return st.integers(2, group.prime - 2).map(lambda x: pow(x, 2, group.prime))
    return st.integers(0, _bound(group, kind) - 1)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("group, index", CASES)
def test_a_group_value_frames_at_its_width_whatever_its_leading_zeros(group, index, data):
    cls, field, kind, build = _records(group)[index]
    value = data.draw(_admitted(group, kind))
    small, full = (4, _member(group)) if kind == ELEMENT else (0, _bound(group, kind) - 1)
    frames = [codec.encode(build(v)) for v in (value, small, full)]
    assert len({len(frame) for frame in frames}) == 1
    decoded = codec.decode(frames[0])
    assert type(decoded) is cls
    held = getattr(decoded, field)
    assert (held[-1] if field == "points" else held) == value


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("group, index", CASES)
def test_a_value_outside_the_group_is_refused_at_decode_naming_its_field(group, index, data):
    """p, p + 1 and a non-residue for an element; q for a scalar; the
    bound for a challenge.  Each is a ``ProtocolViolation`` naming
    ``Class.field`` — never an ``IndexError``, ``struct.error``,
    ``TypeError`` or ``OverflowError``."""
    cls, field, kind, build = _records(group)[index]
    p = group.prime
    if kind == ELEMENT:
        x = data.draw(st.integers(2, p - 2))
        outside = [p, p + 1, x if group_ops.jacobi(x, p) == -1 else p - x]
    else:
        outside = [_bound(group, kind)]
    for value in outside:
        with pytest.raises(ProtocolViolation) as excinfo:
            codec.decode(codec.encode(build(value)))
        assert f"{cls.__qualname__}.{field} " in excinfo.value.detail
        assert excinfo.value.kind == VIOLATION_MALFORMED


def test_a_record_naming_no_group_carries_no_group_values():
    """The in-session shapes name no group (code 0) and carry no DH value;
    a DH value with no group to spell it in is refused."""
    request = SAMPLES[m.MaskRequest]
    assert request.group is None and codec.decode(codec.encode(request)) == request
    with pytest.raises(ProtocolViolation) as excinfo:
        codec.decode(codec.encode(replace(request, dh_public=_member(TEST_GROUP))))
    assert "MaskRequest.dh_public " in excinfo.value.detail
    with pytest.raises(ProtocolViolation) as excinfo:
        codec.decode(codec.encode(replace(SAMPLES[SchnorrSignature], group=None)))
    assert "SchnorrSignature.group " in excinfo.value.detail


# ------------------------------------------------ frames do not follow MRENCLAVE


def _round_frames(monkeypatch, identity: bytes):
    """One 8-user round under ``identity`` as every program's code: the
    length of each bus frame by kind, request and reply, and the round's
    metered bytes."""
    monkeypatch.setattr(
        measurement, "code_identity_of", lambda cls: identity + cls.__qualname__.encode()
    )
    frames: dict[str, list] = {}
    deliver = Network.deliver_raw

    def tapped(network, message):
        reply = deliver(network, message)
        sizes = frames.setdefault(message.kind, [])
        sizes.append((len(codec.encode(message.payload)), len(codec.encode(reply))))
        return reply

    monkeypatch.setattr(Network, "deliver_raw", tapped)
    deployment = Deployment.build(num_users=8, seed=b"wire-vs-mrenclave")
    deployment.honest_round(1)
    monkeypatch.undo()
    report = deployment.last_report
    return deployment.image.mrenclave, frames, report.bytes_on_wire


def test_wire_bytes_do_not_follow_mrenclave(monkeypatch):
    """The enclave RNG that MRENCLAVE seeds picks every signature nonce; with
    group values at their group's width, no frame's length follows it."""
    first_id, first, first_bytes = _round_frames(monkeypatch, b"tree-a:")
    second_id, second, second_bytes = _round_frames(monkeypatch, b"tree-b:")
    assert first_id != second_id
    assert {kind: sorted(sizes) for kind, sizes in first.items()} == {
        kind: sorted(sizes) for kind, sizes in second.items()
    }
    assert first_bytes == second_bytes


# ---------------------------------------------- the audited replies, declared

GOOD_RESULT = SAMPLES[RoundResult]
GOOD_VERDICT = SAMPLES[VerdictMessage]


@pytest.mark.parametrize(
    "value, field",
    [
        (replace(GOOD_RESULT, round_id="7"), "round_id"),
        (replace(GOOD_RESULT, aggregate=[0.5, -1.25]), "aggregate"),
        (replace(GOOD_RESULT, num_contributions=1.0), "num_contributions"),
        (replace(GOOD_RESULT, num_dropouts_repaired=-1), "num_dropouts_repaired"),
        (replace(GOOD_RESULT, rejected=[("client:x", "bad-signature")]), "rejected"),
        (replace(GOOD_RESULT, accepted=(b"not-a-contribution",)), "accepted"),
        (replace(GOOD_VERDICT, session_id=b"s1"), "session_id"),
        (replace(GOOD_VERDICT, challenge=b"\x01" * 16), "challenge"),
        (replace(GOOD_VERDICT, verdict_bit=2), "verdict_bit"),
        (replace(GOOD_VERDICT, challenge_response="x" * 32), "challenge_response"),
        (replace(GOOD_VERDICT, signature_bytes=b"\x03" * 64), "signature_bytes"),
    ],
    ids=lambda x: x if isinstance(x, str) else type(x).__name__,
)
def test_a_mistyped_audited_field_is_refused_at_decode(value, field):
    with pytest.raises(ProtocolViolation) as excinfo:
        codec.decode(codec.encode(value))
    assert f"{type(value).__qualname__}.{field} " in excinfo.value.detail


def test_a_finalize_reply_with_mistyped_rejections_aborts_blaming_the_service():
    """Before ``RoundResult`` declared its fields, a reply whose
    ``rejected`` is not a dict reached the engine's report and raised
    ``TypeError`` out of ``run_round``."""
    abort, verdict = _aborted_round_with(
        m.KIND_FINALIZE + REPLY_SUFFIX,
        m.SERVICE,
        lambda result: replace(result, rejected=5),
    )
    assert [(v.offender, v.kind) for v in abort.report.violations] == [
        (m.SERVICE, VIOLATION_MALFORMED)
    ]
    assert verdict.outcome == invariants.OUTCOME_DETECTED_ABORT
    assert verdict.offenders == (m.SERVICE,)
