"""One schema: field checks declared on ``@wire`` classes, run by decode.

Every class a bus request carries, and every reply class whose fields a
party reads, declares a check for each field; ``codec.decode`` runs them
on each object a frame builds, ``encode`` runs none, and the transport
blames a refusal on the request's sender or on the responder.  The
decode boundaries off the bus — the sealed round checkpoint, the §4.2
remote payloads and the split-enclave links — refuse garbage with typed
errors only.
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import codec, invariants
from repro.core.glimmer import (
    GlimmerConfig,
    KeyDelivery,
    ProcessRequest,
    RoundCheckpoint,
    _decode_remote_payload,
    decode_remote_response,
    features_digest,
    pack_features,
)
from repro.core.remote import AttestedOffer
from repro.core.service import RoundResult
from repro.core.signing import SignedContribution
from repro.core.split import SplitGlimmer, build_split_images
from repro.core.validation import PrivateContext
from repro.crypto.commitments import MaskCommitmentSet, MaskOpening
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import (
    CryptoError,
    EnclaveError,
    ProtocolError,
    ProtocolViolation,
    RefusedAtWire,
    RoundAbortedError,
)
from repro.experiments.common import Deployment
from repro.network.adversary import NetworkAdversary
from repro.network.transport import REPLY_SUFFIX, Network
from repro.perf import kernels
from repro.runtime import messages as m, wire
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.runtime.telemetry import OUTCOME_PROVISION_FAILED
from repro.sgx.attestation import Quote
from repro.sgx.platform import SgxPlatform
from tests.core.test_split import _single_entry, _split_entry
from tests.runtime.test_codec import SAMPLES

def _within(value):
    """The registered classes of ``value`` and of the objects in its fields."""
    if type(value) in codec.registered().values():
        yield type(value)
        for field in fields(value):
            yield from _within(getattr(value, field.name))


# What the bus carries and a party reads field by field: every request
# class and what its sample holds, and the replies a party reads (the
# §4.2 host's attestation offer among them), and the request a §4.2
# client sends its host's Glimmer.  The finalize reply
# (RoundResult) is not here: the engine holds it to its own audit instead.
CARRIED = sorted(
    {
        *(found for cls in wire.KINDS.values() for found in _within(SAMPLES[cls])),
        SchnorrSignature,
        Quote,
        AttestedOffer,
        KeyDelivery,
        MaskCommitmentSet,
        MaskOpening,
        ProcessRequest,
    },
    key=lambda cls: cls.__qualname__,
)


# ------------------------------------------------------------ completeness


def test_every_bus_kind_names_its_class():
    kinds = {value for name, value in vars(m).items() if name.startswith("KIND_")}
    assert set(wire.KINDS) == kinds


@pytest.mark.parametrize("cls", CARRIED, ids=lambda cls: cls.__qualname__)
def test_every_field_of_a_carried_class_is_checked(cls):
    """A sample holds; the same sample with any one field swapped for a
    value no check admits (a NaN) is refused, naming that field."""
    check = codec.blamed(cls)
    check("sender", None, "sample", SAMPLES[cls])
    for field in fields(cls):
        broken = replace(SAMPLES[cls], **{field.name: float("nan")})
        with pytest.raises(ProtocolViolation, match=f"{cls.__qualname__}.{field.name} "):
            check("sender", None, "sample", broken)


# ------------------------------------------------------------ decode checks


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(
            replace(
                SAMPLES[m.ProvisionMask],
                commitment=replace(SAMPLES[m.ProvisionMask].commitment, slot=-1),
            ),
            id="slot-below-range",
        ),
        pytest.param(replace(SAMPLES[m.ProvisionMask], commitment=None), id="no-commitment"),
        pytest.param(replace(SAMPLES[SignedContribution], blinded=1), id="int-for-bool"),
        pytest.param(
            replace(SAMPLES[m.SubmitContribution],
                    contribution=replace(SAMPLES[SignedContribution], confidence=2.0)),
            id="nested-confidence",
        ),
        pytest.param(
            replace(SAMPLES[RoundResult],
                    accepted=(replace(SAMPLES[SignedContribution], nonce=b"\x00"),)),
            id="inside-an-unchecked-class",
        ),
        pytest.param(
            replace(SAMPLES[KeyDelivery], encrypted_payload=bytearray(48)), id="bytearray"
        ),
    ],
)
def test_decode_refuses_what_encode_spells(value):
    """Encode is permissive, so a Byzantine sender can spell anything;
    decode checks every registered object it builds."""
    frame = codec.encode(value)
    with pytest.raises(ProtocolViolation) as excinfo:
        codec.decode(frame)
    assert excinfo.value.kind == VIOLATION_MALFORMED


def test_decode_holds_a_frame_to_the_check_it_is_given():
    frame = codec.encode(SAMPLES[SignedContribution])
    assert codec.decode(frame, SignedContribution) == SAMPLES[SignedContribution]
    with pytest.raises(ProtocolViolation, match="must be Quote"):
        codec.decode(frame, Quote)
    with pytest.raises(ProtocolViolation, match="a frame is bytes"):
        codec.decode("not a frame")


def test_refusals_are_blamed_on_the_sender_of_each_leg():
    network = Network(seed=b"schema-blame")
    ran = []
    bad = m.RevealMask(1, -1)
    network.register("blinder", {"ask": lambda msg: ran.append(msg) or bad})
    network.register("engine", {})
    with pytest.raises(RefusedAtWire) as excinfo:
        network.call("engine", "blinder", "ask", bad)
    assert (excinfo.value.offender, excinfo.value.kind) == ("engine", VIOLATION_MALFORMED)
    assert not ran
    with pytest.raises(RefusedAtWire) as excinfo:
        network.call("engine", "blinder", "ask", m.RevealMask(1, 0))
    assert (excinfo.value.offender, excinfo.value.kind) == ("blinder", VIOLATION_MALFORMED)
    assert len(ran) == 1


# ------------------------------------------------- tampering, end to end


class Rewrite(NetworkAdversary):
    """On-path: rewrite what one kind carries to (or from) one device."""

    def __init__(self, kind: str, device: str, rewrite) -> None:
        self.kind, self.device, self.rewrite = kind, device, rewrite

    def process(self, message):
        if message.kind == self.kind and self.device in (message.sender, message.receiver):
            return message.with_payload(self.rewrite(message.payload))
        return message


def _round_with(kind: str, rewrite):
    """One round with the victim's ``kind`` messages rewritten: its report,
    the verdict on it, and the victim's outcome."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    victim = users[1]
    deployment.network.interpose(Rewrite(kind, m.client_endpoint(victim), rewrite))
    vectors = deployment.local_vectors()
    report = deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    verdict = invariants.judge(report, deployment.codec, vectors)
    return report, verdict, report.outcomes[victim]


def _record(**fields):
    return lambda command: replace(command, commitment=replace(command.commitment, **fields))


@pytest.mark.parametrize(
    "rewrite",
    [
        pytest.param(lambda command: replace(command, commitment=None), id="none"),
        pytest.param(lambda command: replace(command, commitment="x"), id="str"),
        pytest.param(lambda command: replace(command, commitment=7), id="int"),
        pytest.param(lambda command: replace(command, commitment=(1, 2)), id="tuple"),
        pytest.param(_record(root=7), id="record-root-int"),
        pytest.param(_record(slot="a"), id="record-slot-str"),
        pytest.param(_record(vector_length="z"), id="record-length-str"),
    ],
)
def test_rewritten_provision_commitment_is_blamed_on_the_engine(rewrite):
    """Never a raw ``AttributeError``/``TypeError``, and never an abort
    that blames the honest blinder: the command fails its schema at the
    device, a ``malformed`` violation recorded once against the engine
    that (as far as the device can tell) sent it."""
    report, verdict, outcome = _round_with(m.KIND_PROVISION_MASK, rewrite)
    assert [(v.offender, v.kind) for v in report.violations] == [
        (m.ENGINE, VIOLATION_MALFORMED)
    ]
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.ENGINE,)
    assert outcome == OUTCOME_PROVISION_FAILED


@pytest.mark.parametrize(
    "field, value",
    [
        ("peer_dh_public", "x"),
        ("handshake_signature", 5),
        ("session_id", 7),
        ("encrypted_payload", "x"),
    ],
)
def test_rewritten_key_delivery_is_blamed_on_the_blinder(field, value):
    """The reply leg is checked too: a delivery rewritten on its way to a
    device is a ``malformed`` violation recorded once against the blinder,
    never a raw ``AttributeError`` or an untyped, unblamed error."""
    report, verdict, outcome = _round_with(
        m.KIND_MASK_REQUEST + REPLY_SUFFIX, lambda delivery: replace(delivery, **{field: value})
    )
    assert [(v.offender, v.kind) for v in report.violations] == [
        (m.BLINDER, VIOLATION_MALFORMED)
    ]
    assert verdict.outcome == invariants.OUTCOME_EXACT
    assert verdict.offenders == (m.BLINDER,)
    assert outcome == OUTCOME_PROVISION_FAILED


def _aborted_round_with(kind: str, party: str, rewrite):
    """One round whose ``kind`` messages to or from ``party`` are
    rewritten, which must abort: the abort and the verdict on it."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    deployment.network.interpose(Rewrite(kind, party, rewrite))
    vectors = deployment.local_vectors()
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    return excinfo.value, invariants.judge(excinfo.value, deployment.codec, vectors)


@pytest.mark.parametrize(
    "rewrite",
    [
        pytest.param(
            lambda published: replace(
                published,
                hash_commitments=(published.hash_commitments[0][:31],)
                + published.hash_commitments[1:],
            ),
            id="hash-commitment-31-bytes",
        ),
        pytest.param(
            lambda published: replace(published, column_sums=published.column_sums[:-1]),
            id="column-sums-ragged",
        ),
        pytest.param(
            lambda published: replace(
                published, column_sums=tuple(kernels.be_words(published.column_sums).tolist())
            ),
            id="column-sums-as-words",
        ),
    ],
)
def test_malformed_commitment_set_aborts_the_round_blaming_the_blinder(rewrite):
    """An open reply that fails its declared checks ends the round in a
    blamed abort at open, never a raw violation out of ``run_round``."""
    abort, verdict = _aborted_round_with(m.KIND_OPEN_BLINDER + REPLY_SUFFIX, m.BLINDER, rewrite)
    assert [(v.offender, v.kind) for v in abort.report.violations] == [
        (m.BLINDER, VIOLATION_MALFORMED)
    ]
    assert "round open was refused" in str(abort)
    assert verdict.outcome == invariants.OUTCOME_DETECTED_ABORT
    assert verdict.offenders == (m.BLINDER,)


def _ragged(share):
    """A share one byte short: its seed, or its last word, cut."""
    if share.seed is not None:
        return replace(share, seed=share.seed[:-1])
    return replace(share, words=share.words[:-1])


@pytest.mark.parametrize(
    "rewrite",
    [
        pytest.param(lambda opening: replace(opening, share=_ragged(opening.share)), id="mask-ragged"),
        pytest.param(
                lambda opening: replace(
                    opening, share=tuple(kernels.be_words(opening.share.row()).tolist())
                ),
                id="mask-as-words",
            ),
        pytest.param(lambda opening: replace(opening, salt=opening.salt[:31]), id="salt-31-bytes"),
        pytest.param(lambda opening: replace(opening, randomizer=-1), id="randomizer-negative"),
    ],
)
def test_malformed_reveal_aborts_the_round_blaming_the_blinder(rewrite):
    """A dropout reveal of the wrong shape is refused at decode: one
    ``malformed`` violation on the blinder, not a late mask-opening check."""
    deployment = Deployment.build(num_users=4, seed=b"wire-tamper")
    users = [user.user_id for user in deployment.corpus.users]
    deployment.network.interpose(Rewrite(m.KIND_REVEAL_MASK + REPLY_SUFFIX, m.BLINDER, rewrite))
    vectors = deployment.local_vectors()
    with pytest.raises(RoundAbortedError) as excinfo:
        deployment.engine.run_round(
            1, users, vectors, deployment.features.bigrams, dropouts=[users[2]]
        )
    abort = excinfo.value
    assert [(v.offender, v.kind) for v in abort.report.violations] == [
        (m.BLINDER, VIOLATION_MALFORMED)
    ]
    assert "finalize was refused" in str(abort)
    verdict = invariants.judge(abort, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_DETECTED_ABORT
    assert verdict.offenders == (m.BLINDER,)


def test_malformed_finalize_trail_aborts_the_round_blaming_the_service():
    """A finalize result whose audit trail holds a contribution that fails
    its declared checks is refused at decode and aborts the round, the
    service blamed, as the engine's own audit would have."""
    abort, verdict = _aborted_round_with(
        m.KIND_FINALIZE + REPLY_SUFFIX,
        m.SERVICE,
        lambda result: replace(
            result, accepted=(replace(result.accepted[0], nonce=b"\x00"),) + result.accepted[1:]
        ),
    )
    assert [(v.offender, v.kind) for v in abort.report.violations] == [
        (m.SERVICE, VIOLATION_MALFORMED)
    ]
    assert "finalize was refused" in str(abort)
    assert verdict.outcome == invariants.OUTCOME_DETECTED_ABORT
    assert verdict.offenders == (m.SERVICE,)


# ------------------------------------------- decode boundaries off the bus

VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.binary(max_size=24)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.tuples(inner, inner, inner) | st.dictionaries(st.integers(0, 3), inner, max_size=3),
    max_leaves=12,
)
NOT_BYTES = st.one_of(st.none(), st.integers(), st.text(max_size=8), st.lists(st.integers()))


def _blobs(honest: bytes):
    """Truncated, over-long and flipped copies of an honest blob, frames of
    type-confused values, random bytes, and things that are not bytes."""
    flipped = st.tuples(st.integers(0, len(honest) - 1), st.integers(1, 255)).map(
        lambda at: honest[:at[0]] + bytes([honest[at[0]] ^ at[1]]) + honest[at[0] + 1:]
    )
    return st.one_of(
        st.integers(0, len(honest) - 1).map(lambda cut: honest[:cut]),
        st.binary(min_size=1, max_size=16).map(lambda extra: honest + extra),
        flipped,
        VALUES.map(codec.encode),
        st.binary(max_size=64),
        NOT_BYTES,
    )


TYPED = (EnclaveError, ProtocolError, ProtocolViolation)
REMOTE_SAMPLE = codec.encode((SAMPLES[ProcessRequest], SAMPLES[PrivateContext]))


@settings(max_examples=150, deadline=None)
@given(_blobs(REMOTE_SAMPLE))
def test_remote_payload_refusals_are_typed(blob):
    try:
        request, context = _decode_remote_payload(blob)
    except TYPED:
        return
    assert type(request) is ProcessRequest and type(context) is PrivateContext


@settings(max_examples=150, deadline=None)
@given(_blobs(codec.encode(SAMPLES[SignedContribution])))
def test_remote_response_refusals_are_typed(blob):
    try:
        signed = decode_remote_response(blob)
    except TYPED:
        return
    assert type(signed) is SignedContribution


@pytest.fixture(scope="module")
def checkpoint():
    """A Glimmer and a round checkpoint sealed by it, in its own layout."""
    deployment = Deployment.build(num_users=1, seed=b"schema-fuzz")
    glimmer = next(iter(deployment.clients.values())).glimmer
    return glimmer, glimmer._api.seal(codec.encode(RoundCheckpoint(7, ((0, (64, bytes(16))),), 0)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_checkpoint_refusals_are_typed(checkpoint, data):
    """What a host can hand back in place of a sealed checkpoint: the blob
    cut, extended or flipped, some other frame or bytes, or no bytes."""
    glimmer, sealed = checkpoint
    with pytest.raises(TYPED):
        glimmer.ecall("restore_round", data.draw(_blobs(sealed)))


def test_a_checkpoint_naming_an_infinite_round_is_malformed(checkpoint):
    """A frame no float-to-round conversion can hold is a malformed
    checkpoint, not an ``OverflowError`` escaping the enclave."""
    glimmer, _ = checkpoint
    sealed = glimmer._api.seal(
        codec.encode(RoundCheckpoint(float("inf"), ((0, (64, bytes(16))),), 0))
    )
    with pytest.raises(EnclaveError, match="malformed round checkpoint"):
        glimmer.ecall("restore_round", sealed)


@pytest.mark.parametrize("flaw", ["one-byte-short", "pad-bit"])
def test_a_checkpointed_mask_misspelled_at_its_width_is_malformed(checkpoint, flaw):
    """The codec judges a checkpointed mask's words by type and cap alone;
    restore holds them to their one spelling at the width beside them.
    One byte short, or with a pad bit set, is a malformed checkpoint, as a
    torn frame refused at decode was."""
    glimmer, _ = checkpoint
    words = kernels.pack_words(range(3), 25)  # 75 bits: 10 bytes, 5 pad bits
    words = words[:-1] if flaw == "one-byte-short" else words[:-1] + bytes([words[-1] | 1])
    sealed = glimmer._api.seal(codec.encode(RoundCheckpoint(7, ((0, (25, words)),), 0)))
    with pytest.raises(EnclaveError, match="malformed round checkpoint"):
        glimmer.ecall("restore_round", sealed)


@pytest.fixture(scope="module")
def split_link():
    """A paired split Glimmer and one honest validation→blinding blob it
    has not consumed (every fuzzed blob differs from it)."""
    deployment = Deployment.build(num_users=1, seed=b"schema-split", provision_clients=False)
    features = (("a", "b"),)
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(features),
    )
    platform = SgxPlatform(b"schema-split", attestation_service=deployment.attestation)
    split = SplitGlimmer(
        platform, build_split_images(deployment.vendor, config),
        ocall_handlers={"collect_private_data": lambda fields: PrivateContext()},
    )
    request = ProcessRequest(
        1, kernels.be_doubles_to_bytes((0.5,)), pack_features(features), blind=False
    )
    return split, split.validation.ecall("validate", request)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_split_link_refusals_are_typed(split_link, data):
    """Garbage on a split-enclave link: a blob the sibling did not seal is
    the AEAD's ``AuthenticationError`` (a ``CryptoError``), one that is not
    bytes a ``ProtocolError``."""
    split, honest = split_link
    blob = data.draw(_blobs(honest).filter(lambda blob: blob != honest))
    with pytest.raises(TYPED + (CryptoError,)):
        split.blinding.ecall("blind", blob)


@pytest.mark.parametrize("entry", [_single_entry, _split_entry], ids=["single", "split"])
def test_contribution_request_refusals_are_typed(entry):
    """What a host can hand a Glimmer's contribution ecall in place of a
    request — the honest request's frame cut, extended or flipped, other
    frames or bytes, or no bytes — is refused where it crosses, with a
    typed error.  The refusals take nothing: the honest request still
    goes through afterwards (signed by the single Glimmer, validated and
    forwarded by the split one)."""
    call, honest = entry()

    @settings(max_examples=150, deadline=None)
    @given(_blobs(codec.encode(honest)))
    def refused(value):
        with pytest.raises(TYPED):
            call(value)

    refused()
    call(honest)
