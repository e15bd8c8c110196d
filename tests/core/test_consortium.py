"""Tests for the consortium (non-TEE) Glimmer alternative."""

import numpy as np
import pytest

from repro.core.consortium import (
    ConsortiumService,
    MemberEndorsement,
    build_consortium,
    values_digest,
)
from repro.core.validation import PrivateContext
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.experiments.common import Deployment
from repro.workloads.keyboard import trace_for_sentences
from repro.errors import ConfigurationError, ProtocolError, ValidationError

#: The published feature list the rounds below open over.
FEATURES = (("a", "b"), ("b", "c"), ("c", "a"))
LENGTH = len(FEATURES)


@pytest.fixture
def ensemble():
    rng = HmacDrbg(b"consortium-tests")
    members = build_consortium(4, "range:0.0:1.0", rng)
    service = ConsortiumService({m.name: m.identity.public_key for m in members}, quorum=3)
    return members, service, FixedPointCodec()


def open_round(members, service, round_id, num_clients):
    for member in members:
        member.open_round(round_id, num_clients, FEATURES)
    service.open_round(round_id, num_clients)


def endorse_all(members, round_id, client_index, values):
    return [
        m.endorse(round_id, client_index, values, PrivateContext()) for m in members
    ]


def test_exact_aggregate(ensemble):
    members, service, codec = ensemble
    vectors = [[0.1, 0.5, 1.0], [0.9, 0.0, 0.25], [0.3, 0.3, 0.3]]
    open_round(members, service, 1, 3)
    for index, values in enumerate(vectors):
        assert service.submit(1, index, endorse_all(members, 1, index, values))
    aggregate = service.finalize_round(1)
    assert np.allclose(aggregate, np.mean(vectors, axis=0), atol=1e-3)


def test_every_member_validates(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    endorse_all(members, 1, 0, [0.5, 0.5, 0.5])
    assert all(m.validations_run == 1 for m in members)


def test_out_of_range_rejected_by_each_member(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    for member in members:
        with pytest.raises(ValidationError):
            member.endorse(1, 0, [538.0, 0.0, 0.0], PrivateContext())


def test_single_share_hides_contribution(ensemble):
    """No single member's share decodes to the raw values (one honest member
    suffices for privacy against the service)."""
    members, service, codec = ensemble
    open_round(members, service, 1, 2)
    values = [0.9, 0.1, 0.5]
    endorsements = endorse_all(members, 1, 0, values)
    encoded = codec.encode(values)
    for endorsement in endorsements:
        assert list(endorsement.share) != encoded


def test_missing_member_share_rejected(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    endorsements = endorse_all(members, 1, 0, [0.5, 0.5, 0.5])
    assert not service.submit(1, 0, endorsements[:-1])
    assert service.round_state(1).rejected == {"missing-member-shares": 1}


def test_quorum_enforced(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    endorsements = endorse_all(members, 1, 0, [0.5, 0.5, 0.5])
    # Forging members 1 and 2 with member 0's signature leaves only
    # 2 valid signatures < quorum 3.
    forged = [
        MemberEndorsement(
            member_name=e.member_name,
            round_id=e.round_id,
            client_index=e.client_index,
            values_digest=e.values_digest,
            share=e.share,
            signature=endorsements[0].signature,  # wrong key's signature
        )
        if i in (1, 2)
        else e
        for i, e in enumerate(endorsements)
    ]
    assert not service.submit(1, 0, forged)
    assert service.round_state(1).rejected == {"quorum-not-met": 1}


def test_digest_disagreement_rejected(ensemble):
    """Members must have validated the same raw contribution."""
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    endorsements = endorse_all(members[:-1], 1, 0, [0.5, 0.5, 0.5])
    endorsements.append(members[-1].endorse(1, 0, [0.4, 0.5, 0.5], PrivateContext()))
    assert not service.submit(1, 0, endorsements)
    assert service.round_state(1).rejected == {"digest-disagreement": 1}


def test_duplicate_client_rejected(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 2)
    endorsements = endorse_all(members, 1, 0, [0.5, 0.5, 0.5])
    assert service.submit(1, 0, endorsements)
    assert not service.submit(1, 0, endorsements)
    assert service.round_state(1).rejected == {"duplicate-client": 1}


def test_unavailable_member_stalls(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    members[2].available = False
    with pytest.raises(ProtocolError):
        members[2].endorse(1, 0, [0.5, 0.5, 0.5], PrivateContext())


def test_dropout_repair(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 2)
    values = [0.5, 0.25, 0.75]
    assert service.submit(1, 0, endorse_all(members, 1, 0, values))
    # Client 1 never shows up.  Its mask shares are what the members
    # endorse for it over zeros: the plaintext member's zeros encode to 0.
    repairs = [list(e.share) for e in endorse_all(members, 1, 1, [0.0] * LENGTH)]
    aggregate = service.finalize_round(1, repairs)
    assert np.allclose(aggregate, values, atol=1e-3)


def test_round_lifecycle_validations(ensemble):
    members, service, codec = ensemble
    open_round(members, service, 1, 1)
    with pytest.raises(ProtocolError):
        service.open_round(1, 1)
    with pytest.raises(ProtocolError):
        members[0].open_round(1, 1, FEATURES)
    with pytest.raises(ProtocolError):
        members[0].endorse(9, 0, [0.5] * LENGTH, PrivateContext())
    with pytest.raises(ProtocolError):
        service.finalize_round(1)


def test_constructor_validations():
    rng = HmacDrbg(b"ctor")
    with pytest.raises(ConfigurationError):
        build_consortium(1, "range:0.0:1.0", rng)
    members = build_consortium(3, "range:0.0:1.0", rng)
    keys = {m.name: m.identity.public_key for m in members}
    with pytest.raises(ConfigurationError):
        ConsortiumService(keys, quorum=1)
    with pytest.raises(ConfigurationError):
        ConsortiumService(keys, quorum=4)


def test_values_digest_sensitive():
    assert values_digest([0.5, 0.5]) == values_digest([0.5, 0.5])
    assert values_digest([0.5, 0.5]) != values_digest([0.5, 0.50001])


def test_a_consortium_corroborates_keystrokes_over_the_published_list():
    """Each member hands its predicate the feature list the round published,
    as a Glimmer's RoundFacts do: an honest contribution backed by a human
    trace of its own sentences is endorsed.  (Handed no list, each member
    refused it: the reported vector length matched no feature list.)"""
    deployment = Deployment.build(num_users=2, sentences_per_user=10, provision_clients=False)
    user = deployment.corpus.users[0].user_id
    values = deployment.local_vectors([user])[user].tolist()
    trace = trace_for_sentences(deployment.corpus.streams[user], HmacDrbg(user.encode()))
    members = build_consortium(2, "keystrokes", HmacDrbg(b"consortium-keystrokes"))
    service = ConsortiumService({m.name: m.identity.public_key for m in members}, quorum=2)
    for member in members:
        member.open_round(1, 1, deployment.features.bigrams)
    service.open_round(1, 1)
    context = PrivateContext(keystroke_trace=trace)
    endorsements = [member.endorse(1, 0, values, context) for member in members]
    assert service.submit(1, 0, endorsements)
    assert np.allclose(service.finalize_round(1), values, atol=1e-4)
