"""Tests for the vetting registry, provisioners, and the cloud service."""

import numpy as np
import pytest

from repro.core.provisioning import VettingRegistry
from repro.core.signing import SignedContribution
from repro.errors import AttestationError, ConfigurationError, ProtocolError
from repro.sgx.attestation import report_data_for
from repro.sgx.threats import forge_quote


# ----------------------------------------------------------------- registry

def test_registry_publish_and_lookup():
    registry = VettingRegistry()
    registry.publish("g", b"\x01" * 32)
    assert registry.approved_measurement("g") == b"\x01" * 32
    assert registry.is_approved(b"\x01" * 32)
    assert not registry.is_approved(b"\x02" * 32)


def test_registry_idempotent_same_hash():
    registry = VettingRegistry()
    registry.publish("g", b"\x01" * 32)
    registry.publish("g", b"\x01" * 32)  # no error


def test_registry_conflicting_hash_rejected():
    registry = VettingRegistry()
    registry.publish("g", b"\x01" * 32)
    with pytest.raises(ConfigurationError):
        registry.publish("g", b"\x02" * 32)


def test_registry_unknown_name():
    with pytest.raises(ConfigurationError):
        VettingRegistry().approved_measurement("ghost")


# -------------------------------------------------------------- provisioner

def test_provision_rejects_forged_quote(deployment):
    quote = forge_quote(
        deployment.image.mrenclave,
        deployment.image.mrsigner,
        report_data_for((4).to_bytes(256, "big")),
    )
    with pytest.raises(AttestationError):
        deployment.service_provisioner.provision_signing_key(b"s", 4, quote)


def test_provision_rejects_unbound_dh_value(deployment):
    client = next(iter(deployment.clients.values()))
    session, dh_public, quote = client.handshake_request()
    with pytest.raises(AttestationError):
        deployment.service_provisioner.provision_signing_key(
            session, dh_public + 1, quote
        )


def test_mask_provisioning_requires_open_round(fresh_deployment):
    deployment = fresh_deployment
    client = deployment.clients[deployment.corpus.users[0].user_id]
    from repro.errors import CryptoError

    with pytest.raises(CryptoError):
        client.provision_mask(deployment.blinder_provisioner, 42, 0)


def test_blinder_round_masks_sum_zero(fresh_deployment):
    deployment = fresh_deployment
    deployment.blinder_provisioner.open_round(3, 4, len(deployment.features))
    modulus = deployment.codec.modulus()
    masks = [
        deployment.blinder_provisioner.blinding.mask_for(3, i) for i in range(4)
    ]
    for column in zip(*masks):
        assert sum(column) % modulus == 0


# ------------------------------------------------------------------ service

def test_service_round_lifecycle(fresh_deployment):
    service = fresh_deployment.service
    service.open_round(1, 3)
    with pytest.raises(ProtocolError):
        service.open_round(1, 3)
    with pytest.raises(ProtocolError):
        service.open_round(2, 0)
    with pytest.raises(ProtocolError):
        service.round_state(99)


def test_service_rejects_non_contribution(fresh_deployment):
    service = fresh_deployment.service
    service.open_round(1, 3)
    assert not service.submit(1, "not a contribution")
    assert service.round_state(1).rejected == {"not-a-signed-contribution": 1}


def test_service_rejects_wrong_payload_kind(fresh_deployment):
    deployment = fresh_deployment
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.open_round(1, user_ids)
    client = deployment.clients[user_ids[0]]
    values = [0.5] * len(deployment.features)
    plain = client.contribute(1, values, deployment.features.bigrams, blind=False)
    assert not deployment.service.submit(1, plain)  # round is blinded
    assert deployment.service.round_state(1).rejected == {"wrong-payload-kind": 1}


def test_service_finalize_requires_contributions(fresh_deployment):
    service = fresh_deployment.service
    service.open_round(1, 2)
    with pytest.raises(ProtocolError):
        service.finalize_blinded_round(1)


def test_service_finalize_kind_mismatch(fresh_deployment):
    service = fresh_deployment.service
    service.open_round(1, 2, blinded=True)
    with pytest.raises(ProtocolError):
        service.finalize_plain_round(1)
    service.open_round(2, 2, blinded=False)
    with pytest.raises(ProtocolError):
        service.finalize_blinded_round(2)


def test_plain_round_end_to_end(fresh_deployment):
    deployment = fresh_deployment
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.service.open_round(1, len(user_ids), blinded=False)
    vectors = deployment.local_vectors()
    for user_id in user_ids:
        signed = deployment.clients[user_id].contribute(
            1, list(vectors[user_id]), deployment.features.bigrams, blind=False
        )
        assert deployment.service.submit(1, signed)
    result = deployment.service.finalize_plain_round(1)
    expected = np.mean(np.stack([vectors[u] for u in user_ids]), axis=0)
    assert np.allclose(result.aggregate, expected)


def test_blinded_round_with_dropout_repair(fresh_deployment):
    """§3 dropout repair end to end through the service."""
    deployment = fresh_deployment
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.open_round(1, user_ids)
    vectors = deployment.local_vectors()
    submitted = user_ids[:-1]  # the last client drops after mask provisioning
    for user_id in submitted:
        signed = deployment.clients[user_id].contribute(
            1, list(vectors[user_id]), deployment.features.bigrams
        )
        deployment.service.submit(1, signed)
    dropout_mask = deployment.blinder_provisioner.reveal_dropout_mask(
        1, len(user_ids) - 1
    )
    result = deployment.service.finalize_blinded_round(1, [dropout_mask])
    expected = np.mean(np.stack([vectors[u] for u in submitted]), axis=0)
    assert np.allclose(result.aggregate, expected, atol=1e-3)
    assert result.num_dropouts_repaired == 1


def test_service_counts_multiple_rejection_reasons(fresh_deployment):
    deployment = fresh_deployment
    user_ids = [u.user_id for u in deployment.corpus.users]
    deployment.open_round(1, user_ids)
    vectors = deployment.local_vectors()
    signed = deployment.clients[user_ids[0]].contribute(
        1, list(vectors[user_ids[0]]), deployment.features.bigrams
    )
    assert deployment.service.submit(1, signed)
    assert not deployment.service.submit(1, signed)  # replay
    wrong_round = SignedContribution(
        round_id=2,
        nonce=signed.nonce,
        blinded=True,
        ring_payload=signed.ring_payload,
        plain_payload=None,
        confidence=signed.confidence,
        signature=signed.signature,
    )
    assert not deployment.service.submit(1, wrong_round)
    rejected = deployment.service.round_state(1).rejected
    assert rejected["replayed-nonce"] == 1
    assert rejected["wrong-round"] == 1
