"""Tests for reports, quotes, the attestation service, and attacks on them."""

import pytest

from repro import codec
from repro.crypto import group_ops
from repro.errors import AttestationError
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary
from repro.runtime import messages as m
from repro.sgx import AttestationService, QuotePolicy, SgxPlatform
from repro.sgx.attestation import REPORT_DATA_SIZE, report_data_for
from repro.sgx.threats import (
    forge_quote,
    replay_quote_with_new_data,
    tamper_quote_measurement,
)


@pytest.fixture
def quoted(platform, enclave):
    report_data = report_data_for(b"handshake-binding")
    return platform.quote_enclave(enclave, report_data), report_data


def test_genuine_quote_verifies(attestation_service, image, quoted):
    quote, report_data = quoted
    result = attestation_service.verify(
        quote, QuotePolicy(expected_mrenclave=image.mrenclave)
    )
    assert result.mrenclave == image.mrenclave
    assert result.report_data == report_data


def test_report_data_padded_to_64_bytes(platform, enclave):
    quote = platform.quote_enclave(enclave, b"short")
    assert len(quote.report_data) == REPORT_DATA_SIZE
    assert quote.report_data.startswith(b"short")


def test_quote_binds_mrsigner(attestation_service, image, quoted):
    quote, _ = quoted
    result = attestation_service.verify(
        quote, QuotePolicy(expected_mrsigner=image.mrsigner)
    )
    assert result.mrsigner == image.mrsigner


def test_wrong_expected_measurement_rejected(attestation_service, quoted):
    quote, _ = quoted
    with pytest.raises(AttestationError):
        attestation_service.verify(
            quote, QuotePolicy(expected_mrenclave=b"\x00" * 32)
        )


def test_wrong_expected_signer_rejected(attestation_service, quoted):
    quote, _ = quoted
    with pytest.raises(AttestationError):
        attestation_service.verify(quote, QuotePolicy(expected_mrsigner=b"\x11" * 32))


def test_minimum_version_enforced(attestation_service, quoted):
    quote, _ = quoted
    with pytest.raises(AttestationError):
        attestation_service.verify(quote, QuotePolicy(minimum_version=2))


def test_debug_enclave_rejected_by_default(attestation_service, platform, vendor):
    from repro.sgx import EnclaveImage
    from tests.sgx.conftest import CounterProgram

    debug_image = EnclaveImage.build(CounterProgram, vendor, debug=True)
    enclave = platform.load_enclave(debug_image)
    quote = platform.quote_enclave(enclave, b"data")
    with pytest.raises(AttestationError):
        attestation_service.verify(quote)
    # but allowed when the policy opts in
    attestation_service.verify(quote, QuotePolicy(allow_debug=True))


def test_forged_quote_rejected(attestation_service, image):
    quote = forge_quote(image.mrenclave, image.mrsigner, b"data")
    with pytest.raises(AttestationError):
        attestation_service.verify(quote)


def test_tampered_measurement_rejected(attestation_service, quoted):
    quote, _ = quoted
    tampered = tamper_quote_measurement(quote, b"\xaa" * 32)
    with pytest.raises(AttestationError):
        attestation_service.verify(tampered)


def test_replayed_report_data_rejected(attestation_service, quoted):
    quote, _ = quoted
    replayed = replay_quote_with_new_data(quote, b"different binding")
    with pytest.raises(AttestationError):
        attestation_service.verify(replayed)


def test_revoked_platform_rejected(attestation_service, platform, quoted):
    quote, _ = quoted
    attestation_service.revoke_platform(platform.platform_id)
    with pytest.raises(AttestationError):
        attestation_service.verify(quote)


def test_unprovisioned_platform_rejected(attestation_service, image):
    rogue = SgxPlatform(b"rogue-machine")  # no attestation service
    enclave = rogue.load_enclave(image)
    quote = rogue.quote_enclave(enclave, b"data")
    with pytest.raises(AttestationError):
        attestation_service.verify(quote)


def test_double_provisioning_rejected(attestation_service):
    with pytest.raises(AttestationError):
        SgxPlatform(b"dup", attestation_service=attestation_service)
        # same seed -> same platform_id -> second provision fails
        SgxPlatform(b"dup", attestation_service=attestation_service)


def test_cross_platform_report_rejected(attestation_service, image):
    service2 = AttestationService(seed=b"other-ias")
    platform_a = SgxPlatform(b"machine-a", attestation_service=attestation_service)
    platform_b = SgxPlatform(b"machine-b", attestation_service=service2)
    enclave_a = platform_a.load_enclave(image)
    report = enclave_a.create_report(b"data")
    with pytest.raises(AttestationError):
        platform_b.quoting_enclave.quote(report)


def test_report_mac_tamper_rejected(platform, enclave):
    report = enclave.create_report(b"data")
    from repro.sgx.attestation import Report

    tampered = Report(
        mrenclave=b"\x00" * 32,
        mrsigner=report.mrsigner,
        version=report.version,
        debug=report.debug,
        report_data=report.report_data,
        platform_id=report.platform_id,
        mac=report.mac,
    )
    with pytest.raises(AttestationError):
        platform.quoting_enclave.quote(tampered)


def test_report_data_for_deterministic():
    assert report_data_for(b"x") == report_data_for(b"x")
    assert report_data_for(b"x") != report_data_for(b"y")
    assert len(report_data_for(b"payload")) == REPORT_DATA_SIZE


def test_only_batched_signatures_carry_their_nonce_commitment():
    """A quote is verified on its own, so its frame has no nonce
    commitment; a contribution's keeps one, and the finalize audit still
    verifies the round's signatures in one batch."""
    deployment = Deployment.build(num_users=3, seed=b"quote-commitment")
    eve = EavesdropAdversary()
    deployment.network.interpose(eve)
    before = group_ops.counters()["batch_verifications"]
    deployment.honest_round(1)
    assert group_ops.counters()["batch_verifications"] > before
    requests, submits = (
        [codec.decode(codec.encode(p)) for p in eve.captured_payloads(kind)]
        for kind in (m.KIND_MASK_REQUEST, m.KIND_SUBMIT)
    )
    assert requests and all(r.quote.signature.commitment is None for r in requests)
    assert submits and all(s.contribution.signature.commitment for s in submits)
