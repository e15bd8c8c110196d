"""Incremental attestation sessions: caching, delivery sessions, forced
re-attestation.

Covers the :class:`repro.sgx.sessions.SessionBroker` contract the fleet
harness leans on — and the edge cases that would quietly break trust if
mishandled: an expired policy epoch, a measurement the policy no longer
accepts (firmware skew), and a stale quote replayed after a policy bump
trying to poison the verification cache.
"""

import pytest

from repro.errors import AttestationError
from repro.sgx import QuotePolicy, SessionBroker
from repro.sgx.attestation import report_data_for
from repro.sgx.sessions import SESSION_DELIVERIES
from repro.sgx.threats import tamper_quote_measurement


@pytest.fixture
def quote(platform, enclave):
    return platform.quote_enclave(enclave, report_data_for(b"session-binding"))


@pytest.fixture
def broker(attestation_service, image):
    return SessionBroker(
        attestation_service, QuotePolicy(expected_mrenclave=image.mrenclave)
    )


# ----------------------------------------------------------------- caching


def test_identical_reverification_hits_cache(broker, quote):
    first = broker.verify(quote)
    second = broker.verify(quote)
    assert first == second
    assert broker.full_verifications == 1
    assert broker.cache_hits == 1


def test_different_quote_body_pays_full_verification(
    broker, platform, enclave, quote
):
    broker.verify(quote)
    fresh = platform.quote_enclave(enclave, report_data_for(b"new-handshake"))
    broker.verify(fresh)
    assert broker.full_verifications == 2
    assert broker.cache_hits == 0


def test_cached_verification_does_not_outlive_revocation(
    broker, attestation_service, platform, quote
):
    broker.verify(quote)
    attestation_service.revoke_platform(platform.platform_id)
    with pytest.raises(AttestationError):
        broker.verify(quote)
    assert broker.cache_hits == 0


def test_stale_quote_after_policy_bump_cannot_poison_cache(broker, quote):
    """A quote cached under epoch N must not be honored from cache at N+1.

    The cache key includes the policy epoch, so the replayed quote pays a
    full re-verification under the *new* policy — the attack surface of a
    stale-but-cached verdict simply does not exist.
    """
    broker.verify(quote)
    broker.bump_policy_epoch()
    broker.verify(quote)
    assert broker.full_verifications == 2
    assert broker.cache_hits == 0


# ----------------------------------------------------------------- sessions

KEY = b"k" * 32


def _open(broker, quote, handle=b"handle-1"):
    """Open a delivery session the way a full attested delivery does."""
    broker.open_session(handle, KEY, broker.verify(quote))
    return handle


def test_establish_then_resume_skips_full_verification(broker, quote, image):
    handle = _open(broker, quote)
    assert broker.session_key(handle, image.mrenclave) == KEY
    assert broker.session_key(handle, image.mrenclave) == KEY
    assert broker.full_verifications == 1
    assert broker.resumed == 2


def test_expired_policy_epoch_rejects_resumption(broker, quote, image):
    handle = _open(broker, quote)
    broker.bump_policy_epoch()
    with pytest.raises(AttestationError, match="epoch"):
        broker.session_key(handle, image.mrenclave)
    assert broker.resume_rejected == 1
    # The fallback path — full re-attestation — works and opens a session
    # that is live under the new epoch.
    fresh = _open(broker, quote, b"handle-2")
    assert broker.session_key(fresh, image.mrenclave) == KEY
    assert broker.full_verifications == 2


def test_mrenclave_mismatch_after_firmware_skew_rejects_session(broker, quote):
    """A session attested for a measurement the policy stops trusting dies.

    Firmware skew ships a different enclave build: the verifier approves
    a new MRENCLAVE without necessarily bumping the epoch, and a session
    attested under the old hash must fail its next delivery.
    """
    handle = _open(broker, quote)
    with pytest.raises(AttestationError, match="measurement"):
        broker.session_key(handle, b"\x42" * 32)
    assert broker.resume_rejected == 1


def test_skewed_firmware_quote_fails_establishment(broker, quote):
    tampered = tamper_quote_measurement(quote, b"\x42" * 32)
    with pytest.raises(AttestationError):
        broker.verify(tampered)
    assert broker.full_verifications == 0


def test_revocation_kills_live_sessions(
    broker, attestation_service, platform, quote, image
):
    handle = _open(broker, quote)
    attestation_service.revoke_platform(platform.platform_id)
    with pytest.raises(AttestationError, match="revoked"):
        broker.session_key(handle, image.mrenclave)
    # The refusal ended the session outright.
    with pytest.raises(AttestationError, match="no such session"):
        broker.session_key(handle, image.mrenclave)


def test_unknown_session_handle_rejected(attestation_service, image, quote):
    opener = SessionBroker(
        attestation_service, QuotePolicy(expected_mrenclave=image.mrenclave)
    )
    other = SessionBroker(
        attestation_service, QuotePolicy(expected_mrenclave=image.mrenclave)
    )
    handle = _open(opener, quote)
    with pytest.raises(AttestationError, match="no such session"):
        other.session_key(handle, image.mrenclave)
    assert other.resume_rejected == 1


def test_session_lapses_after_its_deliveries(broker, quote, image):
    handle = _open(broker, quote)  # the establishing delivery counts
    for _ in range(SESSION_DELIVERIES - 1):
        assert broker.session_key(handle, image.mrenclave) == KEY
    with pytest.raises(AttestationError, match="deliveries"):
        broker.session_key(handle, image.mrenclave)
    assert broker.resumed == SESSION_DELIVERIES - 1
    assert broker.full_verifications == 1
