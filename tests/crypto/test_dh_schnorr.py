"""Tests for Diffie-Hellman and Schnorr signatures."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import DHGroup, DHKeyPair, OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrSignature, batch_verify
from repro.errors import AuthenticationError, CryptoError


def test_groups_have_prime_order_subgroup_generator():
    for group in (OAKLEY_GROUP_1, TEST_GROUP):
        h = group.subgroup_generator()
        assert group.is_valid_element(h)
        assert group.power(h, group.subgroup_order) == 1


def test_dh_agreement():
    rng = HmacDrbg(b"dh")
    alice = DHKeyPair.generate(TEST_GROUP, rng)
    bob = DHKeyPair.generate(TEST_GROUP, rng)
    assert alice.shared_secret(bob.public) == bob.shared_secret(alice.public)


def test_dh_agreement_oakley():
    rng = HmacDrbg(b"dh-oakley")
    alice = DHKeyPair.generate(OAKLEY_GROUP_1, rng)
    bob = DHKeyPair.generate(OAKLEY_GROUP_1, rng)
    assert alice.derive_key(bob.public, "c") == bob.derive_key(alice.public, "c")


def test_dh_derive_key_context_separation():
    rng = HmacDrbg(b"dh")
    alice = DHKeyPair.generate(TEST_GROUP, rng)
    bob = DHKeyPair.generate(TEST_GROUP, rng)
    assert alice.derive_key(bob.public, "a") != alice.derive_key(bob.public, "b")


def test_dh_third_party_differs():
    rng = HmacDrbg(b"dh")
    alice = DHKeyPair.generate(TEST_GROUP, rng)
    bob = DHKeyPair.generate(TEST_GROUP, rng)
    eve = DHKeyPair.generate(TEST_GROUP, rng)
    assert alice.shared_secret(bob.public) != eve.shared_secret(bob.public)


def test_invalid_peer_element_rejected():
    rng = HmacDrbg(b"dh")
    alice = DHKeyPair.generate(TEST_GROUP, rng)
    for bad in (0, 1, TEST_GROUP.prime - 1, TEST_GROUP.prime, TEST_GROUP.prime + 5):
        with pytest.raises(CryptoError):
            alice.shared_secret(bad)


def test_element_validity():
    group = TEST_GROUP
    assert not group.is_valid_element(0)
    assert not group.is_valid_element(1)
    assert not group.is_valid_element(group.prime - 1)
    assert group.is_valid_element(group.public_element(12345))


@pytest.mark.parametrize("group", [TEST_GROUP, OAKLEY_GROUP_1], ids=lambda g: g.name)
@pytest.mark.parametrize("bad", [2.5, 4.0, "4", b"\x04", None, (4,)])
def test_non_int_is_not_an_element(group, bad):
    """Regression: a float used to reach ``pow`` and raise ``TypeError``."""
    assert group.is_valid_element(4)
    assert group.is_valid_element(bad) is False


def test_group_requires_odd_prime():
    with pytest.raises(CryptoError):
        DHGroup(name="bad", prime=10)
    with pytest.raises(CryptoError):
        DHGroup(name="bad", prime=5)


def test_schnorr_sign_verify():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"), group=TEST_GROUP)
    signature = keypair.sign(b"message")
    keypair.public_key.verify(b"message", signature)  # must not raise


def test_schnorr_wrong_message_rejected():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"), group=TEST_GROUP)
    signature = keypair.sign(b"message")
    with pytest.raises(AuthenticationError):
        keypair.public_key.verify(b"other message", signature)


def test_schnorr_wrong_key_rejected():
    signer = SchnorrKeyPair.generate(HmacDrbg(b"sig-a"), group=TEST_GROUP)
    other = SchnorrKeyPair.generate(HmacDrbg(b"sig-b"), group=TEST_GROUP)
    signature = signer.sign(b"message")
    assert not other.public_key.is_valid(b"message", signature)


def test_schnorr_tampered_signature_rejected():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"), group=TEST_GROUP)
    signature = keypair.sign(b"message")
    tampered = SchnorrSignature(signature.challenge, signature.response ^ 1)
    assert not keypair.public_key.is_valid(b"message", tampered)


def test_schnorr_components_out_of_range_rejected():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"), group=TEST_GROUP)
    q = TEST_GROUP.subgroup_order
    bad = SchnorrSignature(challenge=q, response=1)
    with pytest.raises(AuthenticationError):
        keypair.public_key.verify(b"m", bad)


@pytest.mark.parametrize("bad", ["garbage", b"xx", 2.5, True, (1, 2)])
def test_batch_verify_abstains_on_non_int_commitment(bad):
    """Regression: the docstring promises ``None`` for an unbatchable item;
    a ``str`` commitment used to raise ``TypeError`` out of the range check."""
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"), group=TEST_GROUP)
    items = [(b"m%d" % i, keypair.sign(b"m%d" % i)) for i in range(4)]
    assert batch_verify(keypair.public_key, items) is True
    items[2] = (items[2][0], dataclasses.replace(items[2][1], commitment=bad))
    assert batch_verify(keypair.public_key, items) is None
    # the commitment is redundant metadata: (e, s) still verifies alone
    assert keypair.public_key.is_valid(*items[2])


def test_schnorr_deterministic_signing():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"), group=TEST_GROUP)
    assert keypair.sign(b"m") == keypair.sign(b"m")
    assert keypair.sign(b"m") != keypair.sign(b"n")


def test_schnorr_oakley_group():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"))
    signature = keypair.sign(b"contribution")
    keypair.public_key.verify(b"contribution", signature)


def test_schnorr_signature_serialization():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"sig"))
    signature = keypair.sign(b"m")
    assert SchnorrSignature.from_bytes(signature.to_bytes()) == signature


def test_schnorr_from_bytes_malformed():
    with pytest.raises(CryptoError):
        SchnorrSignature.from_bytes(b"\x00" * 10)


def test_schnorr_from_secret_roundtrip():
    keypair = SchnorrKeyPair.from_secret(12345, group=TEST_GROUP)
    signature = keypair.sign(b"m")
    keypair.public_key.verify(b"m", signature)


def test_schnorr_from_secret_out_of_range():
    with pytest.raises(CryptoError):
        SchnorrKeyPair.from_secret(0, group=TEST_GROUP)
    with pytest.raises(CryptoError):
        SchnorrKeyPair.from_secret(TEST_GROUP.subgroup_order, group=TEST_GROUP)


def test_public_key_fingerprint_stable_and_distinct():
    a = SchnorrKeyPair.generate(HmacDrbg(b"a"), group=TEST_GROUP)
    b = SchnorrKeyPair.generate(HmacDrbg(b"b"), group=TEST_GROUP)
    assert a.public_key.fingerprint() == a.public_key.fingerprint()
    assert a.public_key.fingerprint() != b.public_key.fingerprint()


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=256))
def test_schnorr_roundtrip_property(message):
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"prop"), group=TEST_GROUP)
    assert keypair.public_key.is_valid(message, keypair.sign(message))


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=64), st.binary(min_size=1, max_size=64))
def test_schnorr_distinct_messages_property(message, suffix):
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"prop"), group=TEST_GROUP)
    signature = keypair.sign(message)
    assert not keypair.public_key.is_valid(message + suffix, signature)
