"""Short-challenge Schnorr, the key term by inverse, Euler-by-Jacobi membership.

The verifier's three cheap routes must decide exactly what the frozen
naive twins in :mod:`tests.perf.reference` decide, reject a wide challenge
before exponentiating anything, leave the 64-bit group's bytes where they
were, and keep no per-key state however many verification keys it meets.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import group_ops
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import (
    CHALLENGE_BITS,
    SchnorrKeyPair,
    SchnorrSignature,
    batch_verify,
)
from repro.experiments.common import Deployment
from tests.perf import reference

GROUPS = {group.name: group for group in (TEST_GROUP, OAKLEY_GROUP_1)}
WIDE = 1 << CHALLENGE_BITS


@pytest.fixture(autouse=True)
def _clean_group_ops_state():
    group_ops.reset_tables()
    yield
    group_ops.reset_tables()


#: ``(e, s, q) -> (e', s')``
MUTATIONS = {
    "none": lambda e, s, q: (e, s),
    "e+1": lambda e, s, q: (e + 1, s),
    "s+1": lambda e, s, q: (e, s + 1),
    "e+2^128": lambda e, s, q: (e + WIDE, s),
    "e+q": lambda e, s, q: (e + q, s),
    "s+q": lambda e, s, q: (e, s + q),
    "-e": lambda e, s, q: (-e, s),
    "-s": lambda e, s, q: (e, -s),
    "e-q": lambda e, s, q: (e - q, s),
    "e=0": lambda e, s, q: (0, s),
    "swap": lambda e, s, q: (s, e),
}


# ------------------------------------------------- parity with the twins


@settings(max_examples=40, deadline=None)
@given(
    group_name=st.sampled_from(sorted(GROUPS)),
    key_seed=st.binary(min_size=1, max_size=8),
    message=st.binary(max_size=48),
    mutation=st.sampled_from(sorted(MUTATIONS)),
)
def test_verify_matches_naive_twin(group_name, key_seed, message, mutation):
    group = GROUPS[group_name]
    keypair = SchnorrKeyPair.generate(HmacDrbg(key_seed), group)
    signature = keypair.sign(message)
    challenge, response = MUTATIONS[mutation](
        signature.challenge, signature.response, group.subgroup_order
    )
    mutated = SchnorrSignature(challenge, response)
    public = keypair.public_key
    assert public.is_valid(message, mutated) == reference.schnorr_verify_naive(
        group, public.element, message, mutated
    )
    if mutation == "none":
        assert public.is_valid(message, mutated)


@settings(max_examples=25, deadline=None)
@given(
    group_name=st.sampled_from(sorted(GROUPS)),
    key_seed=st.binary(min_size=1, max_size=8),
    slot=st.integers(min_value=0, max_value=5),
    mutation=st.sampled_from(sorted(MUTATIONS)),
)
def test_batch_verify_matches_naive_twin(group_name, key_seed, slot, mutation):
    group = GROUPS[group_name]
    keypair = SchnorrKeyPair.generate(HmacDrbg(key_seed), group)
    items = [(b"msg-%d" % i, keypair.sign(b"msg-%d" % i)) for i in range(6)]
    message, signature = items[slot]
    challenge, response = MUTATIONS[mutation](
        signature.challenge, signature.response, group.subgroup_order
    )
    items[slot] = (
        message,
        dataclasses.replace(signature, challenge=challenge, response=response),
    )
    batched = batch_verify(keypair.public_key, items)
    naive = reference.verify_signatures_naive(keypair.public_key, items)
    # ``None`` is an abstention (an out-of-range component): the caller
    # verifies per signature, so only a decision has to match.
    assert batched in (None, naive)
    if mutation == "none":
        assert batched is True


@settings(max_examples=200, deadline=None)
@given(
    group_name=st.sampled_from(sorted(GROUPS)),
    seed=st.binary(max_size=8),
    shape=st.sampled_from(["random", "member", "edge"]),
    offset=st.integers(min_value=-3, max_value=3),
)
def test_membership_matches_euler_criterion(group_name, seed, shape, offset):
    group = GROUPS[group_name]
    prime, q = group.prime, group.subgroup_order
    rng = HmacDrbg(seed, personalization="membership")
    if shape == "random":
        element = rng.randrange(0, prime)
    elif shape == "member":
        element = group.public_element(group.random_exponent(rng))
    else:
        element = rng.choice([0, 1, prime - 1, prime, 2 * prime, q]) + offset
    expected = 1 < element < prime - 1 and pow(element, q, prime) == 1
    assert group.is_valid_element(element) == expected
    # and again through the positive-only memo
    assert group.is_valid_element(element) == expected


# ------------------------------------------ a wide challenge is never walked


def _count_fixed_power(monkeypatch) -> list:
    calls = []
    real = group_ops.fixed_power

    def counting(prime, base, exponent):
        calls.append(exponent)
        return real(prime, base, exponent)

    monkeypatch.setattr(group_ops, "fixed_power", counting)
    return calls


@pytest.mark.parametrize(
    "extra",
    [0, 1, WIDE, OAKLEY_GROUP_1.subgroup_order - WIDE - 1],
    ids=["2^128", "2^128+1", "2^129", "q-1"],
)
def test_wide_challenge_rejected_before_any_exponentiation(monkeypatch, extra):
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"wide"), OAKLEY_GROUP_1)
    signature = keypair.sign(b"m")
    assert signature.challenge < WIDE
    wide = SchnorrSignature(WIDE + extra, signature.response)
    items = [
        (b"m", signature),
        (b"m", dataclasses.replace(wide, commitment=signature.commitment)),
    ]
    calls = _count_fixed_power(monkeypatch)
    assert not keypair.public_key.is_valid(b"m", wide)
    assert batch_verify(keypair.public_key, items) is None
    assert calls == []
    # the counter does count: an in-range signature costs its two powers
    assert keypair.public_key.is_valid(b"m", signature)
    assert len(calls) == 2 and calls[1] == -signature.challenge


# ------------------------------------------------------------------- pins


def test_test_group_signature_is_where_the_parent_left_it():
    """Recorded on the parent of the short-challenge change: ``q`` of the
    64-bit group is narrower than the challenge bound, so nothing moved."""
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"pin"), TEST_GROUP)
    signature = keypair.sign(b"pinned message")
    assert keypair.public_key.element == 7402381147650125084
    assert (signature.challenge, signature.response, signature.commitment) == (
        4355628702130647585,
        8874196044190835117,
        17115912728538302814,
    )


def test_oakley_signature_pinned():
    keypair = SchnorrKeyPair.generate(HmacDrbg(b"pin"), OAKLEY_GROUP_1)
    signature = keypair.sign(b"pinned message")
    assert signature.challenge == 0x74D49CB5AED3599367D0C7F196159F81
    assert signature.response == int(
        "3065b7255285c9e1ac14a07edbd27b88cd6f031bbb71397a3fb65e053f030e56"
        "a9ab46abfd5703c3aad02c055e78b67970be78dcf05ebacd4ba0b2dffc9e65b0"
        "0da04107f193e54a5d90761ad3f1e6fe09b56415926646b5fbcd379a3908ae03",
        16,
    )
    keypair.public_key.verify(b"pinned message", signature)


# ------------------------------------------------------- no per-key state


def _keyed_bases(table) -> set[int]:
    return {base for prime, base in table if prime == OAKLEY_GROUP_1.prime}


def test_verification_keys_never_earn_a_table():
    """What the change is for: a verifier's cost and memory do not depend
    on how many keys it meets or how often it meets each."""
    rng = HmacDrbg(b"fleet-of-keys")
    keypairs = [SchnorrKeyPair.generate(rng, OAKLEY_GROUP_1) for _ in range(64)]
    for index, keypair in enumerate(keypairs):
        for use in range(12):
            message = b"quote-%d-%d" % (index, use)
            keypair.public_key.verify(message, keypair.sign(message))
    keys = {keypair.public_key.element for keypair in keypairs}
    assert not keys & _keyed_bases(group_ops._TABLES)
    assert not keys & _keyed_bases(group_ops._USE_COUNTS)

    deployment = Deployment.build(num_users=40, seed=b"table-constancy")
    keys |= {
        public.element for public in deployment.attestation._platforms.values()
    }
    keys |= {
        keypair.public_key.element
        for keypair in (
            deployment.vendor.keypair,
            deployment.service_identity,
            deployment.signing_keypair,
            deployment.blinder_identity,
        )
    }
    deployment.honest_round(1)
    after_first = len(group_ops._TABLES)
    for round_id in range(2, 11):
        deployment.honest_round(round_id)
    assert len(group_ops._TABLES) == after_first
    assert not keys & _keyed_bases(group_ops._TABLES)
    assert not keys & _keyed_bases(group_ops._USE_COUNTS)
