"""Schnorr signatures over the quadratic-residue subgroup of a safe prime.

The Glimmer's *Signing* component endorses validated contributions with a
service-provided key (§3); the service verifies the signatures before
aggregation.  The scheme is classic Schnorr (Fiat-Shamir transformed):

* keygen:  ``x ← [1, q)``, ``y = h^x mod p`` where ``h = g^2`` generates the
  order-``q`` subgroup of a safe prime ``p = 2q + 1``.
* sign:    ``k ← [1, q)``, ``r = h^k``, ``e = H(r, y, m) mod min(q, 2^128)``,
  ``s = (k + e·x) mod q``; signature is ``(e, s)``.
* verify:  ``0 ≤ e < min(q, 2^128)``, ``0 ≤ s < q``, ``y`` in the subgroup;
  ``r' = h^s · y^{-e}``; accept iff ``H(r', y, m) mod min(q, 2^128) = e``.

The challenge is *short* (:data:`CHALLENGE_BITS`), as in Schnorr's original
design: a forger without the key succeeds with probability ``2^-128`` per
hash query, which is more than a 768-bit group offers against discrete
logs, so a wider challenge buys nothing.  What it would cost is the
verifier's time: the key term ``y^{-e}`` is a ladder over ``e``, computed
as ``pow(y, -e, p)`` (one modular inverse plus a 128-bit ladder, ~0.35 ms
on Oakley) where a challenge reduced mod ``q`` needs the 767-bit
``y^{q-e}`` (~1.5 ms) or a per-key table.  So every verification key costs
the same with no per-key state — a verifier that meets one platform key
per user (the TEE is on the client, §3) pays for the millionth key what it
paid for the first.  A challenge outside the range is rejected before any
exponentiation, so nobody can make the verifier walk a wide one.

Signing is *derandomized* (RFC 6979 style): the nonce ``k`` is derived from
the secret key and message through the DRBG, so the simulator never risks
nonce reuse and signatures are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import group_ops
from repro.crypto.dh import DHGroup, OAKLEY_GROUP_1
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_items, hash_to_int
from repro.errors import AuthenticationError, CryptoError


#: Width of the Fiat-Shamir challenge.  Groups whose subgroup order is
#: narrower (the 64-bit test group) keep reducing modulo ``q``.
CHALLENGE_BITS = 128


def _subgroup_generator(group: DHGroup) -> int:
    return group.subgroup_generator()


def _challenge_bound(group: DHGroup) -> int:
    return min(group.subgroup_order, 1 << CHALLENGE_BITS)


def _int_bytes(value: int, group: DHGroup) -> bytes:
    return value.to_bytes(group.element_size, "big")


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(challenge, response)``.

    ``commitment`` optionally carries the signer's nonce commitment
    ``r = h^k``.  It is redundant (``r = h^s · y^{-e}`` is recomputable
    from the signature) and therefore excluded from equality and from the
    wire encoding; carrying it lets a verifier with many signatures run
    randomized *batch* verification (:func:`batch_verify`) without
    re-deriving every ``r`` — signatures parsed off the wire simply have
    ``commitment=None`` and verify one at a time.
    """

    challenge: int
    response: int
    commitment: int | None = field(default=None, compare=False, repr=False)

    _COMPONENT_SIZE = 256  # bytes; fits any subgroup order up to 2048 bits

    def to_bytes(self) -> bytes:
        size = self._COMPONENT_SIZE
        return self.challenge.to_bytes(size, "big") + self.response.to_bytes(size, "big")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SchnorrSignature":
        size = cls._COMPONENT_SIZE
        if len(blob) != 2 * size:
            raise CryptoError("malformed signature encoding")
        return cls(
            challenge=int.from_bytes(blob[:size], "big"),
            response=int.from_bytes(blob[size:], "big"),
        )


@dataclass(frozen=True)
class SchnorrPublicKey:
    """Verification key ``y = h^x`` in a named group."""

    group: DHGroup
    element: int

    def verify(self, message: bytes, signature: SchnorrSignature) -> None:
        """Raise :class:`AuthenticationError` unless ``signature`` is valid."""
        group = self.group
        if not (
            0 <= signature.challenge < _challenge_bound(group)
            and 0 <= signature.response < group.subgroup_order
        ):
            raise AuthenticationError("signature components out of range")
        if not group.is_valid_element(self.element):
            raise AuthenticationError("public key is not a valid group element")
        h = _subgroup_generator(group)
        # r' = h^s * y^(-e): the inverse and a ladder over the short e.
        r_prime = (
            group.power(h, signature.response)
            * group.power(self.element, -signature.challenge)
        ) % group.prime
        expected = _challenge(group, r_prime, self.element, message)
        if expected != signature.challenge:
            raise AuthenticationError("Schnorr verification failed")

    def is_valid(self, message: bytes, signature: SchnorrSignature) -> bool:
        """Boolean form of :meth:`verify` for counting experiments."""
        try:
            self.verify(message, signature)
        except AuthenticationError:
            return False
        return True

    def fingerprint(self) -> bytes:
        """Stable identifier for this key (used in provisioning registries)."""
        return hash_items(
            "schnorr-key-fingerprint",
            [self.group.name.encode(), _int_bytes(self.element, self.group)],
        )


def _challenge(group: DHGroup, commitment: int, public: int, message: bytes) -> int:
    data = hash_items(
        "schnorr-challenge",
        [
            group.name.encode(),
            _int_bytes(commitment, group),
            _int_bytes(public, group),
            message,
        ],
    )
    return hash_to_int("schnorr-challenge-int", data, _challenge_bound(group))


@dataclass(frozen=True)
class SchnorrKeyPair:
    """Signing key pair.  Create with :meth:`generate`."""

    group: DHGroup
    secret: int
    public_key: SchnorrPublicKey

    @classmethod
    def generate(cls, rng: HmacDrbg, group: DHGroup = OAKLEY_GROUP_1) -> "SchnorrKeyPair":
        secret = rng.randrange(1, group.subgroup_order)
        h = _subgroup_generator(group)
        return cls(
            group=group,
            secret=secret,
            public_key=SchnorrPublicKey(group=group, element=group.power(h, secret)),
        )

    @classmethod
    def from_secret(cls, secret: int, group: DHGroup = OAKLEY_GROUP_1) -> "SchnorrKeyPair":
        if not 1 <= secret < group.subgroup_order:
            raise CryptoError("secret out of range")
        h = _subgroup_generator(group)
        return cls(
            group=group,
            secret=secret,
            public_key=SchnorrPublicKey(group=group, element=group.power(h, secret)),
        )

    def sign(self, message: bytes) -> SchnorrSignature:
        group = self.group
        q = group.subgroup_order
        h = _subgroup_generator(group)
        # Derandomized nonce: independent per (key, message) pair.
        nonce_rng = HmacDrbg(
            _int_bytes(self.secret, group) + message, personalization="schnorr-nonce"
        )
        k = nonce_rng.randrange(1, q)
        r = group.power(h, k)
        e = _challenge(group, r, self.public_key.element, message)
        s = (k + e * self.secret) % q
        return SchnorrSignature(challenge=e, response=s, commitment=r)


def batch_verify(
    public: SchnorrPublicKey, items: list[tuple[bytes, SchnorrSignature]]
) -> bool | None:
    """Randomized batch verification of many signatures under one key.

    Returns ``True`` when the whole batch verifies, ``False`` when the
    combined check fails (some signature is bad — fall back to
    per-signature :meth:`SchnorrPublicKey.verify` to blame the culprit),
    and ``None`` when the batch is not batchable (fewer than two
    signatures, a signature without its nonce commitment, or a
    commitment that is not an ``int`` inside the QR subgroup) — in which
    case nothing was checked and the caller must verify per signature.

    Soundness (small-exponent / Bellare-Garay-Rabin): per signature the
    cheap hash check ``e_i == H(R_i, y, m_i)`` binds the challenge to the
    carried commitment, and the single combined equation

        ``h^(Σ z_i·s_i) · y^(−Σ z_i·e_i)  ==  Π R_i^{z_i}   (mod p)``

    with independent 128-bit ``z_i`` (DRBG-derived from the batch
    transcript, so fixed only after the signatures are) fails with
    probability ≥ 1 − 2^−128 unless every ``R_i == h^{s_i}·y^{−e_i}``,
    i.e. unless every signature individually verifies.  The Jacobi
    pre-filter pins each ``R_i`` inside the prime-order subgroup, so the
    Schwartz-Zippel argument runs in a prime-order group (a sign-flipped
    ``R_i`` cannot halve the error).  Accept/reject decisions therefore
    match the per-signature path on every input, which the property
    suite asserts including forged-signature-in-a-batch cases.
    """
    if len(items) < 2:
        return None
    group = public.group
    q = group.subgroup_order
    e_bound = _challenge_bound(group)
    prime = group.prime
    if not group.is_valid_element(public.element):
        return None
    transcript_parts = [group.name.encode(), _int_bytes(public.element, group)]
    commitments: list[int] = []
    for message, signature in items:
        r = signature.commitment
        if (
            type(r) is not int
            or not 1 <= r < prime
            or group_ops.jacobi(r, prime) != 1
        ):
            return None
        if not (0 <= signature.challenge < e_bound and 0 <= signature.response < q):
            return None
        if _challenge(group, r, public.element, message) != signature.challenge:
            # The challenge does not even match the carried commitment;
            # the per-signature path will reject and name the culprit.
            return False
        commitments.append(r)
        transcript_parts.append(_int_bytes(r, group))
        transcript_parts.append(signature.to_bytes())
        transcript_parts.append(message)
    transcript = hash_items("schnorr-batch-transcript", transcript_parts)
    scalars = group_ops.batch_scalars(transcript, len(items))
    s_combined = 0
    e_combined = 0
    for (message, signature), z in zip(items, scalars):
        s_combined = (s_combined + z * signature.response) % q
        e_combined += z * signature.challenge
    h = _subgroup_generator(group)
    lhs = (
        group.power(h, s_combined) * group.power(public.element, -e_combined)
    ) % prime
    rhs = group_ops.multi_power(prime, commitments, scalars)
    return lhs == rhs
