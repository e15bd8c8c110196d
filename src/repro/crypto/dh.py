"""Finite-field Diffie-Hellman over safe-prime groups.

§4.1 and §4.2 of the paper establish secure channels by binding DH handshake
values to an attested enclave.  This module supplies the group arithmetic;
:mod:`repro.core.glimmer` and :mod:`repro.core.confidential` build the
authenticated handshakes on top.  Both shipped groups are safe-prime
groups, which is what lets :meth:`DHGroup.is_valid_element` decide
subgroup membership by Euler's criterion through the Jacobi symbol
instead of a full-width exponentiation.

Two groups ship by default:

* :data:`OAKLEY_GROUP_1` — the 768-bit safe prime from RFC 2409; real-world
  parameters, fast enough for simulations with thousands of handshakes.
* :data:`TEST_GROUP` — a 64-bit safe prime for property-based tests that
  perform many thousands of exponentiations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto import group_ops
from repro.crypto.drbg import HmacDrbg
from repro.crypto.kdf import hkdf
from repro.errors import CryptoError


@dataclass(frozen=True)
class DHGroup:
    """A multiplicative group modulo a safe prime ``p`` with generator ``g``.

    ``q = (p - 1) // 2`` is the prime order of the quadratic-residue
    subgroup; exponents are drawn from ``[1, q)``.  ``code`` is the byte a
    shipped group travels under (:data:`GROUPS`); 0 is no shipped group.
    """

    name: str
    prime: int
    generator: int = 2
    code: int = 0
    subgroup_order: int = field(init=False)
    element_size: int = field(init=False)
    """Bytes needed to serialize a group element big-endian — hoisted out
    of every ``_int_bytes``/``shared_secret`` call."""

    def __post_init__(self) -> None:
        if self.prime < 7 or self.prime % 2 == 0:
            raise CryptoError("prime must be an odd integer >= 7")
        object.__setattr__(self, "subgroup_order", (self.prime - 1) // 2)
        object.__setattr__(self, "element_size", (self.prime.bit_length() + 7) // 8)

    def random_exponent(self, rng: HmacDrbg) -> int:
        """Uniform secret exponent in ``[1, q)``."""
        return rng.randrange(1, self.subgroup_order)

    def power(self, base: int, exponent: int) -> int:
        """``base^exponent mod p`` — through a fixed-base table when hot.

        Bit-exact with ``pow`` on every input (tables only change how the
        product is computed); bases raised to many non-negative exponents,
        like the subgroup generator, earn precomputed tables
        automatically.  A negative exponent is the inverse's power
        (``pow`` semantics) and never touches the tables.
        """
        return group_ops.fixed_power(self.prime, base, exponent)

    def subgroup_generator(self) -> int:
        """Generator of the order-``q`` quadratic-residue subgroup.

        ``g^2`` is always a quadratic residue, so every public element lies
        in the prime-order subgroup and passes :meth:`is_valid_element` —
        which is also what makes the validity check meaningful against
        small-subgroup attacks.  Computed once per group: every sign,
        verify, and handshake starts from this element.
        """
        cached = self.__dict__.get("_subgroup_generator_memo")
        if cached is not None:
            return cached
        h = pow(self.generator, 2, self.prime)
        object.__setattr__(self, "_subgroup_generator_memo", h)
        return h

    def public_element(self, exponent: int) -> int:
        return self.power(self.subgroup_generator(), exponent)

    def is_element(self, element: int) -> bool:
        """Subgroup-membership check: rejects 0, 1, p-1, and non-residues.

        Skipping this check enables small-subgroup confinement attacks, so
        channel code calls it on every received handshake value.  For a
        safe prime ``x^q ≡ (x|p)`` (Euler's criterion), so the predicate
        ``x^q == 1`` is decided by the Jacobi symbol — the same answer on
        every input at a tenth of the exponentiation's cost.  Anything
        that is not an ``int`` is not an element.  Nothing is remembered:
        a value checked once, such as a round's commitment point or a
        handshake public, calls this.
        """
        return (
            type(element) is int
            and 1 < element < self.prime - 1
            and group_ops.jacobi(element, self.prime) == 1
        )

    def is_valid_element(self, element: int) -> bool:
        """:meth:`is_element`, memoized for values checked again and again.

        Long-lived keys (Schnorr publics) call this.  Elements that
        already passed are remembered (True results only — see
        :func:`repro.crypto.group_ops.is_known_member` — so a cache hit
        can never admit an element the full check would reject).
        """
        if type(element) is int and group_ops.is_known_member(self.prime, element):
            return True
        if not self.is_element(element):
            return False
        group_ops.remember_member(self.prime, element)
        return True


# RFC 2409 Oakley Group 1 (768-bit safe prime), generator 2.
_OAKLEY_1_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF"
)
OAKLEY_GROUP_1 = DHGroup(name="oakley-group-1", prime=int(_OAKLEY_1_HEX, 16), code=1)

# 64-bit safe prime for tests: p = 2q + 1 with q prime.
TEST_GROUP = DHGroup(name="test-64bit", prime=18446744073709550147, code=2)

#: Every shipped group, by name.  On the wire a group is its one-byte
#: ``code``, fixed for good (sealed frames outlive processes), and each of
#: its elements and scalars is exactly as wide as its bound: 96 bytes in
#: Oakley group 1, 8 in the test group (``codec.Named``, ``codec.Element``).
GROUPS = {group.name: group for group in (OAKLEY_GROUP_1, TEST_GROUP)}


@dataclass(frozen=True)
class DHKeyPair:
    """An ephemeral DH key pair bound to a group."""

    group: DHGroup
    secret: int
    public: int

    @classmethod
    def generate(cls, group: DHGroup, rng: HmacDrbg) -> "DHKeyPair":
        secret = group.random_exponent(rng)
        return cls(group=group, secret=secret, public=group.public_element(secret))

    def shared_secret(self, peer_public: int) -> bytes:
        """Raw shared group element, serialized big-endian.

        A handshake public is checked once and never again, so it takes
        the unremembered :meth:`DHGroup.is_element`.
        """
        if not self.group.is_element(peer_public):
            raise CryptoError("peer public value is not a valid group element")
        element = self.group.power(peer_public, self.secret)
        return element.to_bytes(self.group.element_size, "big")

    def derive_key(self, peer_public: int, context: str) -> bytes:
        """32-byte symmetric key from the shared secret, labeled by ``context``."""
        return hkdf(self.shared_secret(peer_public), "dh:" + context)
