"""Verifiable blinding: commitments over a round's sum-zero mask family.

§3 assumes the blinding service is *trusted* to hand out masks with
``Σ_j m_j ≡ 0 (mod 2^64)`` per component.  The paper itself concedes the
service "could itself be a Glimmer" — i.e. it should not be axiomatically
trusted.  This module removes the axiom: when the blinding service opens
a round it also publishes a commitment set that (a) binds every slot's
mask and (b) lets the engine check the sum-zero property homomorphically
at finalize, without any single party ever seeing all masks.

Construction
------------

Work in the Schnorr group ``G`` (prime ``p``, QR subgroup of prime order
``q``, generator ``h``); ``u`` is a second generator derived by hashing
into the subgroup, so its discrete log w.r.t. ``h`` is unknown to the
blinder (simulation-grade Pedersen assumption).

Each 64-bit mask word is split into ``ceil(64 / 16)`` 16-bit limbs, so a
*limb column* ``(i, l)`` — component ``i``, limb ``l`` — sums over the
``N`` slots to an integer strictly below ``N·2^16``.  That bound is the
soundness linchpin: it keeps every column discrepancy smaller than ``q``
even for the 63-bit test group, so a congruence mod ``q`` implies integer
equality (a single-scalar-per-word scheme would let a cheating blinder
shift a column sum by ``q`` undetected).

The blinder publishes, per round:

* per-slot hash commitments ``HC_j = H(round, j, mask_j, salt_j)``;
* the claimed limb-column sums ``T[i][l]`` (public integers — they reveal
  only the carry structure of the family, ``O(L·log N)`` bits about an
  ``N·L·64``-bit secret, and under honest sum-zero they are implied by
  the carries anyway);
* a Fiat-Shamir ``root`` binding round shape, every ``HC_j``, and every
  ``T[i][l]`` — claims are committed *before* the challenge weights
  ``w[i][l] = H(root, i, l) mod q`` exist, so they cannot be solved for
  afterwards;
* per-slot Pedersen points ``C_j = h^{s_j}·u^{r_j}`` with
  ``s_j = Σ_{i,l} w[i][l]·limb_l(m_{j,i}) mod q``;
* the randomizer sum ``R = Σ_j r_j mod q``.

Verification splits three ways:

1. **Structural** (engine, at open): recompute ``root``, range-check every
   ``T[i][l] < N·2^16``, and check per component
   ``Σ_l 2^{16l}·T[i][l] ≡ 0 (mod 2^64)`` — the sum-zero *claim*.
2. **Per-slot opening** (each recipient Glimmer at install; the engine at
   dropout reveal): ``HC_j`` matches the delivered ``(mask, salt)`` and
   ``C_j = h^{s_j}·u^{r_j}`` for the recomputed ``s_j``.  Every slot is
   opened by someone, so every ``C_j`` provably commits the mask that was
   actually delivered.
3. **Homomorphic sum-zero** (engine, at finalize):
   ``Π_j C_j ≡ h^{Σ w[i][l]·T[i][l]}·u^R`` — the actual limb-column sums
   equal the claimed ones except with probability ``≈ L·limbs/q``
   (Schwartz–Zippel over the Fiat-Shamir weights).

Together: a blinder that delivers a non-sum-zero family, reuses a mask,
equivocates between parties, or mis-reveals at repair time is *detected*
and blamed; it can never silently corrupt an aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Sequence

import numpy as np

from repro.crypto import group_ops
from repro.crypto.dh import DHGroup, OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_bytes, hash_items, hash_to_int, seeded_hash_to_int
from repro.errors import ConfigurationError, MaskVerificationError
from repro.perf import kernels

LIMB_BITS = 16
SALT_SIZE = 32

_KNOWN_GROUPS = {TEST_GROUP.name: TEST_GROUP, OAKLEY_GROUP_1.name: OAKLEY_GROUP_1}


def resolve_group(name: str) -> DHGroup:
    """Look up a shipped group by wire name (commitment sets carry names)."""
    group = _KNOWN_GROUPS.get(name)
    if group is None:
        raise ConfigurationError(f"unknown commitment group {name!r}")
    return group


def _limbs_per_word(modulus_bits: int) -> int:
    return (modulus_bits + LIMB_BITS - 1) // LIMB_BITS


def _weighted_limb_sum(
    mask: Sequence[int] | np.ndarray,
    weights: tuple[tuple[int, ...], ...],
    limbs: int,
    q: int,
) -> int:
    """``Σ_{i,l} weights[i][l]·limb_l(mask[i]) mod q``.

    One shift/mask yields every limb, row-major like ``weights``; the dot
    product runs over Python integers (a weight is as wide as ``q``) and
    is reduced once — the same residue as reducing after every term.
    """
    shifts = np.uint64(LIMB_BITS) * np.arange(limbs, dtype=np.uint64)
    limb_values = (kernels.as_ring(mask)[:, None] >> shifts) & np.uint64(
        (1 << LIMB_BITS) - 1
    )
    return sum(map(mul, chain.from_iterable(weights), limb_values.ravel().tolist())) % q


@lru_cache(maxsize=None)
def pedersen_generators(group: DHGroup) -> tuple[int, int]:
    """``(h, u)``: the subgroup generator and a second, dlog-free generator.

    ``u`` is hashed into the group and squared (squaring lands in the QR
    subgroup), so nobody — the blinder included — knows ``log_h u``.
    Pure in the (hashable, frozen) group, so the derivation is cached.
    """
    h = group.subgroup_generator()
    counter = 0
    while True:
        seed = hash_bytes(
            "pedersen-second-generator",
            group.name.encode("ascii") + counter.to_bytes(4, "big"),
        )
        candidate = pow(
            2 + hash_to_int("pedersen-u", seed, group.prime - 3), 2, group.prime
        )
        if candidate not in (1, group.prime - 1) and candidate != h:
            # Both generators are raised to fresh exponents once per slot
            # per round — guaranteed hot, so build their fixed-base tables
            # up front instead of waiting for the use-count heuristic.
            group_ops.register_base(group.prime, h)
            group_ops.register_base(group.prime, candidate)
            return h, candidate
        counter += 1


def hash_commitment(
    round_id: int, slot: int, mask: Sequence[int], salt: bytes
) -> bytes:
    """The binding per-slot commitment ``HC_j``.

    The mask words are serialized as one contiguous big-endian buffer
    (:func:`repro.perf.kernels.be_words_to_bytes`), so hashing makes a
    single pass instead of joining ``length`` 8-byte fragments.
    """
    return hash_items(
        "mask-slot-commitment",
        [
            round_id.to_bytes(8, "big"),
            slot.to_bytes(4, "big"),
            kernels.be_words_to_bytes(mask),
            salt,
        ],
    )


@dataclass(frozen=True)
class MaskOpening:
    """What a slot's recipient gets: the mask plus its commitment opening.

    Iterating an opening yields the bare mask words, so a caller holding
    a reveal can hand it straight to ``remove_mask`` or
    ``finalize_blinded_round`` (``tests/core/test_dp_release.py`` does).
    """

    mask: tuple[int, ...]
    salt: bytes
    randomizer: int

    def __iter__(self):
        return iter(self.mask)

    def __len__(self) -> int:
        return len(self.mask)


@dataclass(frozen=True)
class MaskCommitmentRecord:
    """One slot's share of the round commitments, as the engine vouches it.

    This travels inside the engine's ``ProvisionMask`` command, so the
    client verifies against the commitment set the *engine* validated at
    open — a blinder cannot tell the engine one story and a client
    another.
    """

    round_id: int
    slot: int
    num_slots: int
    vector_length: int
    modulus_bits: int
    group_name: str
    root: bytes
    hash_commitment: bytes
    point: int


@dataclass(frozen=True)
class MaskCommitmentSet:
    """Everything the blinding service publishes when a round opens."""

    round_id: int
    num_slots: int
    vector_length: int
    modulus_bits: int
    group_name: str
    hash_commitments: tuple[bytes, ...]
    points: tuple[int, ...]
    column_sums: tuple[tuple[int, ...], ...]
    """``column_sums[i][l]``: claimed integer sum over slots of limb ``l``
    of component ``i``."""
    randomizer_sum: int

    # ------------------------------------------------------------ derivation

    def root(self) -> bytes:
        """Fiat-Shamir root binding the whole set.

        The set is frozen, so the digest is computed once and memoized on
        the instance (``record_for`` calls this per slot — without the
        memo a full round's provisioning is quadratic in the slot count).
        """
        cached = self.__dict__.get("_root_memo")
        if cached is not None:
            return cached
        limbs = _limbs_per_word(self.modulus_bits)
        items: list[bytes] = [
            self.round_id.to_bytes(8, "big"),
            self.num_slots.to_bytes(4, "big"),
            self.vector_length.to_bytes(4, "big"),
            self.modulus_bits.to_bytes(2, "big"),
            self.group_name.encode("ascii"),
        ]
        items.extend(self.hash_commitments)
        for column in self.column_sums:
            for l in range(limbs):
                items.append(int(column[l]).to_bytes(8, "big"))
        root = hash_items("mask-commitment-root", items)
        object.__setattr__(self, "_root_memo", root)
        return root

    def weights(self, root: bytes | None = None) -> tuple[tuple[int, ...], ...]:
        """Fiat-Shamir challenge weight per limb column, ``mod q``."""
        return challenge_weights(
            self.root() if root is None else root,
            self.group_name,
            self.vector_length,
            self.modulus_bits,
        )

    def record_for(self, slot: int) -> MaskCommitmentRecord:
        return MaskCommitmentRecord(
            round_id=self.round_id,
            slot=slot,
            num_slots=self.num_slots,
            vector_length=self.vector_length,
            modulus_bits=self.modulus_bits,
            group_name=self.group_name,
            root=self.root(),
            hash_commitment=self.hash_commitments[slot],
            point=self.points[slot],
        )

    # ---------------------------------------------------------- verification

    def validate_structure(
        self,
        round_id: int | None = None,
        num_slots: int | None = None,
        vector_length: int | None = None,
    ) -> None:
        """Structural + sum-zero-claim checks (engine, at round open)."""
        if round_id is not None and self.round_id != round_id:
            raise MaskVerificationError(
                f"commitment set names round {self.round_id}, expected {round_id}"
            )
        if num_slots is not None and self.num_slots != num_slots:
            raise MaskVerificationError(
                f"commitment set has {self.num_slots} slots, expected {num_slots}"
            )
        if vector_length is not None and self.vector_length != vector_length:
            raise MaskVerificationError(
                f"commitment set is over length {self.vector_length}, "
                f"expected {vector_length}"
            )
        group = resolve_group(self.group_name)
        limbs = _limbs_per_word(self.modulus_bits)
        column_cap = self.num_slots * ((1 << LIMB_BITS) - 1)
        if 2 * (column_cap + 1) >= group.subgroup_order:
            raise MaskVerificationError(
                "group order too small for sound limb commitments at this scale"
            )
        if len(self.hash_commitments) != self.num_slots or len(self.points) != (
            self.num_slots
        ):
            raise MaskVerificationError("commitment set has the wrong slot count")
        if len(self.column_sums) != self.vector_length:
            raise MaskVerificationError("commitment set has the wrong column count")
        for i, column in enumerate(self.column_sums):
            if len(column) != limbs:
                raise MaskVerificationError(f"component {i} has the wrong limb count")
        self._audit_column_sums(limbs, column_cap)
        if not 0 <= self.randomizer_sum < group.subgroup_order:
            raise MaskVerificationError("randomizer sum out of range")
        for slot, point in enumerate(self.points):
            if not group.is_valid_element(point):
                raise MaskVerificationError(
                    f"slot {slot} commitment point is not a valid group element"
                )
        for slot, digest in enumerate(self.hash_commitments):
            if not isinstance(digest, bytes) or len(digest) != 32:
                raise MaskVerificationError(
                    f"slot {slot} hash commitment is malformed"
                )

    def _audit_column_sums(self, limbs: int, column_cap: int) -> None:
        """Vectorized sum-zero audit over the claimed limb-column sums.

        Range-checks every ``T[i][l]`` and verifies per component
        ``Σ_l 2^{16l}·T[i][l] ≡ 0 (mod 2^modulus_bits)``.  The weighted
        totals are accumulated in ``uint64`` — wraparound is exact modulo
        ``2^64``, and ``2^modulus_bits`` divides ``2^64``, so the reduced
        result matches the arbitrary-precision scalar check bit for bit.
        Claims numpy cannot even represent (negative, or ≥ 2^64) are by
        construction out of range, so the fallback rejects them directly.
        """
        try:
            claimed = np.asarray(self.column_sums, dtype=np.uint64)
        except (OverflowError, TypeError, ValueError):
            for i, column in enumerate(self.column_sums):
                for l, value in enumerate(column):
                    if not 0 <= int(value) <= column_cap:
                        raise MaskVerificationError(
                            "claimed column sum out of range at "
                            f"component {i} limb {l}"
                        )
            raise MaskVerificationError("claimed column sums are malformed")
        in_range = claimed <= np.uint64(column_cap)
        if not in_range.all():
            i, l = (int(v) for v in np.argwhere(~in_range)[0])
            raise MaskVerificationError(
                f"claimed column sum out of range at component {i} limb {l}"
            )
        shifts = (np.uint64(LIMB_BITS) * np.arange(limbs, dtype=np.uint64))
        totals = (claimed << shifts).sum(axis=1, dtype=np.uint64)
        violations = kernels.ring_reduce(totals, self.modulus_bits)
        if violations.any():
            i = int(np.flatnonzero(violations)[0])
            raise MaskVerificationError(
                f"claimed column sums violate sum-zero at component {i}"
            )

    def verify_sum_zero(self) -> None:
        """The homomorphic check: ``Π C_j ≡ h^{Σ w·T} · u^R`` (finalize)."""
        group = resolve_group(self.group_name)
        q = group.subgroup_order
        h, u = pedersen_generators(group)
        weights = self.weights()
        target = 0
        for i, column in enumerate(self.column_sums):
            for l, claimed in enumerate(column):
                target = (target + weights[i][l] * int(claimed)) % q
        product = 1
        for point in self.points:
            product = (product * point) % group.prime
        expected = (
            group.power(h, target) * group.power(u, self.randomizer_sum)
        ) % group.prime
        if product != expected:
            raise MaskVerificationError(
                f"round {self.round_id}: mask commitments do not satisfy "
                "the claimed sum-zero column sums"
            )


@lru_cache(maxsize=8)
def challenge_weights(
    root: bytes, group_name: str, vector_length: int, modulus_bits: int
) -> tuple[tuple[int, ...], ...]:
    """The ``w[i][l] = H(root, i, l) mod q`` table for one commitment root.

    Pure in its arguments, so the table is derived once per round and
    shared by every consumer — the set-level :meth:`MaskCommitmentSet.weights`,
    the per-slot record path Glimmers verify against at install, and the
    engine's dropout-repair sweep.  Deriving it costs one hash per limb
    column (``vector_length × limbs``), each from a hasher that already
    absorbed the tag and the root.
    """
    limbs = _limbs_per_word(modulus_bits)
    weight = seeded_hash_to_int(
        "mask-commitment-weight", root, resolve_group(group_name).subgroup_order
    )
    suffixes = [l.to_bytes(2, "big") for l in range(limbs)]
    return tuple(
        tuple(weight(i.to_bytes(4, "big") + suffix) for suffix in suffixes)
        for i in range(vector_length)
    )


def scalar_for_mask(
    commitments: MaskCommitmentSet,
    mask: Sequence[int],
    weights: tuple[tuple[int, ...], ...] | None = None,
) -> int:
    """``s_j = Σ_{i,l} w[i][l]·limb_l(mask_i) mod q`` for one slot's mask.

    Pass precomputed ``weights`` when verifying many slots of one round —
    deriving them costs one hash per limb column.
    """
    return _weighted_limb_sum(
        mask,
        commitments.weights() if weights is None else weights,
        _limbs_per_word(commitments.modulus_bits),
        resolve_group(commitments.group_name).subgroup_order,
    )


def _checked_scalar(
    commitments: MaskCommitmentSet | MaskCommitmentRecord,
    slot: int,
    opening: MaskOpening,
    weights: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[int, int]:
    """All the cheap per-slot opening checks; ``(scalar, committed point)``.

    Shape, ring range, hash commitment, and randomizer range are checked
    here (raising :class:`~repro.errors.MaskVerificationError`); the
    Pedersen *point* equation is the caller's job — single-slot
    :func:`verify_opening` pays one double-exp per slot, while
    :func:`batch_verify_openings` folds every slot into one multi-exp.
    """
    if isinstance(commitments, MaskCommitmentRecord):
        record = commitments
        if record.slot != slot:
            raise MaskVerificationError(
                f"commitment record is for slot {record.slot}, not {slot}"
            )
        expected_hc, point = record.hash_commitment, record.point
        set_like = record
    else:
        if not 0 <= slot < commitments.num_slots:
            raise MaskVerificationError(f"slot {slot} out of range")
        expected_hc = commitments.hash_commitments[slot]
        point = commitments.points[slot]
        set_like = commitments
    if len(opening.mask) != set_like.vector_length:
        raise MaskVerificationError(
            f"slot {slot}: mask length {len(opening.mask)} does not match "
            f"the committed vector length {set_like.vector_length}"
        )
    try:
        words = np.asarray(opening.mask, dtype=np.uint64)  # refuses < 0 and >= 2^64
    except (OverflowError, TypeError, ValueError):
        words = None
    if words is None or (words > kernels.ring_bitmask(set_like.modulus_bits)).any():
        raise MaskVerificationError(f"slot {slot}: mask word out of ring range")
    if hash_commitment(set_like.round_id, slot, words, opening.salt) != expected_hc:
        raise MaskVerificationError(
            f"slot {slot}: delivered mask does not match its hash commitment"
        )
    group = resolve_group(set_like.group_name)
    if not 0 <= opening.randomizer < group.subgroup_order:
        raise MaskVerificationError(f"slot {slot}: randomizer out of range")
    if isinstance(set_like, MaskCommitmentRecord):
        weights = challenge_weights(
            set_like.root,
            set_like.group_name,
            set_like.vector_length,
            set_like.modulus_bits,
        )
    elif weights is None:
        weights = set_like.weights()
    scalar = _weighted_limb_sum(
        words, weights, _limbs_per_word(set_like.modulus_bits), group.subgroup_order
    )
    return scalar, point


def verify_opening(
    commitments: MaskCommitmentSet | MaskCommitmentRecord,
    slot: int,
    opening: MaskOpening,
    weights: tuple[tuple[int, ...], ...] | None = None,
) -> None:
    """Check one slot's delivered mask against the round commitments.

    Works from the full set (engine, at reveal) or from a single-slot
    record (Glimmer, at install).  Raises
    :class:`~repro.errors.MaskVerificationError` on any mismatch.
    """
    scalar, point = _checked_scalar(commitments, slot, opening, weights)
    set_like = commitments
    group = resolve_group(set_like.group_name)
    h, u = pedersen_generators(group)
    expected = (
        group.power(h, scalar) * group.power(u, opening.randomizer)
    ) % group.prime
    if expected != point:
        raise MaskVerificationError(
            f"slot {slot}: delivered mask does not match its Pedersen commitment"
        )


def batch_verify_openings(
    commitments: MaskCommitmentSet,
    openings: Sequence[tuple[int, MaskOpening]],
    weights: tuple[tuple[int, ...], ...] | None = None,
) -> bool:
    """One multi-exp Pedersen check over many slots' openings.

    Returns ``True`` when every opening matches its committed point;
    ``False`` when anything fails — callers fall back to per-slot
    :func:`verify_opening` so the exact offending slot is blamed with
    the exact error it always produced.

    Soundness: each slot's cheap checks (hash commitment, ranges) run
    unconditionally; the per-slot Pedersen equations
    ``C_j == h^{s_j}·u^{r_j}`` are combined with independent 128-bit
    DRBG weights ``z_j`` (fixed only after the openings are) into

        ``Π C_j^{z_j} == h^{Σ z_j·s_j} · u^{Σ z_j·r_j}   (mod p)``

    which holds for dishonest openings with probability ≤ 2^−128
    (Schwartz–Zippel in the prime-order subgroup — the ``C_j`` were
    membership-checked at ``validate_structure`` time).
    """
    if len(openings) < 2:
        return False
    group = resolve_group(commitments.group_name)
    q = group.subgroup_order
    try:
        checked = [
            (slot, opening, *_checked_scalar(commitments, slot, opening, weights))
            for slot, opening in openings
        ]
    except MaskVerificationError:
        return False
    size = group.element_size
    transcript_parts = [commitments.root()]
    for slot, opening, scalar, point in checked:
        transcript_parts.append(slot.to_bytes(4, "big"))
        transcript_parts.append(opening.salt)
        transcript_parts.append(scalar.to_bytes(size, "big"))
        transcript_parts.append(opening.randomizer.to_bytes(size, "big"))
    transcript = hash_items("pedersen-batch-openings", transcript_parts)
    scalars = group_ops.batch_scalars(transcript, len(checked))
    s_combined = 0
    r_combined = 0
    for (slot, opening, scalar, point), z in zip(checked, scalars):
        s_combined = (s_combined + z * scalar) % q
        r_combined = (r_combined + z * opening.randomizer) % q
    h, u = pedersen_generators(group)
    lhs = (
        group.power(h, s_combined) * group.power(u, r_combined)
    ) % group.prime
    rhs = group_ops.multi_power(
        group.prime, [point for _, _, _, point in checked], scalars
    )
    return lhs == rhs


def commit_masks(
    group: DHGroup,
    round_id: int,
    masks: Sequence[Sequence[int]],
    modulus_bits: int,
    rng: HmacDrbg,
) -> tuple[MaskCommitmentSet, tuple[MaskOpening, ...]]:
    """Commit a round's mask family; returns the set and per-slot openings.

    The honest-blinder path: the provisioner calls this the moment a
    round's masks are sampled, publishes the set, and delivers each
    opening (mask + salt + randomizer) to its slot's recipient.
    """
    if not masks:
        raise ConfigurationError("cannot commit an empty mask family")
    salts = [rng.generate(SALT_SIZE) for _ in range(len(masks))]
    randomizers = [rng.randint(group.subgroup_order) for _ in range(len(masks))]
    return _commit_with(group, round_id, masks, modulus_bits, salts, randomizers)


def recommit_masks(
    group: DHGroup,
    round_id: int,
    masks: Sequence[Sequence[int]],
    modulus_bits: int,
    openings: Sequence[MaskOpening],
) -> MaskCommitmentSet:
    """Rebuild the exact commitment set from durable openings.

    A restarted blinding service must republish byte-identical
    commitments — the engine already holds the originals from round open —
    so the sealed round state carries the openings and this function
    recomputes the set from them deterministically.
    """
    salts = [opening.salt for opening in openings]
    randomizers = [opening.randomizer for opening in openings]
    commitments, _ = _commit_with(
        group, round_id, masks, modulus_bits, salts, randomizers
    )
    return commitments


def _commit_with(
    group: DHGroup,
    round_id: int,
    masks: Sequence[Sequence[int]],
    modulus_bits: int,
    salts: Sequence[bytes],
    randomizers: Sequence[int],
) -> tuple[MaskCommitmentSet, tuple[MaskOpening, ...]]:
    num_slots = len(masks)
    vector_length = len(masks[0])
    q = group.subgroup_order
    limbs = _limbs_per_word(modulus_bits)
    hash_commitments = tuple(
        hash_commitment(round_id, slot, masks[slot], salts[slot])
        for slot in range(num_slots)
    )
    # Limb-column sums in one pass per limb: shift/mask the whole
    # slots × length matrix and sum down the slot axis.  Each column sum
    # is < num_slots · 2^16, far inside uint64, so the accumulation is
    # exact — bit-identical to the per-word scalar loop.
    limb_sums = kernels.limb_column_sums(masks, limbs, LIMB_BITS)
    columns = [
        tuple(int(limb_sums[l][i]) for l in range(limbs))
        for i in range(vector_length)
    ]
    partial = MaskCommitmentSet(
        round_id=round_id,
        num_slots=num_slots,
        vector_length=vector_length,
        modulus_bits=modulus_bits,
        group_name=group.name,
        hash_commitments=hash_commitments,
        points=(),
        column_sums=tuple(columns),
        randomizer_sum=0,
    )
    h, u = pedersen_generators(group)
    weights = partial.weights()
    points = []
    for slot in range(num_slots):
        scalar = scalar_for_mask(partial, masks[slot], weights)
        points.append(
            (group.power(h, scalar) * group.power(u, randomizers[slot]))
            % group.prime
        )
    commitments = MaskCommitmentSet(
        round_id=round_id,
        num_slots=num_slots,
        vector_length=vector_length,
        modulus_bits=modulus_bits,
        group_name=group.name,
        hash_commitments=hash_commitments,
        points=tuple(points),
        column_sums=tuple(columns),
        randomizer_sum=sum(randomizers) % q,
    )
    openings = tuple(
        MaskOpening(
            mask=tuple(int(v) for v in masks[slot]),
            salt=salts[slot],
            randomizer=randomizers[slot],
        )
        for slot in range(num_slots)
    )
    return commitments, openings


# Mask delivery wire format --------------------------------------------------
#
#   u32 length | length × u64 mask words | 32-byte salt | u16 rlen | r bytes
#
# The opening travels *inside* the authenticated provisioning ciphertext;
# this framing just makes truncation/extension unambiguous.


def encode_mask_payload(opening: MaskOpening) -> bytes:
    r_bytes = opening.randomizer.to_bytes(
        (opening.randomizer.bit_length() + 7) // 8 or 1, "big"
    )
    return b"".join(
        [
            len(opening.mask).to_bytes(4, "big"),
            kernels.be_words_to_bytes(opening.mask),
            opening.salt,
            len(r_bytes).to_bytes(2, "big"),
            r_bytes,
        ]
    )


def decode_mask_payload(payload: bytes) -> MaskOpening:
    if len(payload) < 4:
        raise MaskVerificationError("mask payload truncated")
    length = int.from_bytes(payload[:4], "big")
    offset = 4
    need = 8 * length + SALT_SIZE + 2
    if len(payload) < offset + need:
        raise MaskVerificationError("mask payload truncated")
    mask = kernels.bytes_to_be_words(payload[offset : offset + 8 * length])
    offset += 8 * length
    salt = payload[offset : offset + SALT_SIZE]
    offset += SALT_SIZE
    r_len = int.from_bytes(payload[offset : offset + 2], "big")
    offset += 2
    if len(payload) != offset + r_len:
        raise MaskVerificationError("mask payload has trailing or missing bytes")
    randomizer = int.from_bytes(payload[offset : offset + r_len], "big")
    return MaskOpening(mask=mask, salt=salt, randomizer=randomizer)
