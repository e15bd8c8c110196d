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
  ``w[i][l]``, read mod ``q`` from one XOF stream keyed by ``root``
  (:func:`challenge_weights`), exist, so they cannot be solved for
  afterwards;
* per-slot Pedersen points ``C_j = h^{s_j}·u^{r_j}`` with
  ``s_j = Σ_{i,l} w[i][l]·limb_l(m_{j,i}) mod q``;
* the randomizer sum ``R = Σ_j r_j mod q``.

Verification splits three ways:

1. **Structural** (engine, at open): recompute ``root``, range-check every
   ``T[i][l] < N·2^16``, and check per component
   ``Σ_l 2^{16l}·T[i][l] ≡ 0 (mod 2^64)`` — the sum-zero *claim*.
2. **Per-slot opening** (each recipient Glimmer at install; the engine at
   dropout reveal): the delivered share — a seed, or the last slot's
   words — is expanded to its mask, ``HC_j`` matches ``(mask, salt)`` and
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

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro import codec
from repro.codec import (
    LENGTH, PARTIES, ROUND_ID, SLOT, Bytes, Element, Named, Packed, Scalar, TupleOf, wire,
)
from repro.crypto import group_ops
from repro.crypto.dh import GROUPS, DHGroup
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_bytes, hash_items, hash_to_int
from repro.crypto.masking import MaskShare
from repro.errors import ConfigurationError, MaskVerificationError, ProtocolViolation
from repro.perf import kernels

LIMB_BITS = 16
SALT_SIZE = 32
#: Domain tag of the SHAKE256 stream the challenge weights are read from.
_WEIGHT_STREAM_TAG = b"mask-commitment-weight"

def resolve_group(name: str) -> DHGroup:
    """Look up a shipped group by wire name (commitment sets carry names)."""
    group = GROUPS.get(name)
    if group is None:
        raise ConfigurationError(f"unknown commitment group {name!r}")
    return group


#: Limbs per 64-bit mask word.
LIMBS = 64 // LIMB_BITS
#: The root's header hashes the ring's width, 64, as a 2-byte field.  It is
#: a constant, not a field of the set, so no blinder declares the ring its
#: claims are audited in.
_RING_WIDTH_FIELD = (64).to_bytes(2, "big")


#: Width of one weight digit: a weight ``< q`` is held as its 32-bit digits.
_DIGIT_BITS = 32
#: Terms per ``uint64`` dot.  A digit times a 16-bit limb is below 2^48,
#: and 2^14 such products sum below 2^62, so no chunk's sum can wrap.
_DOT_CHUNK = 1 << 14
#: Weights :func:`challenge_weights` turns into digit columns at a time.
_WEIGHT_CHUNK = 1 << 11


def weight_digits(weights: Sequence[int], q: int) -> np.ndarray:
    """Weights in ``[0, q)`` as a ``(digits, len(weights))`` ``uint64`` matrix.

    Row ``d`` holds every weight's ``d``-th 32-bit digit, least
    significant first: two rows for the 63-bit test group, 24 for Oakley.
    """
    rows = _digit_rows(q)
    packed = b"".join([weight.to_bytes(4 * rows, "little") for weight in weights])
    digits = np.frombuffer(packed, dtype="<u4").reshape(len(weights), rows)
    return digits.T.astype(np.uint64, order="C")


def _digit_rows(q: int) -> int:
    return (q.bit_length() + _DIGIT_BITS - 1) // _DIGIT_BITS


def _digit_dot(digits: np.ndarray, values: np.ndarray) -> int:
    """``Σ_t w_t·values_t`` as an exact integer, for ``values_t < 2^16``.

    One ``uint64`` dot per digit row and :data:`_DOT_CHUNK` terms, each
    exact; the per-digit totals are recombined as Python integers.
    """
    totals = [0] * len(digits)
    for start in range(0, values.size, _DOT_CHUNK):
        stop = start + _DOT_CHUNK
        partial = (digits[:, start:stop] @ values[start:stop]).tolist()
        totals = [total + part for total, part in zip(totals, partial)]
    return sum(total << (_DIGIT_BITS * d) for d, total in enumerate(totals))


def _limb_matrix(words: np.ndarray) -> np.ndarray:
    """``[i][l]`` = ``limb_l(words[i])``: the 16-bit limbs, one row per word."""
    shifts = np.uint64(LIMB_BITS) * np.arange(LIMBS, dtype=np.uint64)
    return (words[:, None] >> shifts) & np.uint64((1 << LIMB_BITS) - 1)


def _weighted_limb_sum(
    mask: Sequence[int] | np.ndarray | bytes, weights: np.ndarray, q: int
) -> int:
    """``Σ_{i,l} weights[i][l]·limb_l(mask[i]) mod q``.

    ``weights`` is the :func:`weight_digits` matrix, row-major in
    ``(i, l)`` like the limbs; the dot is exact and reduced once — the
    same residue as the scalar twin
    (``weighted_limb_sum_scalar``, in the parity tests' ``reference``
    module).
    """
    return _digit_dot(weights, _limb_matrix(kernels.as_ring(mask)).ravel()) % q


def _sum_zero_target(column_sums: bytes, weights: np.ndarray, q: int) -> int:
    """``Σ_{i,l} weights[i][l]·T[i][l] mod q`` over the packed u64 claims.

    Each claim is split into its four 16-bit limbs, so every dot is a limb
    dot and the target is exact for any u64 claim.
    """
    pieces = _limb_matrix(kernels.as_ring(column_sums))
    return sum(
        _digit_dot(weights, pieces[:, p]) << (LIMB_BITS * p)
        for p in range(pieces.shape[1])
    ) % q


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
    round_id: int, slot: int, mask: Sequence[int] | bytes, salt: bytes
) -> bytes:
    """The binding per-slot commitment ``HC_j``.

    The mask is hashed as one contiguous buffer of big-endian words
    (:func:`repro.perf.kernels.be_words_to_bytes`; a packed mask already
    is one), so hashing makes a single pass.
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


@wire(0x8105, share=MaskShare, salt=Bytes(SALT_SIZE), randomizer=Scalar(), group=Named(GROUPS))
@dataclass(frozen=True)
class MaskOpening:
    """What a slot's recipient gets: the mask's share plus its commitment
    opening.

    ``share`` is the slot's :class:`~repro.crypto.masking.MaskShare`: its
    32-byte seed, or a subgroup's last slot's words.  The opening crosses
    to a Glimmer inside :func:`encode_mask_payload` and to the engine as a
    dropout reveal.  Its holder expands the share once, in
    :func:`verify_opening`, which returns the row it checked; the engine
    adds a verified reveal's row into the one repair vector
    ``FinalizeRound`` carries.  ``group`` is the commitments' group, which
    the randomizer is spelled in on the wire.
    """

    share: MaskShare
    salt: bytes
    randomizer: int
    group: DHGroup | None = None


@wire(
    0x8106, round_id=ROUND_ID, slot=SLOT, num_slots=PARTIES, vector_length=LENGTH,
    group=Named(GROUPS), root=Bytes(32), hash_commitment=Bytes(32), point=Element(),
)
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
    group: DHGroup
    root: bytes
    hash_commitment: bytes
    point: int

    group_name = property(lambda self: self.group.name)


@wire(
    0x8107, round_id=ROUND_ID, num_slots=PARTIES, vector_length=LENGTH, group=Named(GROUPS),
    hash_commitments=TupleOf(Bytes(32)), points=TupleOf(Element()), column_sums=Packed(),
    randomizer_sum=Scalar(),
)
@dataclass(frozen=True)
class MaskCommitmentSet:
    """Everything the blinding service publishes when a round opens."""

    round_id: int
    num_slots: int
    vector_length: int
    group: DHGroup
    hash_commitments: tuple[bytes, ...]
    points: tuple[int, ...]
    column_sums: bytes
    """The claimed limb-column sums, packed: big-endian u64 word
    ``i·limbs + l`` is the integer sum over slots of limb ``l`` of
    component ``i``."""
    randomizer_sum: int

    group_name = property(lambda self: self.group.name)

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
        header = [
            self.round_id.to_bytes(8, "big"),
            self.num_slots.to_bytes(4, "big"),
            self.vector_length.to_bytes(4, "big"),
            _RING_WIDTH_FIELD,
            self.group_name.encode("ascii"),
        ]
        # Each of the k·limbs column claims is an 8-byte item; framed in one
        # buffer as (length 8, value) big-endian pairs, the digest is the
        # one per-item framing gives (``reference.commitment_root_scalar``).
        claims = kernels.as_ring(self.column_sums)
        framed = np.full((claims.size, 2), 8, dtype=kernels.BE_U64)
        framed[:, 1] = claims
        root = hash_items(
            "mask-commitment-root",
            [*header, *self.hash_commitments],
            framed=framed.tobytes(),
        )
        object.__setattr__(self, "_root_memo", root)
        return root

    def weights(self, root: bytes | None = None) -> np.ndarray:
        """Fiat-Shamir challenge weight per limb column, ``mod q``, as the
        :func:`weight_digits` matrix."""
        return challenge_weights(
            self.root() if root is None else root, self.group_name, self.vector_length
        )

    def record_for(self, slot: int) -> MaskCommitmentRecord:
        return MaskCommitmentRecord(
            round_id=self.round_id,
            slot=slot,
            num_slots=self.num_slots,
            vector_length=self.vector_length,
            group=self.group,
            root=self.root(),
            hash_commitment=self.hash_commitments[slot],
            point=self.points[slot],
        )

    # ---------------------------------------------------------- verification

    def validate_structure(
        self, *, round_id: int, num_slots: int, vector_length: int
    ) -> None:
        """Structural + sum-zero-claim checks (engine, at round open),
        against the round the engine opened: its id, slots and length."""
        if self.round_id != round_id:
            raise MaskVerificationError(
                f"commitment set names round {self.round_id}, expected {round_id}"
            )
        if self.num_slots != num_slots:
            raise MaskVerificationError(
                f"commitment set has {self.num_slots} slots, expected {num_slots}"
            )
        if self.vector_length != vector_length:
            raise MaskVerificationError(
                f"commitment set is over length {self.vector_length}, "
                f"expected {vector_length}"
            )
        group = self.group
        column_cap = self.num_slots * ((1 << LIMB_BITS) - 1)
        if 2 * (column_cap + 1) >= group.subgroup_order:
            raise MaskVerificationError(
                "group order too small for sound limb commitments at this scale"
            )
        if len(self.hash_commitments) != self.num_slots or len(self.points) != (
            self.num_slots
        ):
            raise MaskVerificationError("commitment set has the wrong slot count")
        if len(self.column_sums) != 8 * self.vector_length * LIMBS:
            raise MaskVerificationError("commitment set has the wrong column count")
        self._audit_column_sums(column_cap)

    def _audit_column_sums(self, column_cap: int) -> None:
        """Vectorized sum-zero audit over the claimed limb-column sums.

        Range-checks every ``T[i][l]`` and verifies per component
        ``Σ_l 2^{16l}·T[i][l] ≡ 0 (mod 2^64)``.  The weighted totals are
        accumulated in ``uint64``, whose wraparound is exactly the
        reduction mod ``2^64``, so the result matches the
        arbitrary-precision scalar check bit for bit.
        """
        claimed = kernels.as_ring(self.column_sums).reshape(-1, LIMBS)
        in_range = claimed <= np.uint64(column_cap)
        if not in_range.all():
            i, l = (int(v) for v in np.argwhere(~in_range)[0])
            raise MaskVerificationError(
                f"claimed column sum out of range at component {i} limb {l}"
            )
        shifts = (np.uint64(LIMB_BITS) * np.arange(LIMBS, dtype=np.uint64))
        totals = (claimed << shifts).sum(axis=1, dtype=np.uint64)
        if totals.any():
            i = int(np.flatnonzero(totals)[0])
            raise MaskVerificationError(
                f"claimed column sums violate sum-zero at component {i}"
            )

    def verify_sum_zero(self) -> None:
        """The homomorphic check: ``Π C_j ≡ h^{Σ w·T} · u^R`` (finalize)."""
        group = self.group
        q = group.subgroup_order
        h, u = pedersen_generators(group)
        target = _sum_zero_target(self.column_sums, self.weights(), q)
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
def challenge_weights(root: bytes, group_name: str, vector_length: int) -> np.ndarray:
    """The ``w[i][l]`` table for one commitment root.

    Every weight comes from one stream, ``SHAKE256(b"mask-commitment-weight"
    ‖ root)``: weight ``t = i·limbs + l`` is the stream's ``t``-th chunk
    of ``⌈(|q| + 128) / 8⌉`` bytes, read big-endian, mod ``q`` — 128 bits
    of headroom over ``q``, so the modular bias is negligible.  Held once,
    as the read-only :func:`weight_digits` matrix with column ``t``.  Pure
    in its arguments, so the table is derived once per round and shared
    by every consumer — the set-level :meth:`MaskCommitmentSet.weights`,
    the per-slot record path Glimmers verify against at install, and the
    engine's dropout-repair sweep.
    """
    q = resolve_group(group_name).subgroup_order
    width = (q.bit_length() + 128 + 7) // 8
    count = vector_length * LIMBS
    stream = hashlib.shake_256(_WEIGHT_STREAM_TAG + root).digest(width * count)
    # Filled _WEIGHT_CHUNK columns at a time: the Python ints and bytes a
    # column costs on its way to digits stay bounded, not k·limbs of them.
    digits = np.empty((_digit_rows(q), count), dtype=np.uint64)
    for start in range(0, count, _WEIGHT_CHUNK):
        stop = min(start + _WEIGHT_CHUNK, count)
        digits[:, start:stop] = weight_digits(
            [
                int.from_bytes(stream[at : at + width], "big") % q
                for at in range(width * start, width * stop, width)
            ],
            q,
        )
    digits.flags.writeable = False
    return digits


def scalar_for_mask(
    commitments: MaskCommitmentSet,
    mask: Sequence[int] | bytes,
    weights: np.ndarray | None = None,
) -> int:
    """``s_j = Σ_{i,l} w[i][l]·limb_l(mask_i) mod q`` for one slot's mask.

    Pass precomputed ``weights`` when verifying many slots of one round —
    deriving them costs one hash per limb column.
    """
    return _weighted_limb_sum(
        mask,
        commitments.weights() if weights is None else weights,
        commitments.group.subgroup_order,
    )


def _checked_scalar(
    commitments: MaskCommitmentSet | MaskCommitmentRecord,
    slot: int,
    opening: MaskOpening,
    weights: np.ndarray | None = None,
) -> tuple[int, int, bytes]:
    """All the cheap per-slot opening checks; ``(scalar, committed point,
    row)``, the row being the share expanded once, as the checks read it.

    Shape and hash commitment are checked here, the randomizer's range at
    decode (raising :class:`~repro.errors.MaskVerificationError`); the
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
    share = opening.share
    if type(share) is not MaskShare:
        raise MaskVerificationError(
            f"slot {slot}: share is a {type(share).__name__}, not a mask share"
        )
    if share.length != set_like.vector_length:
        raise MaskVerificationError(
            f"slot {slot}: a share of {share.length} words does not match "
            f"the committed vector length {set_like.vector_length}"
        )
    try:
        mask = share.row()
    except MaskVerificationError as exc:
        raise MaskVerificationError(f"slot {slot}: {exc}") from None
    if hash_commitment(set_like.round_id, slot, mask, opening.salt) != expected_hc:
        raise MaskVerificationError(
            f"slot {slot}: delivered mask does not match its hash commitment"
        )
    group = set_like.group
    if isinstance(set_like, MaskCommitmentRecord):
        weights = challenge_weights(
            set_like.root, set_like.group_name, set_like.vector_length
        )
    elif weights is None:
        weights = set_like.weights()
    scalar = _weighted_limb_sum(kernels.be_words(mask), weights, group.subgroup_order)
    return scalar, point, mask


def verify_opening(
    commitments: MaskCommitmentSet | MaskCommitmentRecord,
    slot: int,
    opening: MaskOpening,
    weights: np.ndarray | None = None,
) -> bytes:
    """Check one slot's delivered mask against the round commitments, and
    return the mask as the packed row the check expanded.

    Works from the full set (engine, at reveal) or from a single-slot
    record (Glimmer, at install).  Raises
    :class:`~repro.errors.MaskVerificationError` on any mismatch.
    """
    scalar, point, mask = _checked_scalar(commitments, slot, opening, weights)
    set_like = commitments
    group = set_like.group
    h, u = pedersen_generators(group)
    expected = (
        group.power(h, scalar) * group.power(u, opening.randomizer)
    ) % group.prime
    if expected != point:
        raise MaskVerificationError(
            f"slot {slot}: delivered mask does not match its Pedersen commitment"
        )
    return mask


def batch_verify_openings(
    commitments: MaskCommitmentSet,
    openings: Sequence[tuple[int, MaskOpening]],
    weights: np.ndarray | None = None,
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
    membership-checked as the set was decoded).
    """
    if len(openings) < 2:
        return False
    group = commitments.group
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
    for slot, opening, scalar, point, _ in checked:
        transcript_parts.append(slot.to_bytes(4, "big"))
        transcript_parts.append(opening.salt)
        transcript_parts.append(scalar.to_bytes(size, "big"))
        transcript_parts.append(opening.randomizer.to_bytes(size, "big"))
    transcript = hash_items("pedersen-batch-openings", transcript_parts)
    scalars = group_ops.batch_scalars(transcript, len(checked))
    s_combined = 0
    r_combined = 0
    for (slot, opening, scalar, point, _), z in zip(checked, scalars):
        s_combined = (s_combined + z * scalar) % q
        r_combined = (r_combined + z * opening.randomizer) % q
    h, u = pedersen_generators(group)
    lhs = (
        group.power(h, s_combined) * group.power(u, r_combined)
    ) % group.prime
    rhs = group_ops.multi_power(
        group.prime, [point for _, _, _, point, _ in checked], scalars
    )
    return lhs == rhs


def commit_masks(
    group: DHGroup,
    round_id: int,
    shares: Sequence[MaskShare],
    rng: HmacDrbg,
) -> tuple[MaskCommitmentSet, tuple[MaskOpening, ...]]:
    """Commit a round's mask family; returns the set and per-slot openings.

    The honest-blinder path: the provisioner calls this the moment a
    round's masks are sampled, publishes the set, and delivers each
    opening (share + salt + randomizer) to its slot's recipient.
    """
    if not shares:
        raise ConfigurationError("cannot commit an empty mask family")
    salts = [rng.generate(SALT_SIZE) for _ in range(len(shares))]
    randomizers = [rng.randint(group.subgroup_order) for _ in range(len(shares))]
    commitments = _commit_with(group, round_id, shares, salts, randomizers)
    openings = tuple(
        MaskOpening(share, salt, randomizer, group)
        for share, salt, randomizer in zip(shares, salts, randomizers)
    )
    return commitments, openings


def recommit_masks(
    group: DHGroup,
    round_id: int,
    shares: Sequence[MaskShare],
    openings: Sequence[MaskOpening],
) -> MaskCommitmentSet:
    """Rebuild the exact commitment set from known openings.

    Deterministic in its arguments: the same shares and openings give the
    byte-identical set :func:`commit_masks` published when it drew them.
    """
    salts = [opening.salt for opening in openings]
    randomizers = [opening.randomizer for opening in openings]
    return _commit_with(group, round_id, shares, salts, randomizers)


def _commit_with(
    group: DHGroup,
    round_id: int,
    shares: Sequence[MaskShare],
    salts: Sequence[bytes],
    randomizers: Sequence[int],
) -> MaskCommitmentSet:
    # One slot at a time: a row is expanded from its share, hashed into
    # its slot's commitment and folded into the limb-column sums, then
    # dropped.  The sums fix the root, the root the weights; a second pass
    # expands each row again for its scalar.  So a round's commit holds
    # one row, never the family.
    num_slots = len(shares)
    q = group.subgroup_order
    hash_commitments = []
    limb_sums = None
    for slot, share in enumerate(shares):
        row = share.row()
        words = kernels.be_words(row)
        if limb_sums is None:
            limb_sums = np.zeros((words.size, LIMBS), dtype=np.uint64)
        elif words.size != limb_sums.shape[0]:
            raise ConfigurationError("a mask family's rows differ in length")
        hash_commitments.append(hash_commitment(round_id, slot, row, salts[slot]))
        # Each column sum is < num_slots · 2^16, far inside uint64, so the
        # accumulation is exact — bit-identical to the per-word scalar loop.
        limb_sums += _limb_matrix(words)
    vector_length = limb_sums.shape[0]
    hash_commitments = tuple(hash_commitments)
    columns = limb_sums.astype(kernels.BE_U64).tobytes()
    partial = MaskCommitmentSet(
        round_id=round_id,
        num_slots=num_slots,
        vector_length=vector_length,
        group=group,
        hash_commitments=hash_commitments,
        points=(),
        column_sums=columns,
        randomizer_sum=0,
    )
    h, u = pedersen_generators(group)
    weights = partial.weights()
    points = []
    for share, randomizer in zip(shares, randomizers):
        scalar = scalar_for_mask(partial, share.row(), weights)
        points.append(
            (group.power(h, scalar) * group.power(u, randomizer)) % group.prime
        )
    return MaskCommitmentSet(
        round_id=round_id,
        num_slots=num_slots,
        vector_length=vector_length,
        group=group,
        hash_commitments=hash_commitments,
        points=tuple(points),
        column_sums=columns,
        randomizer_sum=sum(randomizers) % q,
    )


def encode_mask_payload(opening: MaskOpening) -> bytes:
    """The opening's frame, as it travels inside the delivery's ciphertext."""
    return codec.encode(opening)


def decode_mask_payload(payload: bytes) -> MaskOpening:
    """The opening a delivery carries; :class:`MaskVerificationError` (the
    blinder's fault) for a payload that is not one."""
    try:
        return codec.decode(payload, MaskOpening)
    except ProtocolViolation as exc:
        raise MaskVerificationError(f"malformed mask payload: {exc.detail}") from None
