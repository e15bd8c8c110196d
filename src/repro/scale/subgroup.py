"""Deterministic subgroup planning for hierarchical sum-zero aggregation.

A million-client cohort cannot afford the flat §3 mask graph: sampling,
sealing, and repairing masks all touch O(n) state at once.  The
hierarchical path partitions the cohort's *slots* into subgroups of
bounded size ``g`` and samples an independent sum-zero family inside
each subgroup.  Every subgroup sums to zero, so the whole cohort still
sums to zero — the aggregate is bit-identical to the flat construction
for any grouping — while mask materialization and §3 dropout repair
shrink from O(n) to O(g).

The plan is a pure function of ``(round_id, num_slots, group_size)``:
slot keys come from one bulk :class:`~repro.crypto.drbg.HmacDrbg`
expansion seeded by the round id (the same keyed-but-reproducible idea
as :func:`repro.scale.shard.shard_of`), the slots are permuted by a
stable argsort of those keys, and the permutation is chunked into
``⌊n / g⌋`` contiguous groups of ``g`` slots plus one of the remainder —
a remainder of one joins the last full group instead, so no subgroup is
a single slot (whose mask would be the zero vector).  Any party —
blinder, service, engine, auditor — recomputes the identical plan
without coordination, and a client's subgroup rotates round to round so
no subgroup is a stable linkability anchor.

Everything is numpy-backed (one ``int64`` permutation array plus its
inverse) so a u1M plan costs ~16 MB, not a million Python tuples.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError


def _slot_keys(round_id: int, num_slots: int) -> np.ndarray:
    """One uint64 permutation key per slot, reproducible from the round id."""
    rng = HmacDrbg(
        b"glimmer-subgroup:" + int(round_id).to_bytes(8, "big", signed=False),
        personalization="subgroup-plan",
    )
    return rng.uint64_vector(num_slots)


class SubgroupPlan:
    """The frozen grouping of one round's slots into bounded subgroups."""

    __slots__ = ("round_id", "num_slots", "group_size", "num_groups", "order", "position")

    def __init__(
        self, round_id: int, num_slots: int, group_size: int, order: np.ndarray
    ) -> None:
        self.round_id = round_id
        self.num_slots = num_slots
        self.group_size = group_size
        #: Full groups, plus one for a remainder of two or more slots; a
        #: remainder of one belongs to the last full group.
        self.num_groups = num_slots // group_size + (num_slots % group_size > 1)
        #: Permutation of ``range(num_slots)``; group ``g`` owns the
        #: contiguous block ``order[g*group_size : (g+1)*group_size]``, the
        #: last group everything from its start on.
        self.order = order
        #: The inverse permutation: ``position[slot]`` is the slot's index
        #: in ``order``, so its subgroup is ``position // group_size``
        #: (capped at the last group) and its place inside that subgroup
        #: ``position - group·group_size``.
        self.position = np.empty(num_slots, dtype=np.int64)
        self.position[order] = np.arange(num_slots, dtype=np.int64)

    def _position(self, slot: int) -> int:
        if not 0 <= slot < self.num_slots:
            raise ConfigurationError(
                f"slot {slot} outside the round's {self.num_slots} slots"
            )
        return int(self.position[slot])

    def group_of(self, slot: int) -> int:
        return min(self._position(slot) // self.group_size, self.num_groups - 1)

    def slots_in(self, group: int) -> tuple[int, ...]:
        """The slot indices of one subgroup, in permutation order."""
        if not 0 <= group < self.num_groups:
            raise ConfigurationError(
                f"subgroup {group} outside the plan's {self.num_groups} groups"
            )
        start = group * self.group_size
        stop = self.num_slots if group == self.num_groups - 1 else start + self.group_size
        return tuple(int(s) for s in self.order[start:stop])

    def local_index(self, slot: int) -> int:
        """A slot's position inside its own subgroup's mask family (O(1))."""
        return self._position(slot) - self.group_of(slot) * self.group_size

    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Every subgroup's slot tuple (test/inspection helper; O(n))."""
        return tuple(self.slots_in(g) for g in range(self.num_groups))


def plan_subgroups(round_id: int, num_slots: int, group_size: int) -> SubgroupPlan:
    """Partition a round's slots into DRBG-keyed subgroups of about g slots.

    The permutation is a stable argsort of per-slot uint64 keys (ties —
    vanishingly rare — break by slot index, keeping the plan fully
    deterministic), chunked into contiguous blocks.  ``group_size`` is
    clamped to ``[min(2, n), n]``: a subgroup of one slot has the zero
    vector for its mask, so its blinded payload — and the service's
    partial sum for it — would be that device's plaintext.  Every block
    holds ``group_size`` slots; a remainder of two or more is one more
    block, and a remainder of one joins the last block (``group_size + 1``).
    """
    if num_slots < 1:
        raise ConfigurationError("num_slots must be >= 1")
    if group_size < 1:
        raise ConfigurationError("group_size must be >= 1")
    group_size = max(min(group_size, num_slots), min(2, num_slots))
    keys = _slot_keys(round_id, num_slots)
    order = np.argsort(keys, kind="stable").astype(np.int64)
    return SubgroupPlan(round_id, num_slots, group_size, order)
