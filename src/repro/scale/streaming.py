"""Fold-on-admission ingest: per-subgroup ring accumulators.

Every blinded round at the cloud service folds each admitted submission
into its group's running partial the moment it passes admission — one
``(num_groups, length)`` uint64 matrix plus per-group counters.  A flat
round is the one-group case (``g = n``): its signed trail is kept for
the engine's audit, and quarantine eviction takes a row back out with
``unfold``.  A streamed round plans groups of ``g`` and releases each
raw vector at admission, so its resident state is O(n/g · k),
independent of how many submissions stream past.

A packed row arrives as its words' residues at the round's width (as the
engine opened it: :func:`~repro.crypto.fixedpoint.ring_width`) and folds
zero-extended.  Exactness is structural: ``uint64`` addition
wraps mod ``2^64``, and reduction to the width is a ring homomorphism,
so residues and whole words fold alike (:func:`~repro.perf.kernels.widen`
reads the total back), and ring addition is associative and commutative,
so fold-on-arrival into any partition and a final merge produce the *same integers* as stacking all rows and summing —
the same argument that makes :class:`repro.scale.shard.
ShardedRingReducer` a drop-in.  The merge itself reuses that reducer:
subgroup partials are leaves, the reducer's shard blocks the interior
nodes, the root the cohort total — a two-level parent tree.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.fixedpoint import WHOLE_WORD
from repro.errors import ConfigurationError
from repro.perf import kernels
from repro.scale.subgroup import SubgroupPlan


class StreamingSubgroupAccumulator:
    """Fold ring vectors into per-subgroup partial sums, arrival order."""

    def __init__(
        self, plan: SubgroupPlan, length: int | None = None, width: int = WHOLE_WORD
    ) -> None:
        """``length`` fixes the words a row holds before any row folds;
        ``None`` lets the first row fix it.  ``width`` is the bits a
        packed row's words cross at: the round's."""
        self.plan = plan
        self.width = width
        self._partials: np.ndarray | None = None
        if length is not None:
            self._partials = np.zeros((plan.num_groups, length), dtype=kernels.U64)
        self.group_counts = np.zeros(plan.num_groups, dtype=np.int64)
        self.folded = 0
        self.repairs_folded = 0

    @property
    def length(self) -> int | None:
        return None if self._partials is None else self._partials.shape[1]

    def _row(self, values) -> np.ndarray:
        """A row to fold: packed residues at the round's width (a payload
        that is not their one spelling is a ``ConfigurationError``), or
        words."""
        if isinstance(values, bytes):
            try:
                row = kernels.unpack_words(values, self.width)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
        else:
            row = kernels.as_ring(values)
        if self._partials is None:
            self._partials = np.zeros(
                (self.plan.num_groups, len(row)), dtype=kernels.U64
            )
        elif len(row) != self._partials.shape[1]:
            raise ConfigurationError("vector length mismatch")
        return row

    def _group(self, slot: int | None) -> int:
        """The group a slot's row folds into; one group owns every slot.

        A submission whose sender named no slot folds into group 0 —
        attribution is telemetry, the total is exact either way because
        the merge sums every group.
        """
        if slot is None or self.plan.num_groups == 1:
            return 0
        return self.plan.group_of(slot)

    def fold(self, values, slot: int | None = None) -> int:
        """Fold one submission into its subgroup's partial; returns the group.

        ``slot`` names the mask slot the submission consumes; its
        subgroup comes from the plan.
        """
        group = self._group(slot)
        row = self._row(values)
        # uint64 wrap keeps the running value exact mod 2^64.
        self._partials[group] += row
        self.group_counts[group] += 1
        self.folded += 1
        return group

    def unfold(self, values, slot: int | None = None) -> int:
        """Take a folded submission back out (quarantine eviction).

        Ring addition forms a group, so subtracting the row leaves the
        partial exactly as if it had never been folded.
        """
        group = self._group(slot)
        self._partials[group] -= self._row(values)
        self.group_counts[group] -= 1
        self.folded -= 1
        return group

    def fold_repair(self, mask, slot: int | None = None) -> int:
        """Fold a §3 repair into ``slot``'s subgroup: one dropped slot's
        mask, or (from the service, with no slot) the ring sum of every
        dropped mask, into group 0."""
        group = self._group(slot)
        self._partials[group] += self._row(mask)
        self.repairs_folded += 1
        return group

    def partials(self) -> np.ndarray:
        """A copy of the ``(num_groups, length)`` partial-sum matrix."""
        if self._partials is None:
            raise ConfigurationError("nothing folded yet")
        return self._partials.copy()

    def partial(self, group: int) -> np.ndarray:
        """A copy of one subgroup's partial sum."""
        if self._partials is None:
            raise ConfigurationError("nothing folded yet")
        return self._partials[group].copy()

    def total(self, reducer=None) -> np.ndarray:
        """Merge the subgroup leaves into the cohort total.

        ``reducer`` is any ``callable(matrix) -> row`` —
        the scale layer passes its :class:`~repro.scale.shard.
        ShardedRingReducer` so the partials fold through the same parent
        tree as the flat path's rows; ``None`` merges flat.  Both are
        associative folds, hence bit-identical.
        """
        partials = self.partials()
        if reducer is not None:
            return reducer(partials)
        return kernels.ring_sum_rows(partials)
