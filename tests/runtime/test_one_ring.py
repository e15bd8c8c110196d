"""One ring: a blinder cannot pick the ring it is audited in.

Every mask, commitment and sum lives in ``Z/2^64``.  A blinder whose
family sums to zero only in a narrower ring — every word below ``2^32``,
each column a multiple of ``2^32`` — publishes honest commitments over
it, and the engine's sum-zero audit at open refuses them: the round
aborts before any client is provisioned, with the blinder blamed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import invariants
from repro.crypto import masking
from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.perf import kernels
from repro.runtime.protocol import VIOLATION_MASK_COMMITMENT

_LOW_32 = np.uint64(0xFFFFFFFF)


class _NarrowRingMasks(masking.GroupedSumZeroMasks):
    """Each subgroup's family sums to zero mod ``2^32`` and not mod ``2^64``."""

    def group_family(self, group: int) -> masking.SumZeroMasks:
        shares = super().group_family(group).shares
        rows = kernels.as_ring_rows([share.row() for share in shares]) & _LOW_32
        rows[-1] = (np.uint64(0) - rows[:-1].sum(axis=0, dtype=np.uint64)) & _LOW_32
        return masking.SumZeroMasks(
            tuple(
                masking.MaskShare(self.length, words=kernels.be_words_to_bytes(row))
                for row in rows
            )
        )


def test_a_blinder_sampling_a_narrow_ring_family_aborts_the_round_at_open(monkeypatch):
    deployment = Deployment.build(num_users=6, seed=b"ring-attack")
    monkeypatch.setattr(masking, "GroupedSumZeroMasks", _NarrowRingMasks)
    users = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    with pytest.raises(RoundAbortedError) as aborted:
        deployment.engine.run_round(1, users, vectors, deployment.features.bigrams)
    report = aborted.value.report
    assert [(v.offender, v.kind) for v in report.violations] == [
        ("blinder", VIOLATION_MASK_COMMITMENT)
    ]
    assert "claimed column sums violate sum-zero at component 0" in (
        report.violations[0].detail
    )
    verdict = invariants.judge(aborted.value, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_DETECTED_ABORT
    assert verdict.offenders == ("blinder",)
