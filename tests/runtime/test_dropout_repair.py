"""§3 dropout repair is bit-for-bit exact, across seeds and dropout timing.

Two timings matter and they exercise different machinery:

* ``provision`` dropouts never fetch a mask — their slots are unconsumed
  and never held a delivered mask, so repair reveals a mask nobody saw;
* ``collect`` dropouts complete provisioning (their Glimmer holds a live
  mask) and then go silent — the canonical §3 case where the blinding
  service "can disclose the sums of the blinding values from
  non-submitting parties".

In both cases the finalized aggregate must equal the fixed-point mean
over exactly the submitting cohort — not approximately: the ring
arithmetic in :mod:`repro.crypto.fixedpoint` cancels masks exactly, so
the test uses ``np.array_equal``, no tolerance.
"""

import numpy as np
import pytest

from repro.experiments.common import Deployment
from repro.invariants import exact_mean
from repro.runtime.telemetry import OUTCOME_ACCEPTED, OUTCOME_DROPOUT

SEEDS = (b"repair-seed-1", b"repair-seed-2", b"repair-seed-3")

# (pattern name, dropout slot indices)
PATTERNS = (
    ("provision-single", (0,)),
    ("provision-pair", (1, 3)),
    ("collect-single", (2,)),
    ("collect-pair", (0, 4)),
    ("mixed", (1, 2)),
)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("pattern,indices", PATTERNS, ids=[p[0] for p in PATTERNS])
def test_dropout_repair_is_bit_exact(seed, pattern, indices):
    deployment = Deployment.build(
        num_users=5, seed=seed, sentences_per_user=12
    )
    user_ids = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    dropped = [user_ids[i] for i in indices]
    if pattern.startswith("provision"):
        provision_dropouts, collect_dropouts = dropped, []
    elif pattern.startswith("collect"):
        provision_dropouts, collect_dropouts = [], dropped
    else:
        provision_dropouts, collect_dropouts = dropped[:1], dropped[1:]
    report = deployment.engine.run_round(
        1,
        user_ids,
        vectors,
        deployment.features.bigrams,
        dropouts=provision_dropouts,
        collect_dropouts=collect_dropouts,
        recovery_threshold=0.5,
    )
    survivors = [u for u in user_ids if u not in dropped]
    assert report.masks_repaired == len(dropped)
    assert [u for u in user_ids if report.outcomes[u] == OUTCOME_DROPOUT] == dropped
    assert report.survivors == tuple(survivors)
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, survivors)
    )


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_collect_dropout_consumed_a_provisioned_mask(seed):
    """Collect-time dropouts really did provision: the §3 reveal case."""
    deployment = Deployment.build(num_users=4, seed=seed, sentences_per_user=12)
    user_ids = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    silent = user_ids[1]
    report = deployment.engine.run_round(
        1,
        user_ids,
        vectors,
        deployment.features.bigrams,
        collect_dropouts=[silent],
    )
    # The silent party held a live mask for the round (it provisioned),
    # yet the aggregate is exact over the others: its mask was revealed
    # and cancelled, not left to poison the sum.
    assert report.outcomes[silent] == OUTCOME_DROPOUT
    assert report.masks_repaired == 1
    survivors = [u for u in user_ids if u != silent]
    assert set(report.outcomes[u] for u in survivors) == {OUTCOME_ACCEPTED}
    assert np.array_equal(
        np.asarray(report.aggregate), exact_mean(deployment.codec, vectors, survivors)
    )
