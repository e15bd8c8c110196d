"""One round state at the cloud service: every blinded round folds at admission.

A flat round is the one-group accumulator plus its signed trail; a
streamed round plans groups of ``g`` and keeps no trail.  Either way the
finalized aggregate must be the same integers as recomputing the ring sum
over what was counted (plus the §3 repairs), and the exact fixed-point
mean over the contributors that count — with or without a sharded
reducer merging the partials, and across quarantine eviction.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.common import Deployment
from repro.invariants import exact_mean
from repro.perf import kernels
from repro.scale import RoutePlan, ShardedRingReducer

USERS = 5
ROUTES = {"flat": RoutePlan(), "streamed": RoutePlan(subgroup_size=2)}
EVICTED, SILENT = 1, 3  # slot indices


def _open(route):
    """Round 1, provisioned on ``route``, and every user's signed contribution."""
    deployment = Deployment.build(
        num_users=USERS, seed=b"service-round-state", sentences_per_user=8
    )
    users = [user.user_id for user in deployment.corpus.users]
    vectors = deployment.local_vectors()
    features = deployment.features.bigrams
    deployment.engine.open_round(1, USERS, len(features), route=ROUTES[route])
    for slot, user_id in enumerate(users):
        deployment.engine.provision_mask(user_id, 1, slot)
    signed = [
        deployment.clients[user_id].contribute(1, vectors[user_id], features)
        for user_id in users
    ]
    return deployment, users, vectors, signed


def _ring_mean(codec, rows, count):
    """The aggregate recomputed from scratch: ring sum, decode, divide."""
    total = kernels.ring_sum_rows(
        np.stack([kernels.as_ring(row, codec.modulus_bits) for row in rows]),
        codec.modulus_bits,
    )
    return codec.decode(total) / count


@pytest.mark.parametrize("reducer", [None, 3], ids=["flat-sum", "sharded-3"])
@pytest.mark.parametrize("case", ["honest", "evict", "evict-and-dropout"])
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_finalize_equals_recomputation_and_exact_mean(route, case, reducer):
    deployment, users, vectors, signed = _open(route)
    service = deployment.service
    blinder = deployment.blinder_provisioner
    if reducer is not None:
        service.aggregation_reducer = ShardedRingReducer(reducer)
    silent = {SILENT} if case == "evict-and-dropout" else set()
    for slot, contribution in enumerate(signed):
        if slot not in silent:
            assert service.submit(1, contribution, slot=slot)
    state = service.round_state(1)
    assert state.accumulator.folded == USERS - len(silent)
    assert len(state.accepted) == (0 if route == "streamed" else state.accumulator.folded)

    repaired = set(silent)
    if case != "honest":
        evicted = service.evict_nonce(1, signed[EVICTED].nonce)
        # Only a flat round keeps the trail that eviction needs.
        assert evicted == (route == "flat")
        if evicted:
            repaired.add(EVICTED)
            assert state.rejected == {"evicted-by-quarantine": 1}
            assert signed[EVICTED].nonce in state.seen_nonces
            assert not service.submit(1, signed[EVICTED], slot=EVICTED)
    counted = [slot for slot in range(USERS) if slot not in repaired]
    assert list(state.counted) == [signed[slot].nonce for slot in counted]

    masks = [blinder.reveal_dropout_mask(1, slot) for slot in sorted(repaired)]
    result = service.finalize_blinded_round(1, masks)
    codec = deployment.codec
    rows = [signed[slot].ring_payload for slot in counted]
    rows += [opening.mask for opening in masks]
    assert np.array_equal(result.aggregate, _ring_mean(codec, rows, len(counted)))
    assert np.array_equal(
        result.aggregate, exact_mean(codec, vectors, [users[s] for s in counted])
    )
    assert result.num_contributions == len(counted)
    assert result.num_dropouts_repaired == len(masks)
    trail = [c.nonce for c in result.accepted]
    assert trail == ([] if route == "streamed" else list(state.counted))
    # A retransmitted finalize gets the same result, not a second repair.
    assert service.finalize_blinded_round(1, masks) is result


def test_streamed_eviction_is_refused_and_leaves_the_total():
    deployment, _users, _vectors, signed = _open("streamed")
    service = deployment.service
    for slot, contribution in enumerate(signed):
        assert service.submit(1, contribution, slot=slot)
    accumulator = service.round_state(1).accumulator
    before = accumulator.partials()
    assert service.evict_nonce(1, signed[EVICTED].nonce) is False
    assert np.array_equal(accumulator.partials(), before)
    assert accumulator.folded == USERS
    assert service.round_state(1).rejected == {}


def test_mismatched_length_is_rejected_at_admission():
    deployment, _users, _vectors, signed = _open("flat")
    service = deployment.service
    assert service.submit(1, signed[0], slot=0)
    short = replace(signed[1], ring_payload=signed[1].ring_payload[:-1])
    assert not service.submit_verified(1, short, slot=1)
    assert service.round_state(1).rejected == {"malformed-payload": 1}
    assert service.submit(1, signed[1], slot=1)
