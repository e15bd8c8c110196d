"""Flat-vs-hierarchical parity: subgroup aggregation must be bit-exact.

Per-subgroup sum-zero families each telescope to zero, and the ring sum
is associative, so for *any* subgroup size the hierarchical aggregate
must equal the flat one word for word — `np.array_equal`, no tolerance.
What the streaming path legitimately gives up is per-row hindsight: a
streamed round's service result carries no replayable accepted payloads,
so the payload-level assertions of ``tests/scale/test_parity.py`` are
replaced by aggregate/outcome/telemetry equality here.

Fallback tests assert *full* report equality — a round the hierarchy
gate rejects must run the flat serial path itself, not a lookalike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import Deployment
from repro.scale import RoutePlan, ScaleConfig, plan_subgroups

from tests.scale.test_routing import route_of

_SEED = b"subgroup-parity"


def _build(subgroup_size=0, num_users=12, seed=_SEED, **kwargs):
    parallelism = (
        ScaleConfig(subgroup_size=subgroup_size) if subgroup_size else None
    )
    return Deployment.build(
        num_users=num_users, seed=seed, parallelism=parallelism, **kwargs
    )


def _run(deployment, round_id=1, **round_kwargs):
    users = [u.user_id for u in deployment.corpus.users]
    vectors = deployment.local_vectors()
    with deployment.engine as engine:
        return engine.run_round(
            round_id, users, vectors, deployment.features.bigrams, **round_kwargs
        )


def _assert_bit_exact(flat, hierarchical):
    assert np.array_equal(flat.aggregate, hierarchical.aggregate)
    assert flat.outcomes == hierarchical.outcomes
    assert flat.ecalls == hierarchical.ecalls
    # Cycle meters match bucket for bucket except boundary copies: the
    # hierarchical open carries the subgroup size through the enclave
    # boundary and the grouped families draw different (equally valid)
    # mask words whose serialized size differs.  Every compute bucket
    # (attestation, masking, aggregation, ...) must be identical.
    flat_cycles = dict(flat.enclave_cycles)
    hier_cycles = dict(hierarchical.enclave_cycles)
    flat_cycles.pop("boundary-copies", None)
    hier_cycles.pop("boundary-copies", None)
    assert flat_cycles == hier_cycles
    assert flat.masks_repaired == hierarchical.masks_repaired
    assert flat.num_contributions == hierarchical.num_contributions
    assert flat.rejected == hierarchical.rejected
    assert flat.quarantined == hierarchical.quarantined
    assert flat.violations == hierarchical.violations


def _assert_identical_reports(flat, hierarchical):
    """Fallback parity: the whole report, transport telemetry included."""
    _assert_bit_exact(flat, hierarchical)
    assert flat.enclave_cycles == hierarchical.enclave_cycles
    assert flat.messages_sent == hierarchical.messages_sent
    assert flat.bytes_on_wire == hierarchical.bytes_on_wire
    assert flat.latency_ms == hierarchical.latency_ms
    assert flat.retries == hierarchical.retries
    assert flat.phases == hierarchical.phases
    assert hierarchical.subgroup_size == 0
    assert hierarchical.subgroups_aggregated == 0
    assert hierarchical.submissions_streamed == 0


@pytest.mark.parametrize("subgroup_size", [1, 7, 12, 64])
def test_honest_round_parity(subgroup_size):
    flat = _run(_build())
    hierarchical = _run(_build(subgroup_size=subgroup_size))
    _assert_bit_exact(flat, hierarchical)
    # The hierarchical path actually engaged and streamed every payload.
    clamped = min(max(subgroup_size, 2), 12)
    assert hierarchical.subgroup_size == clamped
    assert hierarchical.subgroups_aggregated == -(-12 // clamped)
    assert hierarchical.submissions_streamed == 12
    assert flat.subgroup_size == 0
    assert flat.submissions_streamed == 0


def _dropout_users(pattern, users, subgroup_size, round_id=1):
    """Deterministic dropout sets that stress subgroup structure."""
    plan = plan_subgroups(round_id, len(users), subgroup_size)
    if pattern == "whole_subgroup":
        # Every slot of one subgroup: its folded repairs telescope to the
        # group's full mask sum, i.e. exactly zero.
        return tuple(users[slot] for slot in plan.slots_in(0))
    if pattern == "boundary":
        # Last slot of one group and first of the next: repairs land in
        # two different families.
        slots = [plan.slots_in(0)[-1]]
        if plan.num_groups > 1:
            slots.append(plan.slots_in(1)[0])
        return tuple(users[slot] for slot in slots)
    if pattern == "scattered":
        return tuple(users[::3])
    raise AssertionError(pattern)


@pytest.mark.parametrize(
    ("subgroup_size", "pattern"),
    [
        (1, "scattered"),  # g = 1 clamps to 2: no group is a single slot
        (5, "whole_subgroup"),  # one group drops out entirely
        (7, "boundary"),  # uneven split (7 + 5), repairs straddle it
        (12, "scattered"),  # g == n: single group, the flat mask graph
    ],
)
def test_dropout_parity(subgroup_size, pattern):
    users = [u.user_id for u in _build().corpus.users]
    dropped = _dropout_users(pattern, users, subgroup_size)
    kwargs = dict(collect_dropouts=dropped)
    flat = _run(_build(), **kwargs)
    hierarchical = _run(_build(subgroup_size=subgroup_size), **kwargs)
    _assert_bit_exact(flat, hierarchical)
    assert hierarchical.masks_repaired == len(dropped)
    plan = plan_subgroups(1, len(users), subgroup_size)
    touched = {plan.group_of(users.index(u)) for u in dropped}
    assert hierarchical.subgroup_dropout_repairs == len(touched)


@pytest.mark.parametrize("subgroup_size", [1, 7])
def test_provision_dropout_parity(subgroup_size):
    users = [u.user_id for u in _build().corpus.users]
    kwargs = dict(dropouts=(users[2],), collect_dropouts=(users[5], users[9]))
    flat = _run(_build(), **kwargs)
    hierarchical = _run(_build(subgroup_size=subgroup_size), **kwargs)
    _assert_bit_exact(flat, hierarchical)
    assert hierarchical.masks_repaired == 3


def test_streamed_round_releases_payloads():
    """The service keeps no replayable accepted set for a streamed round."""
    hierarchical = _run(_build(subgroup_size=4))
    assert hierarchical.submissions_streamed == 12
    assert tuple(hierarchical.service_result.accepted) == ()
    # The aggregate still decodes: streaming lost the rows, not the sum.
    assert hierarchical.aggregate is not None
    assert hierarchical.num_contributions == 12


def test_byzantine_round_falls_back_to_flat():
    """A malicious client disqualifies the round; blame is identical."""

    def build_with_attacker(subgroup_size=0):
        parallelism = (
            ScaleConfig(subgroup_size=subgroup_size) if subgroup_size else None
        )
        deployment = Deployment.build(
            num_users=8,
            seed=_SEED,
            parallelism=parallelism,
            provision_clients=False,
        )
        attacker = deployment.corpus.users[2].user_id
        for user in deployment.corpus.users:
            deployment.make_client(
                user.user_id, malicious=user.user_id == attacker
            )
        return deployment

    flat = _run(build_with_attacker())
    routed = build_with_attacker(subgroup_size=4)
    assert route_of(routed).reason == "non_stock_party"
    hierarchical = _run(routed)
    _assert_identical_reports(flat, hierarchical)


def test_quarantined_participant_falls_back_identically():
    """Quarantine history (possible eviction) routes the round flat."""
    from repro.runtime.messages import client_endpoint
    from repro.runtime.protocol import VIOLATION_FLOODING

    def run_with_quarantine(deployment):
        target = deployment.corpus.users[3].user_id
        deployment.engine.monitor.record(
            0, client_endpoint(target), VIOLATION_FLOODING, "test"
        )
        for violation in deployment.engine.monitor.violations_for(0):
            deployment.engine.quarantine.block(violation)
        return _run(deployment)

    flat = run_with_quarantine(_build(num_users=8))
    routed = _build(subgroup_size=4, num_users=8)
    assert route_of(routed) == RoutePlan(subgroup_size=4)
    hierarchical = run_with_quarantine(routed)
    # Quarantine trims participants before the gate, and the survivors
    # are stock clients — the hierarchical path may lawfully engage; the
    # aggregate and the quarantine verdicts must be identical either way.
    _assert_bit_exact(flat, hierarchical)
    quarantined_user = flat.participants[3]
    assert flat.outcomes[quarantined_user] == "quarantined"
    assert (
        hierarchical.outcomes[quarantined_user] == flat.outcomes[quarantined_user]
    )
