"""Round routing, and the worker-pool executor for provision and collect.

:func:`plan_route` is the one place a round's path is chosen; the
engine's :meth:`~repro.runtime.engine.RoundEngine.round_stages` consults
it once and runs the same skeleton on every route.
:func:`run_parallel_round` is what the pool changes about that skeleton:
the provision and collect phases fanned out over the engine's worker
pool.  The contract is bit-exactness: everything order-sensitive runs in
the parent, in serial slot order —

* the blinding service draws every slot's delivery leg itself *before*
  dispatch, so its random stream and session cache see exactly what the
  serial path shows them;
* quote screening, protocol-monitor bookkeeping, service admission, and
  outcome recording happen *after* dispatch, in a merge that walks slots
  in ascending order regardless of which worker finished first;
* finalize is the engine's own :meth:`finalize_round`, which for a pool
  plan swaps the service's flat ring sum for a :class:`ShardedRingReducer`
  and feeds the sum-zero audit the merged per-shard partial point
  products — both associative folds, so the aggregate and the audit
  verdict are the same integers the serial path computes.

Eligibility is deliberately narrow: any fault injector, network
adversary, deadline, claim, plaintext round, or subclassed participant
routes the round to the serial bus path.  That is what makes chaos and
Byzantine replays trivially parity-safe — under those conditions the
scale engine *is* the serial engine.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

from repro.core.client import ClientDevice
from repro.core.glimmer import BLINDING_MASK_CONTEXT
from repro.core.provisioning import BlinderProvisioner, _verify_bound_quote
from repro.core.service import CloudService
from repro.errors import ProtocolViolation
from repro.runtime.endpoints import ClientEndpoint
from repro.runtime.messages import client_endpoint
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_CRASHED,
    OUTCOME_DROPOUT,
    OUTCOME_SERVICE_REJECTED,
)
from repro.scale.config import RoutePlan, ScaleConfig
from repro.scale.pool import ClientTask, WorkerContext
from repro.scale.shard import shard_of


def plan_route(
    engine,
    config: ScaleConfig | None,
    *,
    participants: Sequence[str],
    blind: bool,
    deadline_ms,
    phase_deadlines_ms,
    claims_by_user,
    context_fields: Sequence[str],
    adaptive=None,
) -> RoutePlan:
    """Choose this round's executor and accumulator, and say what blocked.

    ``config`` is what the engine wants; the plan is what the round gets.
    Anything that makes outcomes depend on fine-grained event
    interleaving — injected faults, adversarial middleboxes, simulated
    deadlines, link weather — or that runs code the worker task and the
    streaming service do not model — claims, private-context ocalls,
    plaintext rounds, subclassed parties — blocks both fast paths, and
    is tested here and nowhere else (table: DESIGN.md "Round routing").
    A blocked round runs the serial flat path unchanged, so the answer
    is a pure routing choice, never a behavioral one.
    """
    if config is None or not (config.enabled or config.hierarchical):
        return RoutePlan()
    clients = [engine.clients.get(user_id) for user_id in participants]
    blockers = (
        ("plaintext", not blind),
        # Deadline enforcement may evict an accepted-but-late submission;
        # a folded payload cannot be evicted.
        ("deadlines", deadline_ms is not None or bool(phase_deadlines_ms)),
        ("claims", bool(claims_by_user)),
        ("context_fields", bool(tuple(context_fields))),
        (
            "fault_injector",
            engine.fault_injector is not None
            or getattr(engine.network, "fault_injector", None) is not None
            or any(
                client is not None
                and getattr(client.platform, "fault_injector", None) is not None
                for client in clients
            ),
        ),
        ("network_adversary", bool(getattr(engine.network, "_adversaries", ()))),
        # Wrapped services and blinders (Byzantine actors, recorders) lie
        # in ways only the flat audit trail exposes; subclassed clients
        # and attacker endpoints can draw violations that end in eviction.
        (
            "non_stock_party",
            type(engine.service) is not CloudService
            or type(engine.blinder_provisioner) is not BlinderProvisioner
            or any(type(client) is not ClientDevice for client in clients)
            or any(
                type(engine.client_endpoints.get(user_id)) is not ClientEndpoint
                for user_id in participants
            ),
        ),
        # Adaptive deadlines and link-conditions trimming both observe
        # per-operation timing on the bus, which neither fast path exposes.
        ("adaptive_deadlines", adaptive is not None),
        ("link_conditions", engine.link_conditions is not None),
    )
    reason = next((name for name, holds in blockers if holds), None)
    if reason is not None:
        return RoutePlan(reason=reason)
    return RoutePlan(
        shards=config.shards if config.enabled else 0,
        subgroup_size=config.subgroup_size,
    )


def parallel_eligible(engine, **round_inputs) -> bool:
    """Would nothing keep this round off the worker pool, were one configured?"""
    return plan_route(engine, ScaleConfig(workers=1), **round_inputs).reason is None


def _transplant(live, worked) -> None:
    """Adopt the worker-mutated client state into the parent's instance.

    The parent's object identity is load-bearing — bus endpoints, the
    engine's client registry, and the round record's ``joined`` map all
    hold references to it — so the worker's copy never replaces it; its
    ``__dict__`` does.
    """
    if live is worked:
        return
    state = dict(worked.__dict__)
    live.__dict__.clear()
    live.__dict__.update(state)


def run_parallel_round(
    engine,
    record,
    participants: Sequence[str],
    values_by_user: Mapping[str, Sequence[float]],
    features: Sequence,
    *,
    quarantined: set,
    dropouts: set,
    collect_dropouts: set,
) -> None:
    """Provision and collect an opened round's cohort on the worker pool.

    Everything else about the round is :meth:`RoundEngine.round_stages`';
    the module docstring says where the order-sensitive work stays serial.
    """
    round_id = record.round_id
    provisioner = engine.blinder_provisioner

    # ------------------------------------------------ provision: pre-draw
    engine._start_phase(record, "provision")
    tasks: list[ClientTask] = []
    for index, user_id in enumerate(participants):
        if user_id in quarantined:
            continue
        if user_id in dropouts:
            record.outcomes[user_id] = OUTCOME_DROPOUT
            continue
        client = engine.clients[user_id]
        engine.note_client_join(record, client)
        leg = provisioner._draw_leg(
            client.platform.platform_id, BLINDING_MASK_CONTEXT
        )
        opening = provisioner.mask_opening(round_id, index)
        commitment = record.commitments.record_for(index)
        contribute = user_id not in collect_dropouts
        tasks.append(
            ClientTask(
                slot=index,
                user_id=user_id,
                client=client,
                values=(
                    tuple(float(v) for v in values_by_user[user_id])
                    if contribute
                    else None
                ),
                leg=leg,
                opening=opening,
                commitment=commitment,
            )
        )

    # ------------------------------------------------------- dispatch
    shards = record.route.shards
    chunk_size = engine.parallelism.chunk_size
    shard_groups: list[list[ClientTask]] = [[] for _ in range(shards)]
    for task in tasks:
        shard_groups[shard_of(round_id, task.user_id, shards)].append(task)
    chunks: list[list[ClientTask]] = []
    for group in shard_groups:
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start : start + chunk_size])
    context = WorkerContext(
        round_id=round_id,
        identity=provisioner.identity,
        signing_public=engine.signing_public,
        features=features,
    )
    dispatched = engine.scale_pool().map_chunks(context, chunks) if chunks else ()
    results = {result.slot: result for chunk in dispatched for result in chunk}

    # -------------------------------------------- provision: merge (slot order)
    expected = provisioner.registry.approved_measurement(provisioner.glimmer_name)
    for task in tasks:
        result = results[task.slot]
        live = engine.clients[task.user_id]
        _transplant(live, result.client)
        record.joined[task.user_id] = live
        # The quote was minted inside our own worker fork, so it is
        # screened rather than verified.
        _verify_bound_quote(
            provisioner.attestation,
            result.quote,
            expected,
            result.glimmer_dh_public,
            screen=True,
        )
        record.ecalls += result.provision_ecalls
        if result.mask_error is not None:
            raise engine._abort_on_bad_mask(record, result.mask_error)
        if result.unopened:
            # This Glimmer restarted since its session was established: the
            # slot runs on the bus, where the driver evicts and re-establishes.
            engine.provision_mask(task.user_id, round_id, task.slot)
            continue
        provisioner._keep_leg(
            live.platform.platform_id,
            BLINDING_MASK_CONTEXT,
            task.leg,
            result.delivery_key,
        )
        record.provisioned[task.slot] = task.user_id

    # ---------------------------------------------- collect: merge (slot order)
    engine._start_phase(record, "collect")
    for task in tasks:
        user_id = task.user_id
        if task.values is None:
            record.outcomes[user_id] = OUTCOME_DROPOUT
            continue
        result = results[task.slot]
        if result.unopened:
            engine.contribute(user_id, round_id, values_by_user[user_id], features)
            continue
        record.ecalls += result.contribute_ecalls
        if result.outcome == OUTCOME_CRASHED:
            record.outcomes[user_id] = OUTCOME_CRASHED
            engine._recover_and_retry_contribute(
                record,
                user_id,
                partial(
                    engine.contribute, user_id, round_id, values_by_user[user_id], features
                ),
            )
            continue
        if result.outcome is not None:  # validation-rejected in the worker
            record.outcomes[user_id] = result.outcome
            continue
        # Every accepted signature is verified exactly once — here in the
        # worker (``verified``) or by the service — so the finalize audit
        # of a pool round does not re-verify them serially.
        try:
            accepted = engine._service_endpoint.admit(
                round_id,
                client_endpoint(user_id),
                task.slot,
                result.signed,
                verified=result.signature_ok,
            )
        except ProtocolViolation:
            # Recorded by the monitor; to the sender it is a rejection,
            # exactly as submit_signed treats it.
            accepted = False
        if accepted:
            engine._note_slot_consumed(record, task.slot, result.signed)
            engine.clients[user_id].discard_checkpoint(round_id)
            record.outcomes[user_id] = OUTCOME_ACCEPTED
        else:
            record.outcomes[user_id] = OUTCOME_SERVICE_REJECTED
