"""Round routing, and the worker-pool executor for provision and collect.

:func:`plan_route` is the one place a round's path is chosen; the
engine's :meth:`~repro.runtime.engine.RoundEngine.round_stages` consults
it once and runs the same skeleton on every route.
:func:`run_parallel_round` is what the pool changes about that skeleton:
the provision and collect phases fanned out over the engine's worker
pool.  The contract is bit-exactness: everything order-sensitive runs in
the parent, in serial slot order —

* the blinding service draws every slot's delivery leg itself *before*
  dispatch, so its random stream and session table see exactly what the
  serial path shows them;
* quote screening, protocol-monitor bookkeeping, service admission, and
  outcome recording happen *after* dispatch, in a merge that walks slots
  in ascending order regardless of which worker finished first;
* finalize is the engine's own :meth:`finalize_round`, which for a pool
  plan swaps the service's flat ring sum for a :class:`ShardedRingReducer`
  — an associative fold, so the aggregate is the same integers the
  serial path computes.

What a device does is not this module's to decide: workers run the
provision and sign steps of :mod:`repro.runtime.endpoints`, the merge
runs its submit step with :meth:`ServiceEndpoint.admit` plugged in, and
a slot a worker could not serve (a Glimmer that is down, or holds no key
for an in-session delivery, or crashed while signing) is recovered on
the bus by the engine's own ``_recover``.  A worker *process* that dies
breaks the executor: the round aborts (benign, no offender), the pool is
dropped, and the next round forks a fresh one — never a silent rerun.

Eligibility is deliberately narrow: any fault injector, network
adversary, subclassed participant, adaptive deadline or link-condition
oracle routes the round to the serial bus path.  That is what makes
chaos and Byzantine replays trivially parity-safe — under those
conditions the scale engine *is* the serial engine.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

from concurrent.futures import BrokenExecutor

from repro.core.client import ClientDevice
from repro.core.glimmer import features_digest
from repro.core.provisioning import BlinderProvisioner, _verify_bound_quote
from repro.core.service import CloudService
from repro.errors import (
    AttestationError,
    ConfigurationError,
    EnclaveError,
    MaskVerificationError,
    ProtocolViolation,
)
from repro.perf import kernels
from repro.runtime import messages as m
from repro.runtime.endpoints import ClientEndpoint, submit_step
from repro.runtime.messages import client_endpoint
from repro.runtime.telemetry import OUTCOME_CRASHED, OUTCOME_DROPOUT
from repro.scale.config import RoutePlan, ScaleConfig
from repro.scale.pool import ClientTask, WorkerContext
from repro.scale.shard import plan_shards


def plan_route(
    engine,
    config: ScaleConfig | None,
    *,
    participants: Sequence[str],
    adaptive=None,
) -> RoutePlan:
    """Choose this round's executor and accumulator, and say what blocked.

    ``config`` is what the engine wants; the plan is what the round gets.
    Anything that makes outcomes depend on fine-grained event
    interleaving — injected faults, adversarial middleboxes, adaptive
    deadlines, link weather — or that runs code the worker task and the
    streaming service do not model — subclassed parties — blocks both
    fast paths, and is tested here and nowhere else (table: DESIGN.md
    "Round routing").
    A blocked round runs the serial flat path unchanged, so the answer
    is a pure routing choice, never a behavioral one.
    """
    if config is None or not (config.enabled or config.hierarchical):
        return RoutePlan()
    clients = [engine.clients.get(user_id) for user_id in participants]
    blockers = (
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
        # per-operation timing on the bus, which neither fast path exposes;
        # a deadline may also evict an accepted-but-late submission, and a
        # folded payload cannot be evicted.
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


#: Round inputs rounds no longer have, at the one value every round has.
_RETIRED_ROUND_INPUTS = {
    "blind": True,
    "deadline_ms": None,
    "phase_deadlines_ms": {},
    "claims_by_user": None,
    "context_fields": (),
}


def parallel_eligible(engine, *, participants, adaptive=None, **retired) -> bool:
    """Would nothing keep this round off the worker pool, were one configured?"""
    # Compat: benchmarks/roundbench/workloads.py still spells out the five
    # retired round inputs.  They are accepted at the values every round now
    # has and refused at any other; ROADMAP item 2 deletes this view.
    for name, value in retired.items():
        expected = _RETIRED_ROUND_INPUTS.get(name)
        if (
            name not in _RETIRED_ROUND_INPUTS
            or type(value) is not type(expected)
            or value != expected
        ):
            raise ConfigurationError(
                f"round input {name}={value!r} is gone: every round is "
                "blinded, and its only deadline is adaptive"
            )
    plan = plan_route(
        engine, ScaleConfig(workers=1), participants=participants, adaptive=adaptive
    )
    return plan.reason is None


def _draw_leg(provisioner, client):
    """The slot's leg, drawn as the serial round's requests would draw it:
    in the device's live session, or — when it has none, or the blinder
    refuses it — a fresh keypair, and the host forgets the refused one."""
    try:
        return provisioner._draw_leg(client.mask_session)
    except AttestationError:
        client.mask_session = None
        return provisioner._draw_leg(None)


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
    tasks: dict[int, ClientTask] = {}
    for index, user_id in enumerate(participants):
        if user_id in quarantined:
            continue
        if user_id in dropouts:
            record.outcomes[user_id] = OUTCOME_DROPOUT
            continue
        client = engine.clients[user_id]
        engine.note_client_join(record, client)
        tasks[index] = ClientTask(
            client=client,
            provision=m.ProvisionMask(
                round_id, index, record.commitments.record_for(index)
            ),
            contribute=(
                None
                if user_id in collect_dropouts
                else m.ContributeCommand(
                    round_id,
                    kernels.be_doubles_to_bytes(values_by_user[user_id]),
                    features,
                    features_digest(features),
                )
            ),
            leg=_draw_leg(provisioner, client),
            opening=provisioner.mask_opening(round_id, index),
        )

    # ------------------------------------------------------- dispatch
    chunk_size = engine.parallelism.chunk_size
    chunks: list[list[ClientTask]] = []
    for shard in plan_shards(round_id, participants, record.route.shards):
        group = [tasks[slot] for slot in shard if slot in tasks]
        for start in range(0, len(group), chunk_size):
            chunks.append(group[start : start + chunk_size])
    context = WorkerContext(
        identity=provisioner.identity, signing_public=engine.signing_public
    )
    try:
        dispatched = engine.scale_pool().map_chunks(context, chunks) if chunks else ()
    except BrokenExecutor as exc:
        # A worker died under the round (OOM kill, signal), which takes the
        # whole executor with it: drop the pool so the next round forks a
        # fresh one, and abort — the parent's clients are untouched, but
        # the blinder's draws are spent, so the round cannot be rerun.
        engine.close_scale_pool()
        raise engine._abort(record, f"the worker pool broke under the round: {exc}")
    results = {result.slot: result for chunk in dispatched for result in chunk}

    # -------------------------------------------- provision: merge (slot order)
    expected = provisioner.registry.approved_measurement(provisioner.glimmer_name)
    for slot, task in tasks.items():
        result = results[slot]
        user_id = task.client.client_id
        live = engine.clients[user_id]
        _transplant(live, result.client)
        record.joined[user_id] = live
        record.ecalls += result.ecalls
        provision = partial(engine.provision_mask, user_id, round_id, slot)
        if isinstance(result.error, EnclaveError):
            # This Glimmer was down when the round reached it: restart it
            # from sealed state and run the slot on the bus, as the bus
            # path does for a device that dies mid-provision.
            if not engine._recover(record, user_id, provision):
                record.outcomes[user_id] = OUTCOME_CRASHED
            continue
        if result.session is not None:
            # A full leg's quote was minted inside our own worker fork, so
            # it is screened rather than verified; then the blinder keeps
            # the session, as it does the moment it seals on the bus.
            screened = _verify_bound_quote(
                partial(provisioner.sessions.verify, screen=True),
                result.quote,
                expected,
                result.glimmer_dh_public,
            )
            provisioner.sessions.open_session(*result.session, screened)
        if isinstance(result.error, MaskVerificationError):
            raise engine._abort_on_bad_mask(record, str(result.error))
        if result.error is not None:
            # This Glimmer restarted since its session was opened: the slot
            # runs on the bus, where the host re-attests in full.
            provision()
            continue
        record.provisioned[slot] = user_id

    # ---------------------------------------------- collect: merge (slot order)
    engine._start_phase(record, "collect")

    def admit(slot: int, result) -> bool:
        # Every accepted signature is verified exactly once — in the worker
        # (``verified``) or by the service — so the finalize audit of a
        # pool round does not re-verify them serially.
        try:
            accepted = engine._service_endpoint.admit(
                round_id,
                client_endpoint(result.client.client_id),
                slot,
                result.signed,
                verified=result.signature_ok,
            )
        except ProtocolViolation:
            # Recorded by the monitor; to the sender it is a rejection,
            # exactly as submit_signed treats it.
            return False
        if accepted:
            engine._note_slot_consumed(record, slot, result.signed)
        return accepted

    for slot, task in tasks.items():
        user_id = task.client.client_id
        if task.contribute is None:
            record.outcomes[user_id] = OUTCOME_DROPOUT
            continue
        if record.outcomes.get(user_id) == OUTCOME_CRASHED:
            continue  # could not be restarted for provisioning
        result = results[slot]
        contribute = partial(
            engine.contribute, user_id, round_id, values_by_user[user_id], features
        )
        if result.error is not None:
            outcome = contribute()  # provisioned on the bus, so it collects there
        else:
            outcome, _detail = result.outcome or submit_step(
                engine.clients[user_id], round_id, partial(admit, slot, result)
            )
            record.outcomes[user_id] = outcome
        if outcome == OUTCOME_CRASHED:
            engine._recover(record, user_id, contribute)
