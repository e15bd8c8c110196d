"""Kill-and-restart durability, on every storage backend.

The invariant under test: a service rebuilt over the same backend
resumes from the persisted journal and sealed checkpoints and finishes
every interrupted round **without double-counting a submission**, and a
replayed round's aggregate is bit-exact against an uninterrupted twin
run of the identical service.
"""

from __future__ import annotations

import pytest

from repro.codec import MAX_ROUND_ID
from repro.errors import RoundIdsExhaustedError
from repro.network.adversary import EavesdropAdversary
from repro.runtime.wire import KINDS
from repro.service.queue import STATE_APPLIED, STATE_PENDING
from repro.service.service import GlimmerService
from repro.service.storage import SealedBlobMap, build_backend

USERS = 4


def _service(backend, **kwargs):
    kwargs.setdefault("num_users", USERS)
    kwargs.setdefault("sentences_per_user", 4)
    return GlimmerService(backend, **kwargs)


def _submit_all(service, tenant="alpha"):
    runtime = service.tenants.get(tenant) or service.add_tenant(tenant)
    for user in sorted(runtime.deployment.clients):
        service.submit_honest(tenant, user)


def _open_without_driving(service, tenant="alpha", limit=None):
    """Open a round up to the crash point: journaled + assigned."""
    runtime = service.tenant(tenant)
    batch = runtime.queue.take(limit)
    round_id = service._allocate_round_id()
    submission_ids = [entry["submission_id"] for entry in batch]
    service.journal.round_opened(
        round_id,
        tenant,
        [entry["user_id"] for entry in batch],
        submission_ids,
        {entry["user_id"]: list(entry["values"]) for entry in batch},
    )
    runtime.queue.mark_assigned(submission_ids, round_id)
    return round_id, submission_ids


def _twin_aggregate():
    """The same round on an identical, uninterrupted service."""
    with _service(build_backend("memory")) as twin:
        _submit_all(twin)
        (report,) = twin.run_pending_sync()
        return report.as_dict()["aggregate"], report.round_id


def test_crash_before_drive_resumes_bit_exact(backend_factory):
    crashed = _service(backend_factory())
    _submit_all(crashed)
    round_id, submission_ids = _open_without_driving(crashed)
    crashed.close()  # process dies before any protocol message is answered

    recovered = GlimmerService.recover(backend_factory())
    with recovered:
        assert [e["round_id"] for e in recovered.journal.unfinished()] == [round_id]
        (report,) = recovered.resume_sync()
        assert report.round_id == round_id, "replay keeps the original id"
        twin_aggregate, twin_round_id = _twin_aggregate()
        assert twin_round_id == round_id
        assert report.as_dict()["aggregate"] == twin_aggregate
        # Exactly-once: every submission applied, nothing left to run.
        queue = recovered.tenant("alpha").queue
        for sid in submission_ids:
            assert queue.state_of(sid) == STATE_APPLIED
        assert recovered.run_pending_sync() == []
        assert recovered.journal.unfinished() == []
        assert [e["event"] for e in recovered.audit.trail(round_id=round_id)][
            -2:
        ] == ["round-replayed", "round-finalized"]
        recovered.audit.verify_chain()


def test_crash_in_the_journal_queue_gap_settles_without_replay(backend_factory):
    crashed = _service(backend_factory())
    _submit_all(crashed)
    queue = crashed.tenant("alpha").queue
    # Crash between journal.round_finalized and queue.mark_applied: the
    # round ran to completion but the queue never heard.
    real_mark_applied, queue.mark_applied = queue.mark_applied, lambda ids, **kw: None
    (report,) = crashed.run_pending_sync()
    queue.mark_applied = real_mark_applied
    assert queue.assigned_to(report.round_id), "gap state: still assigned"
    crashed.close()

    recovered = GlimmerService.recover(backend_factory())
    with recovered:
        resumed = recovered.resume_sync()
        assert resumed == [], "finalized rounds are settled, never re-run"
        assert recovered.audit.trail(event="round-replayed") == []
        settled = recovered.audit.trail(event="submission-settled")
        assert len(settled) == USERS
        queue = recovered.tenant("alpha").queue
        assert all(
            queue.state_of(e["submission"]) == STATE_APPLIED for e in settled
        )
        assert recovered.run_pending_sync() == []


def test_replaying_the_journal_twice_never_double_applies(backend_factory):
    crashed = _service(backend_factory())
    _submit_all(crashed)
    round_id, submission_ids = _open_without_driving(crashed)
    crashed.close()

    recovered = GlimmerService.recover(backend_factory())
    with recovered:
        (report,) = recovered.resume_sync()
        assert report.round_id == round_id
        # Same process, second resume: the journal is already settled.
        assert recovered.resume_sync() == []
        assert recovered.run_pending_sync() == []
        recovered.close()

    # Third process over the same state: still nothing to replay.
    third = GlimmerService.recover(backend_factory())
    with third:
        assert third.resume_sync() == []
        queue = third.tenant("alpha").queue
        for sid in submission_ids:
            assert queue.state_of(sid) == STATE_APPLIED
        # One finalize per round in the whole journal, ever.
        finalized = [
            e
            for e in third.journal.entries()
            if e.get("status") == "finalized" and e.get("round_id") == round_id
        ]
        assert len(finalized) == 1
        assert len(third.audit.trail(event="round-replayed")) == 1
        third.audit.verify_chain()


def test_an_aborted_replay_does_not_stop_the_others(backend_factory):
    crashed = _service(backend_factory())
    _submit_all(crashed)
    first, first_ids = _open_without_driving(crashed, limit=USERS // 2)
    second, _ = _open_without_driving(crashed)
    crashed.close()

    recovered = GlimmerService.recover(backend_factory())
    with recovered:
        engine = recovered.tenant("alpha").engine
        real = engine.round_stages

        def round_stages(round_id, participants, *args, **kwargs):
            if round_id == first:
                kwargs["dropouts"] = participants  # the replay aborts
            return real(round_id, participants, *args, **kwargs)

        engine.round_stages = round_stages
        (report,) = recovered.resume_sync()
        assert report.round_id == second
        assert recovered.journal.status_of(first) == "aborted"
        assert recovered.journal.unfinished() == []
        assert recovered.rounds_aborted == 1
        # The aborted replay's submissions went back to pending and ride
        # the next round.
        engine.round_stages = real
        (rerun,) = recovered.run_pending_sync()
        assert rerun.num_contributions == len(first_ids)
        queue = recovered.tenant("alpha").queue
        assert all(queue.state_of(sid) == STATE_APPLIED for sid in first_ids)
        recovered.audit.verify_chain()


def _drive_to_open(service, tenant="alpha"):
    """Open one round on the tenant's engine and stop before provisioning."""
    runtime = service.tenant(tenant)
    round_id, _ = _open_without_driving(service, tenant)
    users = sorted(runtime.deployment.clients)
    stages = runtime.engine.round_stages(
        round_id,
        users,
        runtime.deployment.local_vectors(users),
        runtime.deployment.features.bigrams,
    )
    assert next(stages) == "open"
    return round_id, stages


def _drain(stages):
    while True:
        try:
            next(stages)
        except StopIteration as stop:
            return stop.value


def test_sealed_rounds_survive_blinder_crash_via_persistent_store(backend_factory):
    with _service(backend_factory()) as service:
        _submit_all(service)
        round_id, stages = _drive_to_open(service)
        blinder = service.shared_blinder
        assert isinstance(blinder._sealed_rounds, SealedBlobMap)
        # The sealed blob lives in the backend, not the process: a fresh
        # backend handle over the same state sees the open round.
        sealed = SealedBlobMap(backend_factory(), "sealed/blinder")
        assert round_id in sealed
        assert isinstance(sealed[round_id], bytes)
        # A crash mid-round recovers from it and the round still finalizes.
        blinder.crash()
        assert not blinder.has_round(round_id)
        assert blinder.restart() == [round_id]
        assert blinder.has_round(round_id)
        report = _drain(stages)
        assert report.num_contributions == USERS
        # Finalizing retires the round: nothing left to unseal, anywhere.
        assert not blinder.has_round(round_id)
        assert round_id not in blinder._sealed_rounds
        blinder.crash()
        assert blinder.restart() == []
    assert list(SealedBlobMap(backend_factory(), "sealed/blinder")) == []


def test_second_process_continues_round_numbering(backend_factory):
    first = _service(backend_factory())
    _submit_all(first)
    (first_report,) = first.run_pending_sync()
    first.close()

    second = GlimmerService.recover(backend_factory())
    with second:
        _submit_all(second)
        (second_report,) = second.run_pending_sync()
        assert second_report.round_id == first_report.round_id + 1
        # The persistent sealed store holds only what is still open, so
        # neither process's finalized round is left for a restart to find.
        blinder = second.shared_blinder
        assert list(blinder._sealed_rounds) == []
        blinder.crash()
        assert blinder.restart() == []
        assert not blinder.has_round(first_report.round_id)
        assert not blinder.has_round(second_report.round_id)
        # A round the crash catches open is exactly what it does recover.
        _submit_all(second)
        round_id, stages = _drive_to_open(second)
        assert round_id == second_report.round_id + 1
        blinder.crash()
        assert blinder.restart() == [round_id]
        assert _drain(stages).num_contributions == USERS
        assert list(blinder._sealed_rounds) == []


def test_a_service_out_of_round_ids_opens_no_round(backend_factory):
    """Every frame names its round id as a u32.  A store whose counter is
    past the largest refuses to open a round with a typed error before a
    frame is sent, and the batch stays pending; the largest id itself
    opens and finalizes."""
    backend = backend_factory()
    with _service(backend) as service:
        _submit_all(service)
        runtime = service.tenant("alpha")
        eavesdropper = EavesdropAdversary()
        runtime.deployment.network.interpose(eavesdropper)
        backend.put("service", "next-round", MAX_ROUND_ID + 1)
        with pytest.raises(RoundIdsExhaustedError, match=str(MAX_ROUND_ID)):
            service.run_pending_sync()
        assert eavesdropper.captured == []
        assert runtime.queue.count(STATE_PENDING) == USERS
        assert backend.get("service", "next-round") == MAX_ROUND_ID + 1

        backend.put("service", "next-round", MAX_ROUND_ID)
        (report,) = service.run_pending_sync()
        assert report.round_id == MAX_ROUND_ID
        assert report.num_contributions == USERS
        sent = [message.payload for message in eavesdropper.captured if message.kind in KINDS]
        assert sent and {payload.round_id for payload in sent} == {MAX_ROUND_ID}
        _submit_all(service)
        with pytest.raises(RoundIdsExhaustedError):
            service.run_pending_sync()
