"""Overlapping rounds: multi-tenant concurrency, shared blinder, backpressure."""

from __future__ import annotations

import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.service.queue import OVERFLOW_DEFER
from repro.service.service import GlimmerService
from repro.service.storage import build_backend

TENANTS = ("alpha", "beta", "gamma")


def _service(**kwargs):
    kwargs.setdefault("num_users", 4)
    kwargs.setdefault("sentences_per_user", 4)
    return GlimmerService(build_backend("memory"), **kwargs)


def _fill(service, tenants=TENANTS, count=4):
    for name in tenants:
        runtime = service.tenants.get(name) or service.add_tenant(name)
        for user in sorted(runtime.deployment.clients)[:count]:
            service.submit_honest(name, user)


def test_tenants_share_one_blinder():
    with _service() as service:
        for name in TENANTS:
            service.add_tenant(name)
        blinders = {
            id(runtime.deployment.blinder_provisioner)
            for runtime in service.tenants.values()
        }
        assert len(blinders) == 1
        for runtime in service.tenants.values():
            assert runtime.engine.blinder_provisioner is service.shared_blinder


def _log_stages(runtime, name, order):
    """Record ``(tenant, stage)`` each time the tenant's round yields."""
    real = runtime.engine.round_stages

    def round_stages(*args, **kwargs):
        stages = real(*args, **kwargs)
        while True:
            try:
                stage = next(stages)
            except StopIteration as done:
                return done.value
            order.append((name, stage))
            yield stage

    runtime.engine.round_stages = round_stages


def test_three_tenants_overlap_on_one_scheduler():
    with _service() as service:
        _fill(service)
        blinder = service.shared_blinder
        retire = blinder.close_round
        held_until_close = {}

        def close_round(round_id):
            held_until_close[round_id] = blinder.has_round(round_id)
            retire(round_id)

        blinder.close_round = close_round
        order = []
        for name, runtime in service.tenants.items():
            _log_stages(runtime, name, order)
        reports = service.run_pending_sync()
        assert len(reports) == len(TENANTS)
        round_ids = [report.round_id for report in reports]
        assert len(set(round_ids)) == len(TENANTS), "global ids must not collide"
        # Every tenant's round opens before any finalizes, and the live
        # rounds take their stages round-robin, in tenant order.
        opens = [i for i, (_, stage) in enumerate(order) if stage == "open"]
        finals = [i for i, (_, stage) in enumerate(order) if stage == "finalize"]
        assert len(opens) == len(finals) == len(TENANTS)
        assert max(opens) < min(finals)
        assert order[:6] == [(name, "open") for name in TENANTS] + [
            (name, "provision") for name in TENANTS
        ]
        # Identical tenants, identical honest inputs: identical aggregates.
        first = reports[0].as_dict()["aggregate"]
        for report in reports[1:]:
            assert report.as_dict()["aggregate"] == first
        # All rounds lived on the one shared blinder for as long as they
        # were open, and it retired each of them at finalize.
        assert held_until_close == {round_id: True for round_id in round_ids}
        for round_id in round_ids:
            assert not blinder.has_round(round_id)
        assert list(blinder._sealed_rounds) == []


def test_every_round_has_its_own_audit_trail():
    with _service() as service:
        _fill(service)
        reports = service.run_pending_sync()
        seen_tenants = set()
        for report in reports:
            trail = service.audit.trail(round_id=report.round_id)
            events = [entry["event"] for entry in trail]
            assert events[0] == "round-opened"
            assert "round-finalized" in events
            tenants = {entry["tenant"] for entry in trail}
            assert len(tenants) == 1, "a round's trail belongs to one tenant"
            seen_tenants |= tenants
        assert seen_tenants == set(TENANTS)
        assert service.audit.verify_chain() == len(service.audit.entries())


def test_backpressure_rejects_and_audits():
    with _service(queue_capacity=2) as service:
        service.add_tenant("alpha")
        users = sorted(service.tenant("alpha").deployment.clients)
        service.submit_honest("alpha", users[0])
        service.submit_honest("alpha", users[1])
        with pytest.raises(AdmissionError):
            service.submit_honest("alpha", users[2])
        rejected = service.audit.trail(event="submission-rejected")
        assert len(rejected) == 1
        assert rejected[0]["tenant"] == "alpha"
        # The queue drains and capacity comes back.
        service.run_pending_sync()
        service.submit_honest("alpha", users[2])


def test_deferred_submission_rides_a_later_round():
    with _service(queue_capacity=2, overflow=OVERFLOW_DEFER) as service:
        service.add_tenant("alpha")
        users = sorted(service.tenant("alpha").deployment.clients)
        service.submit_honest("alpha", users[0])
        service.submit_honest("alpha", users[1])
        deferred_id = service.submit_honest("alpha", users[2])
        assert service.tenant("alpha").queue.state_of(deferred_id) == "deferred"
        first_batch = service.run_pending_sync()
        assert first_batch[0].num_contributions == 2
        second_batch = service.run_pending_sync()
        assert second_batch[0].num_contributions == 1
        assert service.tenant("alpha").queue.state_of(deferred_id) == "applied"


def test_submit_validates_tenant_and_user():
    with _service() as service:
        service.add_tenant("alpha")
        with pytest.raises(ConfigurationError, match="no tenant"):
            service.submit("ghost", "user-000", [0.1])
        with pytest.raises(ConfigurationError, match="no client"):
            service.submit("alpha", "user-999", [0.1])
        with pytest.raises(ConfigurationError, match="already exists"):
            service.add_tenant("alpha")


def test_run_round_on_empty_queue_is_a_noop():
    with _service() as service:
        service.add_tenant("alpha")
        assert service.run_pending_sync() == []
        assert service.journal.unfinished() == []
