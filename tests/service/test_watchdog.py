"""The round watchdog: a wedged round aborts instead of hanging."""

from __future__ import annotations

import time

from repro.service.queue import STATE_PENDING
from repro.service.service import GlimmerService
from repro.service.storage import build_backend

KNOBS = dict(num_users=3, sentences_per_user=3, max_features=8)


def _wedge(engine):
    """Wedge the engine's rounds: the stage after open takes 0.3 s, longer
    than the test's 0.1 s ``round_deadline``.  Returns the real method."""
    real = engine.round_stages

    def round_stages(*args, **kwargs):
        stages = real(*args, **kwargs)
        yield next(stages)
        time.sleep(0.3)
        yield from stages

    engine.round_stages = round_stages
    return real


def test_watchdog_aborts_requeues_and_the_round_reruns():
    service = GlimmerService(
        build_backend("memory"), round_deadline=0.1, **KNOBS
    )
    service.add_tenant("alpha")
    runtime = service.tenant("alpha")
    for user in sorted(runtime.deployment.clients):
        service.submit_honest("alpha", user)

    real_stages = _wedge(runtime.engine)
    assert service.run_pending_sync() == [], "wedged round yields no report"

    # Abort-with-telemetry: journaled, audited, submissions requeued.
    assert service.journal.status_of(1) == "aborted"
    (abort,) = service.audit.trail(event="round-watchdog-abort")
    assert abort["round_id"] == 1 and abort["deadline"] == 0.1
    assert len(abort["requeued"]) == KNOBS["num_users"]
    queue = runtime.queue
    assert queue.count(STATE_PENDING) == KNOBS["num_users"]

    # The wedged round was abandoned at the engine.  The service is still
    # healthy: unwedge it and the very same submissions complete in the
    # next round.
    assert not service.shared_blinder.has_round(1)
    runtime.engine.round_stages = real_stages
    (report,) = service.run_pending_sync()
    assert report.round_id == 2
    assert report.num_contributions == KNOBS["num_users"]
    assert service.journal.unfinished() == []
    service.audit.verify_chain()
    service.close()


def test_no_deadline_means_no_watchdog():
    service = GlimmerService(build_backend("memory"), **KNOBS)
    assert service.round_deadline is None
    service.add_tenant("alpha")
    for user in sorted(service.tenant("alpha").deployment.clients):
        service.submit_honest("alpha", user)
    (report,) = service.run_pending_sync()
    assert report.num_contributions == KNOBS["num_users"]
    service.close()
