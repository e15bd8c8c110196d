"""Async/sync parity: the event-loop driver changes scheduling, nothing else.

The async engine drains the very generator ``run_round`` drains, on one
thread, so a single round driven async must produce a *fully identical*
:class:`RoundReport` — aggregate, outcomes, transport telemetry, enclave
cycles, simulated latency, everything.  The chaos and Byzantine suites
then run their schedule harnesses unchanged against the async engine
(via :func:`repro.service.async_engine.install_async_drive`), asserting
the exact-or-abort and blame invariants survive the new scheduler and
that outcomes replay identically against the serial engine.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import RoundAbortedError
from repro.experiments.common import Deployment
from repro.service.async_engine import AsyncRoundEngine, install_async_drive

from tests.chaos import test_byzantine as byz
from tests.chaos import test_chaos as chaos

SEED = b"async-parity"
NUM_USERS = 5

#: Chaos/Byzantine schedules per suite here — enough to hit aborts and
#: recoveries without doubling the chaos suite's wall-clock.
SCHEDULES = 12


def _build():
    return Deployment.build(num_users=NUM_USERS, seed=SEED, sentences_per_user=8)


def _round_inputs(deployment):
    users = [u.user_id for u in deployment.corpus.users]
    return users, deployment.local_vectors(), deployment.features.bigrams


def _assert_reports_identical(serial, asynced):
    assert serial.as_dict() == asynced.as_dict()
    assert np.array_equal(
        np.asarray(serial.aggregate), np.asarray(asynced.aggregate)
    )


def test_async_round_report_is_bit_identical():
    # The public-key caches (tables, membership memo) are process-wide,
    # so both runs must start equally cold for their cache-efficacy
    # telemetry (membership_checks_skipped) to compare bit-exact.
    from repro.crypto import group_ops

    sync_dep, async_dep = _build(), _build()
    users, vectors, features = _round_inputs(sync_dep)
    group_ops.reset_tables()
    serial = sync_dep.engine.run_round(1, users, vectors, features)
    driver = AsyncRoundEngine(async_dep.engine)
    users2, vectors2, features2 = _round_inputs(async_dep)
    group_ops.reset_tables()
    asynced = asyncio.run(driver.run_round(1, users2, vectors2, features2))
    assert driver.stages_driven > 0, "the async path must actually suspend"
    _assert_reports_identical(serial, asynced)


def test_async_parity_with_dropouts_and_repair():
    from repro.crypto import group_ops

    sync_dep, async_dep = _build(), _build()
    users, vectors, features = _round_inputs(sync_dep)
    dropouts = (users[1],)
    collect_dropouts = (users[3],)
    group_ops.reset_tables()
    serial = sync_dep.engine.run_round(
        1, users, vectors, features,
        dropouts=dropouts, collect_dropouts=collect_dropouts,
    )
    driver = AsyncRoundEngine(async_dep.engine)
    users2, vectors2, features2 = _round_inputs(async_dep)
    group_ops.reset_tables()
    asynced = asyncio.run(
        driver.run_round(
            1, users2, vectors2, features2,
            dropouts=dropouts, collect_dropouts=collect_dropouts,
        )
    )
    assert serial.masks_repaired == 2
    _assert_reports_identical(serial, asynced)


def test_async_rounds_on_one_engine_serialize():
    deployment = _build()
    users, vectors, features = _round_inputs(deployment)
    driver = AsyncRoundEngine(deployment.engine)

    async def both():
        return await asyncio.gather(
            driver.run_round(1, users, vectors, features),
            driver.run_round(2, users, vectors, features),
        )

    first, second = asyncio.run(both())
    # The lock kept the engine's per-round invariants: both rounds
    # finalized with full acceptance, in order.
    assert first.round_id == 1 and second.round_id == 2
    assert first.num_contributions == NUM_USERS
    assert second.num_contributions == NUM_USERS


def test_install_async_drive_preserves_run_round_contract():
    deployment = _build()
    users, vectors, features = _round_inputs(deployment)
    driver = install_async_drive(deployment.engine)
    report = deployment.engine.run_round(1, users, vectors, features)
    assert report.num_contributions == NUM_USERS
    assert driver.stages_driven > 0
    # Aborts still raise through the sync facade.
    with pytest.raises(RoundAbortedError):
        deployment.engine.run_round(
            2, users, vectors, features, dropouts=tuple(users)
        )
    deployment.engine.abandon_round(2)


@pytest.mark.parametrize("seed", ["async-chaos"])
def test_chaos_schedules_run_unchanged_on_the_async_engine(seed):
    """The chaos harness, verbatim, with async-driven rounds.

    Every schedule must uphold exact-or-abort, and the outcome sequence
    must replay identically against the serial engine — the silent-
    fallback discipline from the scale layer, now for the scheduler.
    """
    async_dep = chaos._build(seed)
    install_async_drive(async_dep.engine)
    serial_dep = chaos._build(seed)
    async_users = [u.user_id for u in async_dep.corpus.users]
    serial_users = [u.user_id for u in serial_dep.corpus.users]
    async_vectors = async_dep.local_vectors()
    serial_vectors = serial_dep.local_vectors()
    for index in range(SCHEDULES):
        _, injector_a = chaos._schedule(seed, index, async_users)
        _, injector_s = chaos._schedule(seed, index, serial_users)
        outcome_async = chaos._run_schedule(
            async_dep, index + 1, injector_a, async_users, async_vectors
        )
        outcome_serial = chaos._run_schedule(
            serial_dep, index + 1, injector_s, serial_users, serial_vectors
        )
        assert outcome_async == outcome_serial, f"schedule {index} diverged"


@pytest.mark.parametrize("seed", ["async-byz"])
def test_byzantine_schedules_run_unchanged_on_the_async_engine(seed):
    """The Byzantine harness, verbatim, against the async engine."""
    async_dep = byz._build(seed)
    driver = install_async_drive(async_dep.engine)
    serial_dep = byz._build(seed)
    async_users = [u.user_id for u in async_dep.corpus.users]
    serial_users = [u.user_id for u in serial_dep.corpus.users]
    for index in range(SCHEDULES):
        outcome_async = byz._run_schedule(async_dep, seed, index, async_users)
        outcome_serial = byz._run_schedule(serial_dep, seed, index, serial_users)
        assert outcome_async == outcome_serial, f"attack mix {index} diverged"
    assert driver.stages_driven > 0, "the Byzantine rounds never reached the loop"
