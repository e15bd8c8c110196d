"""Service-layer chaos: storage fault schedules + kill-and-restart.

Protocol chaos (``test_chaos.py``) proves exact-or-abort inside one
process.  This suite proves the *service's* exact-or-recovered guarantee
across process lifetimes: ``SCHEDULES_PER_SEED`` sampled schedules of
storage pathologies (I/O errors, torn writes, lost-after-ack, audit
corruption) and hard kill-points per seed, on every storage backend.
Each schedule runs :func:`repro.service.chaos.run_service_schedule`,
which restarts the service from persisted state after every incident and
asserts, per schedule:

* no acknowledged submission lost, none double-counted;
* every finalized round's aggregate codec-exact over its journaled
  values (recovered rounds indistinguishable from uninterrupted ones);
* the audit chain verifies, through explicit repair records if needed.

``CHAOS_SEED`` / ``SERVICE_BACKEND`` narrow the matrix (CI shards on
them); ``CHAOS_ARTIFACT_DIR`` collects a JSON artifact for any failing
schedule so the exact (seed, index, rate, backend) replays locally.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.service.chaos import run_service_schedule
from repro.service.storage import BACKEND_KINDS, build_backend

SCHEDULES_PER_SEED = 50
REPLAY_SCHEDULES = 6
FAULT_RATES = (0.02, 0.05, 0.1, 0.15)

DEFAULT_SEEDS = ("svc-a", "svc-b")
SEEDS = (
    (os.environ["CHAOS_SEED"],) if os.environ.get("CHAOS_SEED") else DEFAULT_SEEDS
)
BACKENDS = (
    (os.environ["SERVICE_BACKEND"],)
    if os.environ.get("SERVICE_BACKEND")
    else BACKEND_KINDS
)

def _factory(kind: str, tmp_path, index: int):
    """A reopenable handle over one schedule's persistent state."""
    if kind == "memory":
        backend = build_backend("memory")
        return lambda: backend
    path = str(
        tmp_path / f"{index:03d}" / ("state.db" if kind == "sqlite" else "state")
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return lambda: build_backend(kind, path=path)


def _run(kind, tmp_path, seed: str, index: int, **kwargs):
    params = dict(
        seed=seed.encode(),
        index=index,
        fault_rate=FAULT_RATES[index % len(FAULT_RATES)],
        waves=2 if index % 3 == 0 else 1,
    )
    params.update(kwargs)
    try:
        return run_service_schedule(
            _factory(kind, tmp_path, index), **params
        )
    except Exception as exc:
        artifact_dir = os.environ.get("CHAOS_ARTIFACT_DIR")
        if artifact_dir:
            os.makedirs(artifact_dir, exist_ok=True)
            name = f"service-chaos-{kind}-{seed}-{index:03d}.json"
            with open(os.path.join(artifact_dir, name), "w") as handle:
                json.dump(
                    {
                        "backend": kind,
                        "seed": seed,
                        "index": index,
                        "fault_rate": params["fault_rate"],
                        "waves": params["waves"],
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                    handle,
                    indent=2,
                )
        raise


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_service_chaos_exact_or_recovered(kind, seed, tmp_path):
    totals = {
        "kills": 0,
        "restarts": 0,
        "rounds_recovered": 0,
        "rounds_settled": 0,
        "rounds_finalized": 0,
        "audit_repairs": 0,
        "acked": 0,
    }
    for index in range(SCHEDULES_PER_SEED):
        report = _run(kind, tmp_path, seed, index)
        for key in totals:
            totals[key] += report[key]
    # Per-schedule invariants (exactly-once, bit-exact aggregates, audit
    # chain) are asserted inside the harness; here we assert the sweep
    # actually exercised the machinery it claims to prove.
    assert totals["rounds_finalized"] >= SCHEDULES_PER_SEED
    assert totals["acked"] > 0
    assert totals["kills"] > 0, "no schedule killed the process"
    assert totals["restarts"] > 0, "no schedule forced a restart"
    assert (
        totals["rounds_recovered"] + totals["rounds_settled"] > 0
    ), "no schedule exercised round recovery"
    assert totals["audit_repairs"] > 0, "no schedule repaired the audit chain"


@pytest.mark.parametrize("kind", BACKENDS)
def test_same_seed_replays_identical_schedule(kind, tmp_path):
    """Fresh state + same seed => identical firings, kills, aggregates."""
    runs = []
    for attempt in range(2):
        signatures = []
        for index in range(REPLAY_SCHEDULES):
            report = _run(
                kind,
                tmp_path / f"run{attempt}",
                "svc-replay",
                index,
            )
            signatures.append(
                (report["signature"], tuple(report["incidents"]))
            )
        runs.append(tuple(signatures))
    assert runs[0] == runs[1]


def test_distinct_seeds_differ(tmp_path):
    """Sanity: the schedule space is actually being sampled."""
    logs = []
    for seed in ("svc-a", "svc-b"):
        fired = []
        for index in range(REPLAY_SCHEDULES):
            report = _run("memory", tmp_path / seed, seed, index)
            fired.append(report["fired"])
        logs.append(tuple(fired))
    assert logs[0] != logs[1]
