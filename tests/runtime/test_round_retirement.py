"""Round retirement: every party's resident state is O(open rounds).

A round has one terminal step — ``finalize_round`` or ``abandon_round`` —
after which the blinding service, the cloud service, the clients and the
bus endpoints hold nothing for it but the round id.  These tests run
many rounds down every route and look inside each per-round container,
play the curious service against a finished round, and check that the
state a round *does* keep while it is open still repairs a blinder crash.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from repro.errors import CryptoError, ProtocolError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.invariants import exact_mean
from repro.network.adversary import DropAdversary
from repro.runtime import messages as m
from repro.scale import ScaleConfig
from repro.service.service import GlimmerService
from repro.service.storage import SealedBlobMap, build_backend

ROUNDS = 12
USERS = 6
SEED = b"round-retirement"

ROUTES = {
    "serial": None,
    "streamed": ScaleConfig(subgroup_size=3),
    "pool": ScaleConfig(workers=2, shards=2, chunk_size=2),
}


def _build(route):
    return Deployment.build(
        num_users=USERS,
        seed=SEED,
        sentences_per_user=8,
        parallelism=ROUTES[route],
    )


def _cohort(deployment):
    users = [user.user_id for user in deployment.corpus.users]
    return users, deployment.local_vectors()


def _client_endpoint(deployment, user_id):
    endpoint = deployment.network._endpoints[m.client_endpoint(user_id)]
    return endpoint.handlers[m.KIND_CONTRIBUTE].__self__


def _resident(deployment) -> dict[str, int]:
    """Entries left in every per-round container, party by party."""
    engine = deployment.engine
    blinder = engine.blinder_provisioner
    clients = deployment.clients
    return {
        "blinding._round_masks": len(blinder.blinding._round_masks),
        "blinder._commitments": len(blinder._commitments),
        "blinder._openings": len(blinder._openings),
        "blinder._sealed_rounds": len(blinder._sealed_rounds),
        "service._rounds": len(engine.service._rounds),
        "service_endpoint._submit_results": len(
            engine._service_endpoint._submit_results
        ),
        "engine._rounds": len(engine._rounds),
        "client._checkpoints": sum(len(c._checkpoints) for c in clients.values()),
        "client._party_index_for_round": sum(
            len(c._party_index_for_round) for c in clients.values()
        ),
        "client_endpoint._contribute_outcomes": sum(
            len(_client_endpoint(deployment, user)._contribute_outcomes)
            for user in clients
        ),
    }


def _assert_retired(deployment):
    resident = _resident(deployment)
    assert resident == dict.fromkeys(resident, 0)


# ------------------------------------------------------------- many rounds


def _soak_engine(route):
    """ROUNDS rounds down one engine route; yields after each retired round."""
    deployment = _build(route)
    users, vectors = _cohort(deployment)
    features = deployment.features.bigrams
    with deployment.engine as engine:
        for round_id in range(1, ROUNDS + 1):
            # A rotating collect-dropout: its mask is provisioned, sealed
            # into a client checkpoint, and revealed for §3 repair.
            silent = users[round_id % USERS]
            report = engine.run_round(
                round_id, users, vectors, features, collect_dropouts=[silent]
            )
            assert report.masks_repaired == 1
            survivors = [u for u in users if u != silent]
            assert np.array_equal(
                np.asarray(report.aggregate),
                exact_mean(deployment.codec, vectors, survivors),
            )
            if route == "streamed":
                assert report.submissions_streamed == len(survivors)
            _assert_retired(deployment)
            del report
            yield round_id


def _soak_service(kind, state_dir):
    """ROUNDS iterations of a two-tenant ``GlimmerService`` on one backend."""
    backend = build_backend(kind, state_dir)
    with GlimmerService(backend, num_users=4, sentences_per_user=4) as service:
        for name in ("alpha", "beta"):
            service.add_tenant(name)
        for iteration in range(1, ROUNDS + 1):
            for name, runtime in service.tenants.items():
                for user in sorted(runtime.deployment.clients):
                    service.submit_honest(name, user)
            reports = service.run_pending_sync()
            assert len(reports) == len(service.tenants)
            for runtime in service.tenants.values():
                _assert_retired(runtime.deployment)
            assert list(SealedBlobMap(backend, "sealed/blinder")) == []
            del reports
            yield iteration


def _soak(scenario, state_dir):
    if scenario in ROUTES:
        return _soak_engine(scenario)
    return _soak_service(scenario, state_dir)


SCENARIOS = sorted(ROUTES) + ["memory", "disk"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_state_is_retired_after_every_round(scenario, tmp_path):
    assert list(_soak(scenario, str(tmp_path / "state"))) == list(
        range(1, ROUNDS + 1)
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_heap_is_flat_in_rounds_run(scenario, tmp_path):
    """The whole interpreter heap after round 12 is within 5% of round 10's.

    Measured in a fresh interpreter that traces from its first import,
    so "the heap" is everything the process holds and does not depend on
    what earlier tests happened to import or cache.  What still grows is
    bounded caches filling and the few words of tombstone per round.
    """
    child = subprocess.run(
        [sys.executable, "-X", "tracemalloc", __file__, scenario, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert child.returncode == 0, child.stderr
    heaps = json.loads(child.stdout.splitlines()[-1])
    assert heaps[str(ROUNDS)] <= heaps[str(ROUNDS - 2)] * 1.05, heaps


def test_abandoned_round_is_retired_like_a_finalized_one():
    deployment = _build("serial")
    users, vectors = _cohort(deployment)
    engine = deployment.engine
    features = deployment.features.bigrams
    engine.run_round(1, users, vectors, features)
    # Round 2 gets as far as holding state at every party — masks
    # provisioned, checkpoints sealed, contributions signed — then loses
    # every submission and aborts.
    deployment.network.interpose(DropAdversary(drop_kinds={m.KIND_SUBMIT}))
    with pytest.raises(RoundAbortedError) as aborted:
        engine.run_round(2, users, vectors, features)
    deployment.network.clear_adversaries()
    assert _resident(deployment)["blinder._sealed_rounds"] == 1
    assert _resident(deployment)["client._checkpoints"] == USERS
    engine.abandon_round(2)
    _assert_retired(deployment)
    assert aborted.value.report.aborted, "the partial report survives"
    with pytest.raises(CryptoError, match="round 2 is closed"):
        engine.blinder_provisioner.reveal_dropout_mask(2, 0)
    with pytest.raises(ProtocolError, match="round 2 is closed"):
        deployment.service.open_round(2, USERS)
    # The engine stays usable; the spent id does not.
    with pytest.raises(CryptoError, match="round 2 is closed"):
        engine.open_round(2, USERS, len(features))
    engine.abandon_round(2)
    report = engine.run_round(3, users, vectors, features)
    assert report.num_contributions == USERS
    _assert_retired(deployment)


# ------------------------------------------------- the curious service


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_finished_round_refuses_the_curious_service(route):
    """After ``run_round`` returns nobody can get a mask back out.

    The service keeps every survivor's blinded ``y_i`` (it is in the
    ``RoundResult``); one successful reveal of that survivor's ``p_i``
    would unblind ``x_i``.  So every mask-bearing call is refused for
    every slot, survivors' included — directly, over the bus, and after
    a blinder restart — and the round id cannot be re-opened to get a
    second family under the same label.
    """
    deployment = _build(route)
    users, vectors = _cohort(deployment)
    features = deployment.features.bigrams
    with deployment.engine as engine:
        report = engine.run_round(
            1, users, vectors, features, collect_dropouts=users[:1]
        )
        blinder = engine.blinder_provisioner
        client = deployment.clients[users[1]]
        handshake = client.handshake_request()
        closed = "round 1 is closed"
        with pytest.raises(CryptoError, match=closed):
            blinder.blinding.mask_for_dropout(1, 1)
        for _ in ("live", "restarted"):
            for slot in range(len(users)):
                with pytest.raises(CryptoError, match=closed):
                    blinder.reveal_dropout_mask(1, slot)
                with pytest.raises(CryptoError, match=closed):
                    blinder.mask_opening(1, slot)
                with pytest.raises(CryptoError, match=closed):
                    blinder.provision_mask(*handshake, 1, slot)
            with pytest.raises(CryptoError, match=closed):
                blinder.round_commitments(1)
            with pytest.raises(CryptoError, match=closed):
                blinder.open_round(1, len(users), len(features))
            blinder.crash()
            assert blinder.restart() == []
        with pytest.raises(CryptoError, match=closed):
            deployment.network.call(
                m.ENGINE, m.BLINDER, m.KIND_REVEAL_MASK, m.RevealMask(1, 1)
            )
        # A late submission is refused outright, not admitted into a
        # fresh, empty round state — whatever it carries.
        late = next(iter(report.service_result.accepted), object())
        with pytest.raises(ProtocolError, match=closed):
            deployment.service.submit(1, late)
        with pytest.raises(ProtocolError, match=closed):
            deployment.service.round_state(1)
        with pytest.raises(ProtocolError, match=closed):
            deployment.service.open_round(1, len(users))
        with pytest.raises((CryptoError, ProtocolError), match=closed):
            engine.open_round(1, len(users), len(features))
        engine.abandon_round(1)
        # Closing is per round: the next one runs normally.
        report = engine.run_round(2, users, vectors, features)
        assert report.num_contributions == len(users)


# ------------------------------------- an open round still survives a crash


@pytest.mark.parametrize("route", ["serial", "streamed"])
def test_blinder_crash_before_finalize_is_still_repaired_by_reveal(route):
    """What a round keeps while open is exactly what recovery needs.

    The blinder dies after provisioning and collection, with the masks
    held once (in the blinding service) and the openings as bare
    ``(salt, randomizer)`` rows; the restart rebuilds both from the
    sealed blob and the dropout's reveal verifies against the
    commitments the engine took at open.
    """
    deployment = _build(route)
    users, vectors = _cohort(deployment)
    blinder = deployment.engine.blinder_provisioner
    stages = deployment.engine.round_stages(
        1, users, vectors, deployment.features.bigrams,
        collect_dropouts=users[:2],
    )
    assert next(stages) == "open"
    published = blinder.round_commitments(1)
    while next(stages) != "finalize":
        pass
    blinder.crash()
    assert not blinder.has_round(1)
    with pytest.raises(CryptoError, match="down"):
        blinder.reveal_dropout_mask(1, 0)
    assert blinder.restart() == [1]
    assert blinder.round_commitments(1) == published
    with pytest.raises(StopIteration) as finished:
        next(stages)
    report = finished.value.value
    assert report.masks_repaired == 2
    assert np.array_equal(
        np.asarray(report.aggregate),
        exact_mean(deployment.codec, vectors, users[2:]),
    )
    _assert_retired(deployment)


def test_close_while_the_blinder_is_down_still_drops_the_sealed_round():
    deployment = _build("serial")
    users, _ = _cohort(deployment)
    blinder = deployment.engine.blinder_provisioner
    blinder.open_round(7, len(users), len(deployment.features))
    blinder.crash()
    blinder.close_round(7)
    assert blinder.restart() == []
    with pytest.raises(CryptoError, match="round 7 is closed"):
        blinder.mask_opening(7, 0)


if __name__ == "__main__":
    # Child of test_heap_is_flat_in_rounds_run: ``-X tracemalloc`` has been
    # tracing since interpreter start; print the heap after every round.
    heaps = {}
    for finished in _soak(sys.argv[1], sys.argv[2] + "/state"):
        gc.collect()
        heaps[finished] = tracemalloc.get_traced_memory()[0]
    print(json.dumps(heaps))
