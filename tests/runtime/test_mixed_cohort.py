"""TEE-less devices are ordinary round parties (§4.2 on the one skeleton).

A cohort mixing on-device Glimmers with IoT devices behind a shared host
runs as one ``run_round``: the same wire, monitor, finalize audit and
invariants hold the IoT devices' contributions to what every other
device's are held to.
"""

from repro import invariants
from repro.experiments.common import Deployment
from repro.network.adversary import EavesdropAdversary, NetworkAdversary
from repro.runtime.messages import client_endpoint
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_UNREACHABLE,
    meter_delta,
    meter_snapshot,
)

HOST = "set-top-box"
IOT = ("thermostat-0", "thermostat-1")


class CutLink(NetworkAdversary):
    """Drops everything one device sends its host."""

    def __init__(self, device_id: str) -> None:
        self.sender = client_endpoint(device_id)

    def process(self, message):
        if message.sender == self.sender and message.receiver == HOST:
            return None
        return message


def _mixed(seed: bytes):
    deployment = Deployment.build(num_users=3, seed=seed)
    host = deployment.make_host(HOST)
    for device_id in IOT:
        deployment.make_iot_client(device_id, host)
    vectors = deployment.local_vectors()
    honest = list(vectors)
    vectors.update({device_id: vectors[honest[index]] for index, device_id in enumerate(IOT)})
    return deployment, host, vectors


def _run(deployment, vectors):
    return deployment.engine.run_round(
        1, list(vectors), vectors, deployment.features.bigrams
    )


def test_mixed_cohort_is_a_clean_round():
    deployment, host, vectors = _mixed(b"mixed-cohort")
    report = _run(deployment, vectors)
    verdict = invariants.judge(report, deployment.codec, vectors)
    assert verdict.outcome == invariants.OUTCOME_CLEAN
    assert set(report.outcomes.values()) == {OUTCOME_ACCEPTED}
    # Both devices' masks came through the host's one session.
    assert report.handshakes_resumed >= 1


def test_a_cut_device_to_host_link_degrades_into_repair():
    deployment, host, vectors = _mixed(b"mixed-cohort-cut")
    observer = EavesdropAdversary()
    deployment.network.interpose(observer)
    deployment.network.interpose(CutLink(IOT[1]))
    report = _run(deployment, vectors)
    assert report.outcomes[IOT[1]] == OUTCOME_UNREACHABLE
    assert report.outcomes[IOT[0]] == OUTCOME_ACCEPTED
    assert report.masks_repaired == 1
    assert invariants.judge(report, deployment.codec, vectors).exact
    assert invariants.consumed_slots_revealed(report, observer.captured) == ()


def test_a_shared_glimmer_is_metered_once():
    """Two devices behind one host report the host's cycles once; every
    on-device Glimmer still reports its own."""
    deployment, host, vectors = _mixed(b"mixed-cohort-cycles")
    glimmers = [host.glimmer] + [
        deployment.clients[user_id].glimmer for user_id in vectors if user_id not in IOT
    ]
    before = [meter_snapshot(glimmer.meter) for glimmer in glimmers]
    report = _run(deployment, vectors)
    expected: dict[str, int] = {}
    for glimmer, snapshot in zip(glimmers, before):
        for bucket, grown in meter_delta(snapshot, meter_snapshot(glimmer.meter)).items():
            expected[bucket] = expected.get(bucket, 0) + grown
    assert report.enclave_cycles == expected

