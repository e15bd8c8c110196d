#!/usr/bin/env python3
"""§4.2 Glimmer-as-a-service: contributions from devices with no TEE.

A fleet of IoT thermostats (no SGX) contributes temperature-model updates
through a Glimmer hosted on the household set-top box.  Each device first
*verifies the host's attestation quote* — quote verification needs no
trusted hardware — then ships its contribution and private context
end-to-end encrypted into the enclave.  The host relays ciphertext it
cannot read.  To the round engine each thermostat is one more device, so
the round runs, and is judged, like any other.

A second act shows the failure mode the design exists for: a host running
its own software instead of the vetted Glimmer fails attestation, and the
client never sends it anything private.

Run:  python examples/glimmer_as_a_service.py
"""

from repro.errors import AttestationError
from repro.experiments.common import Deployment
from repro.experiments.e10_gaas import make_impostor_host
from repro.invariants import judge
from repro.network.clock import LOCAL_LATENCY
from repro.runtime.messages import client_endpoint

NUM_DEVICES = 4


def main() -> None:
    deployment = Deployment.build(
        num_users=2, seed=b"gaas-example", provision_clients=False
    )
    features = deployment.features

    print("== the set-top box hosts a vetted Glimmer ==")
    host = deployment.make_host("set-top-box")
    print(f"  glimmer measurement: {deployment.image.mrenclave.hex()[:16]}…\n")

    devices = [f"thermostat-{index}" for index in range(NUM_DEVICES)]
    for device_id in devices:
        deployment.make_iot_client(device_id, host)
        deployment.network.set_link_latency(
            client_endpoint(device_id), "set-top-box", LOCAL_LATENCY
        )
    vector = [0.25] * len(features)
    vectors = dict.fromkeys(devices, vector)
    report = deployment.engine.run_round(1, devices, vectors, features.bigrams)
    for device_id in devices:
        print(f"  {device_id}: attested the host, contributed through it — "
              f"{report.outcomes[device_id]}")
    verdict = judge(report, deployment.codec, vectors)
    print(f"\nservice aggregated {report.num_contributions} blinded "
          f"contributions: {verdict.outcome}\n")

    print("== act two: a dishonest host swaps in its own software ==")
    impostor = make_impostor_host(deployment, "evil-box")
    device = deployment.make_iot_client("thermostat-victim", impostor)
    try:
        device.contribute(2, vector, features.bigrams)
        print("  !!! the device trusted the impostor — this should never print")
    except AttestationError as exc:
        print(f"  the device refused: {exc}")
        print("  no private data was ever transmitted to the impostor host")


if __name__ == "__main__":
    main()
