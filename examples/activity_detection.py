#!/usr/bin/env python3
"""In-home activity detection: the paper's most privacy-fraught example.

§2: "activity-recognition models improve from analyzing silhouettes and
image structure from in-home cameras, but checking that silhouettes are
legitimate requires analysis of full video streams captured at people's
homes."  Nobody should upload in-home video; nobody should trust
unvalidated activity claims (think insurance or utility incentives for
"active households").  The Glimmer resolves it: the silhouette predicate
replays the motion-energy histogram from the private frames on-device and
signs only matching reports, which are then blinded before leaving.

Run:  python examples/activity_detection.py
"""

from repro.core.client import LocalDataStore
from repro.core.validation import PrivateContext
from repro.crypto.drbg import HmacDrbg
from repro.experiments.common import Deployment
from repro.runtime.telemetry import OUTCOME_ACCEPTED
from repro.workloads.camera import MOTION_BINS, CameraWorkload

FEATURES = tuple((f"motion-bin-{i}", "mass") for i in range(MOTION_BINS))
NUM_HOMES = 8


def main() -> None:
    rng = HmacDrbg(b"activity-example")
    workload = CameraWorkload.generate(
        NUM_HOMES, rng.fork("camera"), frames_per_stream=100, forged_fraction=0.25
    )
    forged = sum(c.is_forged for c in workload.contributions)
    print(f"{NUM_HOMES} homes, {forged} fabricated activity reports planted\n")

    deployment = Deployment.build(
        seed=b"activity-example",
        predicate_spec="chain:range,0.0,1.0+silhouette,0.02",
        provision_clients=False,
        features=FEATURES,
    )
    for contribution in workload.contributions:
        stream = workload.streams[contribution.user_id]
        deployment.make_client(
            contribution.user_id, data=LocalDataStore(PrivateContext(video_stream=stream))
        )
    report = deployment.engine.run_round(
        1,
        [c.user_id for c in workload.contributions],
        {c.user_id: list(c.values) for c in workload.contributions},
        FEATURES,
    )
    for contribution in workload.contributions:
        stream = workload.streams[contribution.user_id]
        tag = "FORGED" if contribution.is_forged else "honest"
        outcome = report.outcomes[contribution.user_id]
        if outcome == OUTCOME_ACCEPTED:
            print(f"  [{tag}] {contribution.user_id} ({stream.activity}): endorsed, blinded, submitted")
        else:
            print(f"  [{tag}] {contribution.user_id}: {outcome} in-enclave, never submitted")

    print(f"\nservice aggregated {report.num_contributions} blinded histograms "
          f"(max bin mass {float(max(report.aggregate)):.3f})")
    frames = sum(len(s.frames) for s in workload.streams.values())
    print(f"video frames that never left any home: {frames}")


if __name__ == "__main__":
    main()
