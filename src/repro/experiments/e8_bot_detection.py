"""E8 — §4.1: bot detection through a Glimmer vs. the alternatives.

Three channels classify the same sessions, across a bot-sophistication
sweep:

* **CAPTCHA** (the paper's strawman baseline): annoys every human and
  falls to computer vision and CAPTCHA farms as the adversary spends more;
* **raw-signal upload** (today's practice): the service runs its detector
  on signals shipped in the clear — same accuracy as the Glimmer, but the
  user's browsing history/cookies/interests travel with them;
* **Glimmer** (§4.1): the encrypted detector runs on-device in the
  enclave; the service receives one audited bit.

Reported per (channel × sophistication): detection accuracy, bits of
private context exposed per session, and human annoyance (interventions
per human session).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.core.auditor import RuntimeAuditor
from repro.core.client import attested_handshake
from repro.core.confidential import (
    BotDetectionService,
    build_confidential_image,
    raw_signal_leakage_bits,
)
from repro.core.provisioning import VettingRegistry
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import VendorKey
from repro.sgx.platform import SgxPlatform
from repro.workloads.botnet import BotnetWorkload, DetectorWeights


def _captcha_accuracy(sophistication: float) -> float:
    """CAPTCHA baseline: humans pass 98%; bots solve via farms/vision.

    Farm solve rate grows with adversary spend (sophistication): naive
    scripts fail, well-funded operations solve most challenges — the
    failure mode §4.1 cites.
    """
    human_pass = 0.98
    bot_solve = 0.1 + 0.85 * sophistication
    # Accuracy over a 50/50-weighted mix of the workload's classes is
    # computed by the caller per actual class balance; here per-class rates.
    return human_pass, bot_solve


@dataclass
class BotDetectionResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E8 (§4.1): bot detection — accuracy vs. privacy across channels",
            [
                "channel",
                "bot sophistication",
                "accuracy",
                "bits exposed/session",
                "human annoyance",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(
    num_sessions: int = 60,
    sophistication_levels=(0.0, 0.6, 0.95),
    seed: bytes = b"e8",
) -> BotDetectionResult:
    rng = HmacDrbg(seed, personalization="e8")
    ias = AttestationService(seed + b":ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    identity = SchnorrKeyPair.generate(rng.fork("identity"), TEST_GROUP)
    detector = DetectorWeights()
    image = build_confidential_image(vendor, identity.public_key)
    registry = VettingRegistry()
    registry.publish("bot-glimmer", image.mrenclave)

    rows = []
    for sophistication in sophistication_levels:
        workload = BotnetWorkload.generate(
            num_sessions,
            rng.fork(f"wl-{sophistication}"),
            bot_sophistication=sophistication,
        )
        avg_raw_bits = sum(
            raw_signal_leakage_bits(s) for s in workload.sessions
        ) / len(workload.sessions)

        # --- CAPTCHA baseline ------------------------------------------
        human_pass, bot_solve = _captcha_accuracy(sophistication)
        captcha_rng = rng.fork(f"captcha-{sophistication}")
        correct = 0
        for session in workload.sessions:
            if session.is_bot:
                correct += captcha_rng.uniform() >= bot_solve
            else:
                correct += captcha_rng.uniform() < human_pass
        rows.append(
            (
                "captcha",
                sophistication,
                correct / num_sessions,
                0.0,
                1.0,  # every human solves a puzzle
            )
        )

        # --- raw signal upload ------------------------------------------
        correct = sum(
            1
            for s in workload.sessions
            if detector.is_human(s) != s.is_bot
        )
        rows.append(
            ("raw signal upload", sophistication, correct / num_sessions, avg_raw_bits, 0.0)
        )

        # --- Glimmer (encrypted detector, 1 audited bit) -----------------
        service = BotDetectionService(
            identity, detector, ias, registry, "bot-glimmer",
            rng.fork(f"svc-{sophistication}"),
        )
        platform = SgxPlatform(
            seed + f":plat-{sophistication}".encode(), attestation_service=ias
        )
        store = {}
        enclave = platform.load_enclave(
            image,
            ocall_handlers={"collect_session_signals": lambda sid: store[sid]},
        )
        offer = attested_handshake(
            platform, enclave, f"prov-{sophistication}".encode()
        )
        enclave.ecall("install_detector", service.provision_detector(*offer))
        auditor = RuntimeAuditor()
        correct = 0
        bits_total = 0
        for session in workload.sessions:
            store[session.session_id] = session
            challenge = service.new_challenge(session.session_id)
            message = enclave.ecall(
                "evaluate_session", session.session_id, challenge
            )
            auditor.audit(message, challenge)
            bits_total += auditor.capacity_bound_bits(session.session_id)
            if service.verify_verdict(message) != session.is_bot:
                correct += 1
        rows.append(
            (
                "glimmer (1 audited bit)",
                sophistication,
                correct / num_sessions,
                bits_total / num_sessions,
                0.0,
            )
        )
    return BotDetectionResult(rows=rows)
