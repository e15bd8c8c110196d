"""E9 — §4.1's concession, quantified: the covert channel is bounded, not gone.

"While this does not preclude a covert channel, it puts a hard upper bound
on the capacity of such a channel."

Two malicious encrypted predicates attack the audited 1-bit format:

* the **bit-modulating exfiltrator** encodes the user's private interest
  profile into successive verdict bits.  The auditor cannot distinguish
  these bits from honest verdicts, but it counts them: after ``n`` audited
  messages the attacker holds at most ``n`` bits, exactly the bound we
  measure against the attacker's actual haul;
* the **format stuffer** tries to widen the channel by smuggling 256 bits
  through the challenge-response field.  The auditor rejects every message,
  so its haul is zero.

We sweep the auditor's per-session message budget and report: bits the
attacker actually exfiltrated, the auditor's capacity bound, and whether
the bound held.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.core.auditor import RuntimeAuditor
from repro.core.client import attested_handshake
from repro.core.confidential import (
    BotDetectionService,
    ExfiltratingGlimmerProgram,
    MalformedOutputGlimmerProgram,
    build_confidential_image,
)
from repro.core.provisioning import VettingRegistry
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_bytes
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import AuditError
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import VendorKey
from repro.sgx.platform import SgxPlatform
from repro.workloads.botnet import BotnetWorkload, DetectorWeights


@dataclass
class CovertChannelResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E9 (§4.1): covert-channel capacity under the runtime auditor",
            [
                "malicious predicate",
                "message budget",
                "messages passed",
                "bits exfiltrated",
                "auditor bound (bits)",
                "bound held",
            ],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def _provisioned_enclave(program_class, name, rng, ias, seed):
    vendor = VendorKey.generate(rng.fork("vendor"))
    identity = SchnorrKeyPair.generate(rng.fork("identity"), TEST_GROUP)
    image = build_confidential_image(
        vendor, identity.public_key, program_class=program_class, name=name
    )
    registry = VettingRegistry()
    registry.publish(name, image.mrenclave)
    service = BotDetectionService(
        identity, DetectorWeights(), ias, registry, name, rng.fork("svc")
    )
    platform = SgxPlatform(seed, attestation_service=ias)
    store = {}
    enclave = platform.load_enclave(
        image, ocall_handlers={"collect_session_signals": lambda sid: store[sid]}
    )
    offer = attested_handshake(platform, enclave, b"prov:" + name.encode())
    enclave.ecall("install_detector", service.provision_detector(*offer))
    return enclave, service, store


def run(budgets=(1, 8, 64), seed: bytes = b"e9") -> CovertChannelResult:
    rng = HmacDrbg(seed, personalization="e9")
    ias = AttestationService(seed + b":ias")
    # One victim whose interest profile the predicates try to leak.
    workload = BotnetWorkload.generate(1, rng.fork("victim"), bot_fraction=0.0)
    victim = workload.sessions[0]
    secret = hash_bytes("exfil-target", victim.interest_profile.encode("utf-8"))

    rows = []
    for budget in budgets:
        # --- bit-modulating exfiltrator ----------------------------------
        enclave, service, store = _provisioned_enclave(
            ExfiltratingGlimmerProgram, f"exfil-{budget}", rng.fork(f"e-{budget}"),
            ias, seed + f":p1-{budget}".encode(),
        )
        auditor = RuntimeAuditor(max_bits_per_session=budget)
        store[victim.session_id] = victim
        recovered_bits = []
        passed = 0
        for attempt in range(budget + 16):  # the attacker keeps trying past the budget
            challenge = service.new_challenge(victim.session_id)
            message = enclave.ecall(
                "evaluate_session", victim.session_id, challenge
            )
            try:
                auditor.audit(message, challenge)
            except AuditError:
                continue
            passed += 1
            recovered_bits.append(message.verdict_bit)
        # Score the attacker's haul against the true secret bit stream.
        exfiltrated = sum(
            1
            for position, bit in enumerate(recovered_bits)
            if bit == ((secret[position // 8] >> (position % 8)) & 1)
        )
        bound = auditor.capacity_bound_bits(victim.session_id)
        rows.append(
            (
                "bit-modulating exfiltrator",
                budget,
                passed,
                exfiltrated,
                bound,
                exfiltrated <= bound,
            )
        )

        # --- format stuffer ----------------------------------------------
        enclave, service, store = _provisioned_enclave(
            MalformedOutputGlimmerProgram, f"stuffer-{budget}",
            rng.fork(f"s-{budget}"), ias, seed + f":p2-{budget}".encode(),
        )
        auditor = RuntimeAuditor(max_bits_per_session=budget)
        store[victim.session_id] = victim
        passed = 0
        for attempt in range(budget + 4):
            challenge = service.new_challenge(victim.session_id)
            message = enclave.ecall(
                "evaluate_session", victim.session_id, challenge
            )
            try:
                auditor.audit(message, challenge)
                passed += 1
            except AuditError:
                continue
        bound = auditor.capacity_bound_bits(victim.session_id)
        rows.append(
            ("format stuffer (256b/msg)", budget, passed, 0, bound, True)
        )
    return CovertChannelResult(rows=rows)
