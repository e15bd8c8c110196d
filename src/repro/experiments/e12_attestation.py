"""E12 — §3's trust establishment, attacked from every angle.

"One last requirement is that the Glimmer convince both the user and
service that it is correct ... Once it has been vetted, the hash of the
Glimmer is published, and the user can use SGX to attest that their client
is running the approved Glimmer.  Similarly the service can ensure that
signing keys are sealed to the approved Glimmer."

Each row is one attack on that story, run against the real provisioning
path, with the mechanism that stopped it:

* a Glimmer with a *weakened predicate* in its config (538-friendly range)
  measures differently and is refused the signing key;
* a forged quote from a software emulator, a tampered quote, a replayed
  binding, a revoked platform, a debug enclave — all refused;
* the sealed signing key cannot be unsealed by any other enclave;
* the genuine Glimmer, as a control, is provisioned successfully.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import Table
from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest
from repro.errors import AttestationError, EnclaveError, SealingError
from repro.experiments.common import Deployment, GLIMMER_NAME
from repro.sgx.attestation import report_data_for
from repro.sgx.enclave import EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage
from repro.sgx.threats import (
    forge_quote,
    replay_quote_with_new_data,
    tamper_quote_measurement,
)


@dataclass
class AttestationResult:
    rows: list

    def table(self) -> Table:
        table = Table(
            "E12 (§3): trust establishment — attack matrix",
            ["attack", "blocked", "mechanism"],
        )
        for row in self.rows:
            table.add_row(*row)
        return table


def run(seed: bytes = b"e12") -> AttestationResult:
    deployment = Deployment.build(num_users=2, seed=seed, provision_clients=False)
    rows = []

    # Control: the genuine Glimmer provisions successfully.
    honest = ClientDevice(
        "honest", deployment.image, deployment.attestation,
        seed=seed + b":honest", data=LocalDataStore(),
    )
    honest.provision_signing_key(deployment.service_provisioner)
    rows.append(
        ("genuine glimmer (control)", False, "provisioned successfully")
    )

    # Attack 1: weakened predicate config → different measurement.
    weak_config = GlimmerConfig(
        predicate_spec="range:0.0:1000.0",  # would wave the 538 through
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(deployment.features.bigrams),
    )
    weak_image = build_glimmer_image(
        deployment.vendor, weak_config, name=GLIMMER_NAME
    )
    weak_client = ClientDevice(
        "weakened", weak_image, deployment.attestation,
        seed=seed + b":weak", data=LocalDataStore(),
    )
    try:
        weak_client.provision_signing_key(deployment.service_provisioner)
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(
        ("weakened-predicate glimmer", blocked, "measurement != published hash")
    )

    # Attack 2: forged quote (software emulator, unprovisioned key).
    session = b"forge-session"
    dh_public = 4
    quote = forge_quote(
        deployment.image.mrenclave,
        deployment.image.mrsigner,
        report_data_for(dh_public.to_bytes(256, "big")),
    )
    try:
        deployment.service_provisioner.provision_signing_key(session, dh_public, quote)
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(("forged quote (no real SGX)", blocked, "unprovisioned platform key"))

    # Attack 3: the weakened enclave's *genuine* quote, with its measurement
    # field rewritten to the published hash (signature no longer covers it).
    weak_quote = weak_client.platform.quote_enclave(
        weak_client.glimmer, report_data_for(dh_public.to_bytes(256, "big"))
    )
    tampered = tamper_quote_measurement(weak_quote, deployment.image.mrenclave)
    try:
        deployment.service_provisioner.provision_signing_key(
            b"tamper-session", dh_public, tampered
        )
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(("tampered quote measurement", blocked, "quote signature check"))

    # Attack 4: replay a genuine quote (from a real honest handshake) with
    # the attacker's own DH value substituted into the report data.
    __, honest_dh_public, genuine_quote = honest.handshake_request()
    attacker_dh_public = 16
    replayed = replay_quote_with_new_data(
        genuine_quote, report_data_for(attacker_dh_public.to_bytes(256, "big"))
    )
    try:
        deployment.service_provisioner.provision_signing_key(
            b"replay-session", attacker_dh_public, replayed
        )
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(("replayed quote, swapped binding", blocked, "quote signature check"))

    # Attack 5: stale binding — genuine quote but a different handshake value.
    try:
        deployment.service_provisioner.provision_signing_key(
            b"stale-session", attacker_dh_public, genuine_quote
        )
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(("genuine quote, wrong DH value", blocked, "report-data binding check"))

    # Attack 6: revoked platform.
    revoked_client = ClientDevice(
        "revoked", deployment.image, deployment.attestation,
        seed=seed + b":revoked", data=LocalDataStore(),
    )
    deployment.attestation.revoke_platform(revoked_client.platform.platform_id)
    try:
        revoked_client.provision_signing_key(deployment.service_provisioner)
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(("revoked platform", blocked, "revocation list"))

    # Attack 7: debug-mode glimmer (inspectable; must never hold keys).
    debug_image = EnclaveImage.build(
        deployment.image.program_class, deployment.vendor,
        name=GLIMMER_NAME, config=deployment.image.config, debug=True,
    )
    debug_client = ClientDevice(
        "debug", debug_image, deployment.attestation,
        seed=seed + b":debug", data=LocalDataStore(),
    )
    try:
        debug_client.provision_signing_key(deployment.service_provisioner)
        blocked = False
    except AttestationError:
        blocked = True
    rows.append(("debug-mode glimmer", blocked, "debug attribute policy"))

    # Attack 8: the host exfiltrates the sealed signing-key blob (which it
    # legitimately stores for the Glimmer) to a thief enclave of its own.
    sealed_blob = honest.provision_signing_key(deployment.service_provisioner)

    class ThiefProgram(EnclaveProgram):
        @ecall
        def try_unseal(self, blob):
            return self.api.unseal(blob)

    thief_image = EnclaveImage.build(ThiefProgram, deployment.vendor)
    thief = honest.platform.load_enclave(thief_image)
    try:
        thief.ecall("try_unseal", sealed_blob)
        blocked = False
    except (SealingError, EnclaveError):
        blocked = True
    rows.append(("sealed key stolen by other enclave", blocked, "mrenclave sealing policy"))

    return AttestationResult(rows=rows)
