"""§3's attested delivery resumes the same way into every enclave variant.

The single-enclave Glimmer, the split signing and blinding components and
the §4.1 confidential Glimmer all open deliveries through one
:class:`~repro.core.glimmer.HandshakeSessions`; this pins the behaviour
only the first of them used to have a test for.
"""

import pytest

from repro.core.confidential import BotDetectionService, build_confidential_image
from repro.core.glimmer import GlimmerConfig, features_digest
from repro.core.provisioning import BlinderProvisioner, ServiceProvisioner
from repro.core.split import build_split_images
from repro.crypto.group_ops import DHSessionCache
from repro.crypto.masking import BlindingService
from repro.experiments.common import Deployment
from repro.sgx.attestation import report_data_for
from repro.sgx.platform import SgxPlatform
from repro.workloads.botnet import DetectorWeights

FEATURES = (("a", "b"), ("c", "d"), ("e", "f"))


def _platform(deployment):
    return SgxPlatform(b"delivery-platform", attestation_service=deployment.attestation)


def _glimmer(deployment):
    """Mask deliveries into the single-enclave Glimmer."""
    client = deployment.make_client(deployment.corpus.users[0].user_id)
    provisioner = deployment.blinder_provisioner
    for round_id in (1, 2):
        provisioner.open_round(round_id, 1, len(deployment.features))
    return (
        client.platform,
        client.glimmer,
        provisioner,
        lambda n, *offer: client.glimmer.ecall(
            "install_blinding_mask", n, 0, provisioner.provision_mask(*offer, n, 0)
        ),
    )


def _split_images(deployment):
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(FEATURES),
    )
    return build_split_images(deployment.vendor, config)


def _split_signing(deployment):
    platform = _platform(deployment)
    image = _split_images(deployment).signing
    deployment.registry.publish("glimmer-signing", image.mrenclave)
    enclave = platform.load_enclave(image)
    provisioner = ServiceProvisioner(
        deployment.service_identity, deployment.signing_keypair,
        deployment.attestation, deployment.registry, "glimmer-signing",
        deployment.rng.fork("split-sp"),
    )
    return (
        platform,
        enclave,
        provisioner,
        lambda n, *offer: enclave.ecall(
            "install_signing_key", provisioner.provision_signing_key(*offer)
        ),
    )


def _split_blinding(deployment):
    platform = _platform(deployment)
    image = _split_images(deployment).blinding
    deployment.registry.publish("glimmer-blinding", image.mrenclave)
    enclave = platform.load_enclave(image)
    provisioner = BlinderProvisioner(
        deployment.blinder_identity,
        BlindingService(deployment.rng.fork("split-bs"), deployment.codec),
        deployment.attestation, deployment.registry, "glimmer-blinding",
        deployment.rng.fork("split-bp"),
    )
    for round_id in (1, 2):
        provisioner.open_round(round_id, 1, len(FEATURES))
    return (
        platform,
        enclave,
        provisioner,
        lambda n, *offer: enclave.ecall(
            "install_blinding_mask", n, 0, provisioner.provision_mask(*offer, n, 0)
        ),
    )


def _confidential(deployment):
    platform = _platform(deployment)
    image = build_confidential_image(
        deployment.vendor, deployment.service_identity.public_key
    )
    deployment.registry.publish("bot-glimmer", image.mrenclave)
    enclave = platform.load_enclave(image)
    provisioner = BotDetectionService(
        deployment.service_identity, DetectorWeights(), deployment.attestation,
        deployment.registry, "bot-glimmer", deployment.rng.fork("bot-svc"),
    )
    return (
        platform,
        enclave,
        provisioner,
        lambda n, *offer: enclave.ecall(
            "install_detector", provisioner.provision_detector(*offer)
        ),
    )


@pytest.mark.parametrize(
    "variant", [_glimmer, _split_signing, _split_blinding, _confidential]
)
def test_second_delivery_to_a_platform_resumes(variant):
    deployment = Deployment.build(
        num_users=1, seed=b"attested-delivery", provision_clients=False
    )
    platform, enclave, provisioner, deliver = variant(deployment)
    provisioner.session_cache = DHSessionCache()

    def crypto_cycles_of_delivery(n):
        before = enclave.meter.buckets.get("enclave-crypto", 0)
        session = b"delivery-%d" % n
        public = enclave.ecall("begin_handshake", session)
        quote = platform.quote_enclave(
            enclave, report_data_for(public.to_bytes(256, "big"))
        )
        deliver(n, session, public, quote)  # raises if it does not open
        return enclave.meter.buckets["enclave-crypto"] - before

    full, resumed = crypto_cycles_of_delivery(1), crypto_cycles_of_delivery(2)
    # The difference is the second charge_dh — the shared-secret
    # exponentiation a resumed leg skips — give or take the AEAD charge
    # on a payload whose integer fields encode a few bytes apart.
    costs = platform.cost_model
    assert abs(full - resumed - costs.dh_cycles) <= 16 * costs.aead_cycles_per_byte
    assert resumed >= costs.dh_cycles  # the handshake itself
    assert provisioner.session_cache.counters() == {
        "stores": 1, "hits": 1, "evictions": 0, "entries": 1,
    }
