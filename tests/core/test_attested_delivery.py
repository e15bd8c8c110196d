"""§3's attested delivery, into every enclave variant.

The single-enclave Glimmer, the split signing and blinding components and
the §4.1 confidential Glimmer all open deliveries through one
:class:`~repro.core.glimmer.HandshakeSessions`.  A per-round mask opens a
session on its first full delivery and rides it afterwards; a one-shot
secret (signing key, detector) is a full attested delivery every time.
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.core.client import attested_handshake, mask_delivery
from repro.core.confidential import BotDetectionService, build_confidential_image
from repro.core.glimmer import GlimmerConfig, features_digest
from repro.core.provisioning import BlinderProvisioner, ServiceProvisioner
from repro.core.split import build_split_images
from repro.crypto import group_ops
from repro.crypto.fixedpoint import ring_width
from repro.crypto.masking import BlindingService
from repro.experiments.common import Deployment
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
        lambda n, *request: provisioner.provision_mask(*request, n, 0),
        lambda n, delivery: client.glimmer.ecall(
            "install_blinding_mask", n, 0, delivery,
            provisioner.round_commitments(n).record_for(0), ring_width(1),
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
        lambda n, *request: provisioner.provision_signing_key(*request),
        lambda n, delivery: enclave.ecall("install_signing_key", delivery),
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
        lambda n, *request: provisioner.provision_mask(*request, n, 0),
        lambda n, delivery: enclave.ecall(
            "install_blinding_mask", n, 0, delivery,
            provisioner.round_commitments(n).record_for(0), ring_width(1),
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
        lambda n, *request: provisioner.provision_detector(*request),
        lambda n, delivery: enclave.ecall("install_detector", delivery),
    )


def _cycles_per_delivery(variant, deliver):
    """Build the variant on a default deployment; ``deliver(...)`` twice,
    returning the enclave-crypto cycles each cost."""
    deployment = Deployment.build(
        num_users=1, seed=b"attested-delivery", provision_clients=False
    )
    platform, enclave, provisioner, request, install = variant(deployment)

    def crypto_cycles_of_delivery(n):
        before = enclave.meter.buckets.get("enclave-crypto", 0)
        handshake = partial(attested_handshake, platform, enclave, b"delivery-%d" % n)
        deliver(handshake, partial(request, n), partial(install, n))
        return enclave.meter.buckets["enclave-crypto"] - before

    cycles = crypto_cycles_of_delivery(1), crypto_cycles_of_delivery(2)
    return platform.cost_model, provisioner, cycles


@pytest.mark.parametrize("variant", [_glimmer, _split_blinding])
def test_second_delivery_to_a_platform_resumes(variant):
    """The second mask rides the session the first opened: no keygen, no
    shared-secret exponentiation, no handshake signature — only AEAD."""
    host = SimpleNamespace(mask_session=None, unanswered_handshake=None)
    costs, provisioner, (full, resumed) = _cycles_per_delivery(
        variant, partial(mask_delivery, host)
    )
    # The difference is the two DH charges (begin_handshake's keygen,
    # open's shared secret) plus the hashing of the report the quote is
    # built on; what is left in session is the AEAD alone.
    extra = full - resumed - 2 * costs.dh_cycles
    assert 0 <= extra <= 512 * costs.hash_cycles_per_byte
    # Both check every mask's opening, full or in session, at the price
    # of a signature: the split blinding component runs the same step.
    assert 0 < resumed - costs.signature_cycles < costs.dh_cycles
    counters = provisioner.sessions.counters()
    assert (counters["full_verifications"], counters["resumed"]) == (1, 1)


@pytest.mark.parametrize("variant", [_split_signing, _confidential])
def test_one_shot_delivery_never_resumes(variant):
    """A signing key or detector is delivered in full every time, and the
    enclave keeps no session for it."""
    costs, _provisioner, (first, second) = _cycles_per_delivery(
        variant,
        lambda handshake, request, install: install(request(*handshake())),
    )
    assert first == second
    assert first >= 2 * costs.dh_cycles


def test_a_first_delivery_remembers_neither_handshake_public():
    """Each side checks the other's handshake public once, when it opens
    the delivery, so neither half joins the membership memo kept for
    long-lived keys checked again and again."""
    deployment = Deployment.build(
        num_users=1, seed=b"attested-delivery", provision_clients=False
    )
    platform, enclave, provisioner, request, install = _glimmer(deployment)
    session_id, dh_public, quote = attested_handshake(platform, enclave, b"delivery-1")
    delivery = request(1, session_id, dh_public, quote)
    install(1, delivery)
    prime = provisioner.identity.group.prime
    assert delivery.peer_dh_public and delivery.peer_dh_public != dh_public
    for public in (dh_public, delivery.peer_dh_public):
        assert (prime, public) not in group_ops._MEMBERS
