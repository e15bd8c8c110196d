"""Every byte layout a party parses is a declared codec record.

A delivered mask opening, the blinder's sealed round, the Glimmer's round
checkpoint, the two split-enclave links, the measured config, a measured
public key, the confidential detector and a secure-aggregation share
pair are each one ``@wire`` record read with ``codec.decode(blob,
Record)`` at its site.  Each site keeps the error its callers expect, so
for every record: a valid frame round-trips through the site, and the
frame cut by one byte, extended by one byte, or carrying one field of the
wrong type is refused with exactly that error — never an ``IndexError``,
a ``struct.error``, a ``TypeError`` or a ``UnicodeDecodeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Any, Callable

import pytest

from repro import codec
from repro.core.confidential import (
    BotDetectionService,
    ConfidentialGlimmerProgram,
    DetectorDelivery,
)
from repro.core.glimmer import (
    DETECTOR_CONTEXT,
    GlimmerConfig,
    RoundCheckpoint,
    features_digest,
)
from repro.core.provisioning import SealedRound, VettingRegistry
from repro.core.split import LinkedContribution, SplitGlimmer, build_split_images
from repro.core.validation import PrivateContext
from repro.crypto.cipher import AuthenticatedCipher
from repro.crypto.commitments import MaskOpening, decode_mask_payload
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.masking import MaskShare
from repro.crypto.schnorr import SchnorrKeyPair
from repro.crypto.secagg import (
    EncryptedShares,
    PeerShares,
    SecureAggregationClient,
    SecureAggregationServer,
)
from repro.crypto.shamir import ShamirShare
from repro.errors import (
    ConfigurationError,
    CryptoError,
    EnclaveError,
    MaskVerificationError,
    ProtocolViolation,
)
from repro.experiments.common import Deployment
from repro.perf import kernels
from repro.sgx.attestation import AttestationService, report_data_for
from repro.sgx.measurement import EnclaveImage, VendorKey
from repro.sgx.platform import SgxPlatform
from repro.workloads.botnet import DetectorWeights

W = kernels.be_words_to_bytes
F = kernels.be_doubles_to_bytes


@dataclass(frozen=True)
class Site:
    """Where a record is read: a valid sample, one field set to a value of
    the wrong type, the error the site raises, and the site itself (frame
    in, the record it read out)."""

    sample: Any
    mistyped: dict
    refusal: type
    read: Callable[[bytes], Any]


def _sealed_round_site() -> Site:
    blinder = Deployment.build(num_users=2, seed=b"layout-sealed").blinder_provisioner

    def read(frame: bytes) -> SealedRound:
        box = AuthenticatedCipher(blinder._seal_key).encrypt(
            b"n" * 16, frame, associated_data=(1).to_bytes(8, "big")
        )
        masks, opening_seed = blinder._unseal_round(1, box.to_bytes())
        plan = masks.plan
        return SealedRound(
            masks.length, plan.num_slots, plan.group_size, b"".join(masks.seeds), opening_seed
        )

    return Site(SealedRound(4, 8, 4, b"s" * 64, b"o" * 32), {"num_slots": "8"}, CryptoError, read)


def _checkpoint_site() -> Site:
    deployment = Deployment.build(num_users=1, seed=b"layout-checkpoint")
    glimmer = next(iter(deployment.clients.values())).glimmer

    def read(frame: bytes) -> RoundCheckpoint:
        round_id = glimmer.ecall("restore_round", glimmer._api.seal(frame))
        resealed = glimmer.ecall("checkpoint_round", round_id)
        return codec.decode(glimmer._api.unseal(resealed), RoundCheckpoint)

    sample = RoundCheckpoint(
        7, ((0, (64, MaskShare(2, seed=b"\x0b" * 32))), (3, (64, MaskShare(2, words=W((4, 5)))))), 0
    )
    return Site(sample, {"signings": "0"}, EnclaveError, read)


def _link_sites() -> dict[str, Site]:
    deployment = Deployment.build(num_users=1, seed=b"layout-split", provision_clients=False)
    features = (("a", "b"),)
    config = GlimmerConfig(
        predicate_spec="range:0.0:1.0",
        service_identity=deployment.service_identity.public_key,
        blinder_identity=deployment.blinder_identity.public_key,
        features_digest=features_digest(features),
    )
    platform = SgxPlatform(b"layout-split", attestation_service=deployment.attestation)
    split = SplitGlimmer(
        platform, build_split_images(deployment.vendor, config),
        ocall_handlers={"collect_private_data": lambda fields: PrivateContext()},
    )

    def over(sender, receiver, link: str) -> Callable[[bytes], LinkedContribution]:
        """Seal ``frame`` as ``sender``'s next blob on ``link`` and hand it
        to ``receiver``'s link reader."""

        def read(frame: bytes):
            program = sender._program
            seq = program._link_send_seq[link]
            program._link_send_seq[link] = seq + 1
            cipher, associated = program._link_cipher(link, seq)
            blob = cipher.encrypt(b"n" * 16, frame, associated_data=associated).to_bytes()
            return receiver._program._link_decrypt(link, blob)

        return read

    return {
        "validation-link": Site(
            LinkedContribution(1, 0, F((0.5,)), True, 1.0),
            {"blind": 1},
            ProtocolViolation,
            over(split.validation, split.blinding, "validation-blinding"),
        ),
        "signing-link": Site(
            LinkedContribution(1, 0, W((7, 8)), True, 0.5),
            {"confidence": "high"},
            ProtocolViolation,
            over(split.blinding, split.signing, "blinding-signing"),
        ),
    }


def _confidential_sites() -> dict[str, Site]:
    """The confidential Glimmer reads a measured key as its config and a
    detector delivery at install."""
    rng = HmacDrbg(b"layout-confidential")
    ias = AttestationService(b"layout-ias")
    vendor = VendorKey.generate(rng.fork("vendor"))
    platform = SgxPlatform(b"layout-platform", attestation_service=ias)
    identity = SchnorrKeyPair.generate(rng.fork("identity"), TEST_GROUP)

    def load(config: bytes):
        image = EnclaveImage.build(
            ConfidentialGlimmerProgram, vendor, name="bot-glimmer", config=config
        )
        return image, platform.load_enclave(image)

    def read_key(frame: bytes):
        return load(frame)[1]._program._service_identity

    image, enclave = load(codec.encode(identity.public_key))
    registry = VettingRegistry()
    registry.publish("bot-glimmer", image.mrenclave)
    service = BotDetectionService(
        identity, DetectorWeights(), ias, registry, "bot-glimmer", rng.fork("service")
    )
    sessions = count()

    def read_detector(frame: bytes) -> DetectorDelivery:
        session = f"layout-{next(sessions)}".encode()
        public = enclave.ecall("begin_handshake", session)
        quote = platform.quote_enclave(enclave, report_data_for(public.to_bytes(256, "big")))
        enclave.ecall(
            "install_detector", service._deliver(session, public, quote, frame, DETECTOR_CONTEXT)
        )
        program = enclave._program
        return DetectorDelivery(program._detector, program._reporting.secret)

    def key(group):
        return SchnorrKeyPair.generate(rng.fork(group.name), group).public_key

    detector = DetectorWeights(weights=(1.0, -2.5, 3.25), bias=0.5, threshold=-1.0)
    return {
        "key-test-group": Site(
            key(TEST_GROUP), {"group": TEST_GROUP.name}, ConfigurationError, read_key
        ),
        "key-oakley": Site(
            key(OAKLEY_GROUP_1), {"group": OAKLEY_GROUP_1.name}, ConfigurationError, read_key
        ),
        "detector": Site(
            DetectorDelivery(detector, 12345), {"reporting_secret": 1.5}, CryptoError,
            read_detector,
        ),
    }


def _shares_site() -> Site:
    server = SecureAggregationServer(group=TEST_GROUP)
    clients = [
        SecureAggregationClient(i, HmacDrbg(bytes([i])), group=TEST_GROUP) for i in range(3)
    ]
    roster = server.register([client.advertise() for client in clients], 2)
    for client in clients:
        client.share_keys(roster, 2)
    cipher = AuthenticatedCipher(clients[0]._pairwise_key(roster[1], "share-transport"))
    associated = (0).to_bytes(4, "big") + (1).to_bytes(4, "big")

    def read(frame: bytes) -> PeerShares:
        box = cipher.encrypt(b"n" * 16, frame, associated_data=associated)
        clients[1].receive_shares([EncryptedShares(sender=0, receiver=1, box=box)])
        return clients[1]._held_shares[0]

    sample = PeerShares(ShamirShare(1, 5), ShamirShare(1, 6))
    return Site(sample, {"seed_share": (1, 5)}, CryptoError, read)


@pytest.fixture(scope="module")
def sites() -> dict[str, Site]:
    service_key = SchnorrKeyPair.generate(HmacDrbg(b"layout-config"), TEST_GROUP).public_key
    return {
        "delivery-opening": Site(
            MaskOpening(MaskShare(2, words=W((1, (1 << 64) - 1))), b"\x06" * 32, 9, TEST_GROUP),
            {"salt": 7},
            MaskVerificationError,
            decode_mask_payload,
        ),
        "sealed-round": _sealed_round_site(),
        "checkpoint": _checkpoint_site(),
        **_link_sites(),
        "config": Site(
            GlimmerConfig("range:0.0:1.0", service_key, service_key, b"\x0d" * 32, 0.25),
            {"predicate_spec": b"range:0.0:1.0"},
            ConfigurationError,
            GlimmerConfig.decode,
        ),
        **_confidential_sites(),
        "shares": _shares_site(),
    }


RECORDS = [
    "delivery-opening", "sealed-round", "checkpoint", "validation-link", "signing-link",
    "config", "key-test-group", "key-oakley", "detector", "shares",
]


@pytest.mark.parametrize("name", RECORDS)
def test_a_valid_frame_round_trips_through_its_site(sites, name):
    site = sites[name]
    assert site.read(codec.encode(site.sample)) == site.sample


@pytest.mark.parametrize("damage", ["truncated", "extended", "mistyped"])
@pytest.mark.parametrize("name", RECORDS)
def test_a_damaged_frame_is_refused_with_the_sites_error(sites, name, damage):
    site = sites[name]
    frame = codec.encode(site.sample)
    damaged = {
        "truncated": lambda: frame[:-1],
        "extended": lambda: frame + b"\x00",
        "mistyped": lambda: codec.encode(replace(site.sample, **site.mistyped)),
    }[damage]()
    with pytest.raises(Exception) as excinfo:
        site.read(damaged)
    assert type(excinfo.value) is site.refusal, repr(excinfo.value)


# ------------------------------------------------------------ not UTF-8


def test_a_config_spec_that_is_not_utf8_is_a_configuration_error():
    """A measured config whose predicate spec is not UTF-8 is a
    ``ConfigurationError``, not a ``UnicodeDecodeError``."""
    deployment = Deployment.build(num_users=1, seed=b"layout-utf8")
    blob = bytearray(deployment.image.config)
    spec = GlimmerConfig.decode(bytes(blob)).predicate_spec.encode()
    blob[bytes(blob).index(spec)] = 0xFF
    with pytest.raises(ConfigurationError):
        GlimmerConfig.decode(bytes(blob))


def test_a_measured_key_whose_group_code_names_no_group_is_a_configuration_error(sites):
    """The same for a confidential Glimmer's measured key: a group code
    that names no shipped group refuses the load."""
    site = sites["key-test-group"]
    frame = bytearray(codec.encode(site.sample))
    assert frame[2] == TEST_GROUP.code  # after the 2-byte class tag
    frame[2] = 0xFF
    with pytest.raises(ConfigurationError):
        site.read(bytes(frame))
