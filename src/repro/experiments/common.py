"""Shared experiment scaffolding: a ready-to-run Glimmer deployment.

Every end-to-end experiment needs the same cast — attestation service,
vendor, vetted Glimmer image, service and blinding-service provisioners,
cloud service, a corpus, and a fleet of clients.  :class:`Deployment`
builds it once so experiment modules stay about *their* question.

Experiments default to the fast :data:`~repro.crypto.dh.TEST_GROUP` (the
crypto is simulation-grade either way); pass ``group=OAKLEY_GROUP_1`` to
price realistic key sizes in the overhead experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.client import ClientDevice, LocalDataStore, MaliciousClient
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest
from repro.core.provisioning import (
    BlinderProvisioner,
    ServiceProvisioner,
    VettingRegistry,
)
from repro.core.remote import IoTClient, RemoteGlimmerHost
from repro.core.service import CloudService
from repro.core.validation import PrivateContext
from repro.crypto.dh import DHGroup, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import BlindingService
from repro.crypto.schnorr import SchnorrKeyPair
from repro.federated.model import FeatureSpace
from repro.federated.trainer import LocalTrainer
from repro.network.transport import Network
from repro.runtime.engine import RoundEngine
from repro.runtime.telemetry import RoundReport
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import EnclaveImage, VendorKey
from repro.workloads.text import KeyboardCorpus

GLIMMER_NAME = "keyboard-glimmer"


@dataclass
class Deployment:
    """A complete, provisioned Glimmer deployment over a keyboard corpus."""

    rng: HmacDrbg
    group: DHGroup
    corpus: KeyboardCorpus
    features: FeatureSpace
    trainer: LocalTrainer
    codec: FixedPointCodec
    attestation: AttestationService
    vendor: VendorKey
    service_identity: SchnorrKeyPair
    signing_keypair: SchnorrKeyPair
    blinder_identity: SchnorrKeyPair
    image: EnclaveImage
    registry: VettingRegistry
    service_provisioner: ServiceProvisioner
    blinder_provisioner: BlinderProvisioner
    service: CloudService
    network: Network
    engine: RoundEngine
    clients: dict[str, ClientDevice] = field(default_factory=dict)
    last_report: RoundReport | None = None
    _vector_cache: dict[str, np.ndarray] = field(default_factory=dict)
    _fault_injector: object | None = None

    @classmethod
    def build(
        cls,
        num_users: int = 16,
        seed: bytes = b"glimmer-deployment",
        predicate_spec: str = "range:0.0:1.0",
        sentences_per_user: int = 30,
        group: DHGroup = TEST_GROUP,
        max_features: int | None = None,
        provision_clients: bool = True,
        dp_sigma: float = 0.0,
        parallelism=None,
        features=None,
    ) -> "Deployment":
        """Stand up the whole cast and (optionally) provision every client.

        ``features`` is the published feature list, as pairs; with none,
        the corpus's bigrams are published.  Given, no corpus is drawn (the
        deployment has no corpus users; devices come from
        :meth:`make_client` with their own data), but the corpus's fork is
        still taken, so every later fork matches a corpus build's.
        """
        rng = HmacDrbg(seed, personalization="deployment")
        corpus_rng = rng.fork("corpus")
        if features is None:
            corpus = KeyboardCorpus.generate(
                num_users, corpus_rng, sentences_per_user=sentences_per_user
            )
            features = FeatureSpace.from_corpus(corpus.all_sentences(), max_features)
        else:
            corpus = KeyboardCorpus(users=[])
            features = FeatureSpace(tuple(features))
        codec = FixedPointCodec()
        attestation = AttestationService(seed + b":ias")
        vendor = VendorKey.generate(rng.fork("vendor"))
        service_identity = SchnorrKeyPair.generate(rng.fork("service-identity"), group)
        signing_keypair = SchnorrKeyPair.generate(rng.fork("signing-key"), group)
        blinder_identity = SchnorrKeyPair.generate(rng.fork("blinder-identity"), group)
        config = GlimmerConfig(
            predicate_spec=predicate_spec,
            service_identity=service_identity.public_key,
            blinder_identity=blinder_identity.public_key,
            features_digest=features_digest(features.bigrams),
            dp_sigma=dp_sigma,
        )
        image = build_glimmer_image(vendor, config, name=GLIMMER_NAME)
        registry = VettingRegistry()
        registry.publish(GLIMMER_NAME, image.mrenclave)
        service_provisioner = ServiceProvisioner(
            service_identity, signing_keypair, attestation, registry,
            GLIMMER_NAME, rng.fork("service-provisioner"),
        )
        blinder_provisioner = BlinderProvisioner(
            blinder_identity,
            BlindingService(rng.fork("blinding-service"), codec),
            attestation, registry, GLIMMER_NAME, rng.fork("blinder-provisioner"),
        )
        service = CloudService(signing_keypair.public_key, codec)
        network = Network(seed=seed + b":network")
        engine = RoundEngine(
            network,
            service,
            blinder_provisioner,
            signing_public=signing_keypair.public_key,
            codec=codec,
            group=group,
            parallelism=parallelism,
            glimmer_config=config,
        )
        deployment = cls(
            rng=rng,
            group=group,
            corpus=corpus,
            features=features,
            trainer=LocalTrainer(features),
            codec=codec,
            attestation=attestation,
            vendor=vendor,
            service_identity=service_identity,
            signing_keypair=signing_keypair,
            blinder_identity=blinder_identity,
            image=image,
            registry=registry,
            service_provisioner=service_provisioner,
            blinder_provisioner=blinder_provisioner,
            service=service,
            network=network,
            engine=engine,
        )
        if provision_clients:
            for user in corpus.users:
                deployment.make_client(user.user_id)
        return deployment

    # ----------------------------------------------------------- client mgmt

    def make_client(
        self, user_id: str, malicious: bool = False, data: LocalDataStore | None = None
    ) -> ClientDevice:
        """Build (and signing-key-provision) a client for a corpus user."""
        if data is None:
            sentences = self.corpus.streams.get(user_id, [])
            data = LocalDataStore(PrivateContext(sentences=list(sentences)))
        client_class = MaliciousClient if malicious else ClientDevice
        client = client_class(
            user_id,
            self.image,
            self.attestation,
            seed=b"client:" + user_id.encode("utf-8"),
            data=data,
        )
        client.provision_signing_key(self.service_provisioner)
        client.platform.fault_injector = self._fault_injector
        self.clients[user_id] = client
        self.engine.register_client(client)
        return client

    def make_host(self, host_name: str) -> RemoteGlimmerHost:
        """Put a §4.2 Glimmer host on the bus, its signing key provisioned."""
        host = RemoteGlimmerHost(
            host_name, self.image, self.attestation, self.network,
            seed=b"host:" + host_name.encode("utf-8"),
        )
        host.provision_signing_key(self.service_provisioner)
        host.platform.fault_injector = self._fault_injector
        return host

    def make_iot_client(self, device_id: str, host: RemoteGlimmerHost) -> IoTClient:
        """Build a TEE-less device behind ``host`` and register it on the bus."""
        client = IoTClient(
            device_id, host, self.attestation, self.registry, GLIMMER_NAME,
            seed=b"iot:" + device_id.encode("utf-8"), group=self.group,
        )
        self.clients[device_id] = client
        self.engine.register_client(client)
        return client

    def enable_faults(self, injector) -> None:
        """Wire a :class:`repro.faults.FaultInjector` into every layer.

        The transport consults it per message leg, each client's SGX
        platform per ecall and restart, and the engine at phase
        boundaries and client lifecycle sites.  Pass ``None`` to turn
        fault injection back off.  Clients built after this call inherit
        the injector too.
        """
        self._fault_injector = injector
        self.network.fault_injector = injector
        self.engine.fault_injector = injector
        for client in self.clients.values():
            client.platform.fault_injector = injector

    # ------------------------------------------------------------ round glue

    def open_round(self, round_id: int, participants: list[str]) -> None:
        """Open a blinded round and provision masks over the message bus."""
        self.engine.open_round(round_id, len(participants), len(self.features))
        for index, user_id in enumerate(participants):
            self.engine.provision_mask(user_id, round_id, index)

    def local_vectors(
        self, participants: list[str] | None = None
    ) -> dict[str, np.ndarray]:
        """Honestly trained contribution vectors, cached across rounds.

        Training is deterministic per user, so each user is trained at
        most once per deployment; pass ``participants`` to train only the
        users a round actually needs.
        """
        if participants is None:
            participants = [user.user_id for user in self.corpus.users]
        for user_id in participants:
            if user_id not in self._vector_cache:
                self._vector_cache[user_id] = self.trainer.train(
                    self.corpus.streams[user_id]
                ).contribution()
        return {user_id: self._vector_cache[user_id] for user_id in participants}

    def honest_round(
        self,
        round_id: int,
        participants: list[str] | None = None,
        dropouts: list[str] | None = None,
    ) -> "np.ndarray":
        """Run one fully honest blinded round over the message bus.

        Returns the aggregate vector; the full :class:`RoundReport` (with
        transport and enclave telemetry) lands in :attr:`last_report`.
        """
        participants = participants or [u.user_id for u in self.corpus.users]
        vectors = self.local_vectors(participants)
        self.last_report = self.engine.run_round(
            round_id,
            participants,
            vectors,
            self.features.bigrams,
            dropouts=tuple(dropouts or ()),
        )
        return self.last_report.aggregate
