"""The five round paths, each a closed loop driven by this one process.

A round (or a ``submit``) starts only when the previous one returned;
the only extra processes are ``narrow_pool``'s two pool workers.  Every
input — deployment seeds, synthetic vectors, dropout choices — is
derived here from ``--seed``; the system under test receives only the
generated inputs, and is touched only through public functions.

Sizes: cohort shapes are fixed; only the number of measured operations
scales with ``--seconds`` (``ops_per_s`` is this box's calibration, so
the same ``--seconds`` always measures the same work and exact counts
and memory stay comparable between commits).
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.client import ClientDevice, LocalDataStore
from repro.core.glimmer import GlimmerConfig, build_glimmer_image, features_digest
from repro.core.provisioning import (
    BlinderProvisioner,
    ServiceProvisioner,
    VettingRegistry,
)
from repro.core.service import CloudService
from repro.crypto import group_ops
from repro.crypto.dh import TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec
from repro.crypto.masking import BlindingService
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import AdmissionError, RoundAbortedError
from repro.experiments.common import Deployment
from repro.network.transport import Network
from repro.runtime.engine import RoundEngine
from repro.scale import ScaleConfig
from repro.scale.rounds import parallel_eligible
from repro.service import (
    STATE_APPLIED,
    DiskBackend,
    GlimmerService,
    SQLiteBackend,
)
from repro.sgx.attestation import AttestationService
from repro.sgx.measurement import VendorKey

from . import measure

#: The seed used while this benchmark was written, and one kept aside:
#: a later claim must also hold on the held-out seed.
DEV_SEED = 11
HELD_OUT_SEED = 1729

AGGREGATE_TOLERANCE = 1e-5
TENANTS = ("a", "b")


@dataclass(frozen=True)
class Size:
    clients: int
    ops_per_s: float = 0.0
    """Measured operations per ``--seconds`` second (this box's calibration)."""
    features: int = 0
    """Synthetic feature count (0: whatever the keyboard cohort yields)."""
    subgroup: int = 0
    dropouts: int = 0
    warmup_ops: int = 2
    """Real operations run, and checked, before the measured ones."""


FULL = {
    "narrow_serial": Size(clients=192, ops_per_s=0.625),
    # The first rounds through a fresh pool are slow (copy-on-write faults).
    "narrow_pool": Size(clients=192, ops_per_s=1.25, warmup_ops=3),
    "wide_streamed": Size(
        clients=32, ops_per_s=0.375, features=4096, subgroup=8, dropouts=2
    ),
    # No warm-up iterations: they would put device flushes, whose latency
    # swings 10x on this box, into ``setup_s``; and the history a disk
    # store has accumulated is part of what ``svc_disk`` measures, so the
    # window starts at an empty store.
    "svc_disk": Size(clients=32, ops_per_s=0.1875, warmup_ops=0),
    "svc_sqlite": Size(clients=64, ops_per_s=0.25, warmup_ops=0),
}

#: Same code paths and checks at tiny sizes; no timing means anything.
SMOKE = {
    "narrow_serial": Size(clients=16, warmup_ops=1),
    "narrow_pool": Size(clients=16, warmup_ops=1),
    "wide_streamed": Size(
        clients=8, features=256, subgroup=4, dropouts=2, warmup_ops=1
    ),
    "svc_disk": Size(clients=8, warmup_ops=0),
    "svc_sqlite": Size(clients=8, warmup_ops=0),
}
SMOKE_OPS = 2


def planned_ops(name: str, seconds: float, smoke: bool) -> int:
    """How many operations ``--seconds`` measures on this workload."""
    if smoke:
        return SMOKE_OPS
    return max(3, round(FULL[name].ops_per_s * seconds))


def seed_bytes(seed: int, label: str) -> bytes:
    return f"roundbench/{seed}/{label}".encode()


def table_count() -> int:
    """How many fixed-base tables ``group_ops`` holds right now.

    The one read of module-private state in this benchmark: there is no
    public accessor and no ``counters()`` entry moves when a table is
    built, yet set-up has to fill the tables and the runner has to fail a
    run that builds one while measuring.  Read directly, so that a rename
    fails the run too.
    """
    return len(group_ops._TABLES)


@dataclass
class Op:
    """What one closed-loop operation did, as timed from outside."""

    participants: int
    expected: int
    """Contributions the operation should aggregate."""
    rounds: int = 1
    wall_s: float = 0.0
    """The whole operation (service: intake plus rounds)."""
    round_wall_s: float = 0.0
    """``run_round`` (service: ``run_pending_sync``) alone."""
    cpu_s: float = 0.0
    """This process and its children, over the whole operation."""
    reports: list = field(default_factory=list)
    dropouts: tuple = ()
    submit_s: list = field(default_factory=list)
    """Wall seconds of each ``submit_honest``."""
    submissions: list = field(default_factory=list)
    refused: int = 0
    aborted: int = 0

    @property
    def contributions(self) -> int:
        return sum(report.num_contributions for report in self.reports)


class Workload:
    """Base: build the cast, warm it up, run and check operations."""

    name = ""

    def __init__(self, seed: int, size: Size, workdir: str) -> None:
        self.seed = int(seed)
        self.size = size
        self.workdir = workdir
        self.warmup_s: list[float] = []
        """Wall seconds of each warm-up operation."""

    # -- to implement ---------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def enrolments(self):
        """``(client, service_provisioner)`` pairs, in cohort order."""
        raise NotImplementedError

    def start(self) -> None:
        """After the tables are filled, before the first operation."""

    def run_op(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> list[str]:
        raise NotImplementedError

    def finish(self) -> tuple[dict[str, float], list[str]]:
        """After the last operation: extra metrics and failed checks."""
        return {}, []

    def close(self) -> None:
        pass

    def state_bytes(self) -> int:
        return 0

    def storage_retries(self) -> int:
        return 0

    # -- shared ---------------------------------------------------------
    def setup(self) -> None:
        """Build, fill the fixed-base tables, run the warm-up operations.

        A fleet reaches its steady state when ``group_ops`` has auto-built
        its budget of per-platform tables: in its seventh round (third
        service iteration), a one-off ~35 MiB and a ~1.6x-slow round.
        Real rounds get there in 9-23 s per run on the engine workloads;
        on ``narrow_pool`` each worker builds its own tables, around
        rounds 9 and 17, where the parent cannot see them; on ``svc_*``
        the iterations would put hundreds of device flushes, the noisiest
        thing on this box, into ``setup_s``.  So on every workload devices
        first re-enrol (``provision_signing_key``, which verifies their
        platform key) in cohort order until each has been verified
        ``AUTO_BUILD_THRESHOLD`` times, stopping at the first device that
        earns no new table: the tables a seventh round builds, for the
        same first devices of the cohort, in ~1.5 s.  Then ``warmup_ops``
        real operations run, each passing the same checks as a measured
        one.  The count is fixed so that every run measures the same
        window of the cast's life; the runner fails a run in which a
        table appears after warm-up.
        """
        self.build()
        tables = table_count()
        for client, provisioner in self.enrolments():
            for _ in range(group_ops.AUTO_BUILD_THRESHOLD - 1):
                client.provision_signing_key(provisioner)
            if table_count() == tables:
                break
            tables = table_count()
        self.start()
        for index in range(self.size.warmup_ops):
            op = self.run_op(-1 - index)
            failures = self.check(op)
            if failures:
                raise RuntimeError(f"warm-up operation failed: {failures}")
            self.warmup_s.append(op.wall_s)


def check_report(report, vectors, participants, dropouts) -> list[str]:
    """The always-on correctness gate for one round."""
    survivors = [u for u in participants if u not in dropouts]
    failures = []
    expected = np.mean([vectors[u] for u in survivors], axis=0)
    if report.aggregate is None:
        failures.append(f"round {report.round_id}: no aggregate")
    else:
        error = float(np.max(np.abs(np.asarray(report.aggregate) - expected)))
        if not error <= AGGREGATE_TOLERANCE:
            failures.append(
                f"round {report.round_id}: aggregate off the plaintext mean "
                f"by {error:.3g}"
            )
    if report.num_contributions != len(survivors):
        failures.append(
            f"round {report.round_id}: {report.num_contributions} contributions, "
            f"expected {len(survivors)}"
        )
    if report.masks_repaired != len(dropouts):
        failures.append(
            f"round {report.round_id}: {report.masks_repaired} masks repaired, "
            f"expected {len(dropouts)}"
        )
    return failures


# ------------------------------------------------------------ engine paths


class EngineWorkload(Workload):
    """One ``RoundEngine.run_round`` per operation."""

    engine: RoundEngine
    users: list[str]
    vectors: dict
    features: tuple
    _next_round = 1

    def dropouts_for(self, round_id: int) -> tuple[str, ...]:
        if not self.size.dropouts:
            return ()
        rng = random.Random(f"{self.seed}/dropouts/{round_id}")
        return tuple(rng.sample(self.users, self.size.dropouts))

    def run_op(self, index: int) -> Op:
        round_id = self._next_round
        self._next_round += 1
        dropouts = self.dropouts_for(round_id)
        op = Op(
            participants=len(self.users),
            expected=len(self.users) - len(dropouts),
            dropouts=dropouts,
        )
        start = time.perf_counter()
        try:
            report = self.engine.run_round(
                round_id,
                self.users,
                self.vectors,
                self.features,
                collect_dropouts=dropouts,
            )
        except RoundAbortedError:
            op.aborted = 1
        else:
            op.reports.append(report)
        op.wall_s = op.round_wall_s = time.perf_counter() - start
        return op

    def check(self, op: Op) -> list[str]:
        failures = []
        for report in op.reports:
            failures += check_report(report, self.vectors, self.users, op.dropouts)
        return failures

    def close(self) -> None:
        self.engine.close_scale_pool()


class NarrowSerial(EngineWorkload):
    """192 keyboard clients, k = 77, serial flat engine.

    Per-client public-key work (quote verify, DH, Schnorr) dominates and
    vector-length work is negligible.
    """

    name = "narrow_serial"
    parallelism = None

    def build(self) -> None:
        self.deployment = Deployment.build(
            num_users=self.size.clients,
            seed=seed_bytes(self.seed, "narrow"),
            parallelism=self.parallelism,
        )
        self.engine = self.deployment.engine
        self.users = [user.user_id for user in self.deployment.corpus.users]
        self.vectors = self.deployment.local_vectors(self.users)
        self.features = tuple(self.deployment.features.bigrams)

    def enrolments(self):
        provisioner = self.deployment.service_provisioner
        return [(client, provisioner) for client in self.deployment.clients.values()]


class NarrowPool(NarrowSerial):
    """The same cohort and seed through two pool workers and four shards."""

    name = "narrow_pool"
    parallelism = ScaleConfig(workers=2, shards=4)

    def start(self) -> None:
        # Forked here, so the workers start from the parent's tables:
        # both ``narrow_*`` measure the same state.
        self.engine.warm_scale_pool()
        # Count dispatches on this pool instance: the route check needs
        # them in the untraced pass too, at one call per round.
        self.dispatches = 0
        pool = self.engine.scale_pool()
        dispatch = pool.map_chunks

        def counted(context, chunks):
            self.dispatches += 1
            return dispatch(context, chunks)

        pool.map_chunks = counted

    def run_op(self, index: int) -> Op:
        self._dispatches_before = self.dispatches
        return super().run_op(index)

    def check(self, op: Op) -> list[str]:
        failures = super().check(op)
        if not parallel_eligible(
            self.engine,
            participants=self.users,
            blind=True,
            deadline_ms=None,
            phase_deadlines_ms={},
            claims_by_user=None,
            context_fields=(),
        ):
            failures.append("route: the round is not parallel_eligible")
        if self.dispatches - self._dispatches_before < 1:
            failures.append("route: no WorkerPool.map_chunks call in the round")
        return failures


class WideStreamed(EngineWorkload):
    """32 devices, k = 4096 synthetic features, streamed subgroups of 8.

    Built from this file (the ``e17_activity`` recipe: own config, image
    and provisioners).  Two seed-chosen participants per round complete
    provisioning and then go silent, so every round exercises §3 repair.
    """

    name = "wide_streamed"
    glimmer_name = "roundbench-wide-glimmer"

    def build(self) -> None:
        seed = seed_bytes(self.seed, "wide")
        rng = HmacDrbg(seed, personalization="roundbench-wide")
        count = self.size.features
        self.features = tuple((f"feature-{i:04d}", "value") for i in range(count))
        attestation = AttestationService(seed + b":ias")
        vendor = VendorKey.generate(rng.fork("vendor"))
        service_identity = SchnorrKeyPair.generate(rng.fork("svc"), TEST_GROUP)
        signing = SchnorrKeyPair.generate(rng.fork("sign"), TEST_GROUP)
        blinder_identity = SchnorrKeyPair.generate(rng.fork("blind"), TEST_GROUP)
        codec = FixedPointCodec()
        config = GlimmerConfig(
            predicate_spec="range:0.0:1.0",
            service_identity=service_identity.public_key,
            blinder_identity=blinder_identity.public_key,
            features_digest=features_digest(self.features),
        )
        image = build_glimmer_image(vendor, config, name=self.glimmer_name)
        registry = VettingRegistry()
        registry.publish(self.glimmer_name, image.mrenclave)
        self.service_provisioner = ServiceProvisioner(
            service_identity, signing, attestation, registry,
            self.glimmer_name, rng.fork("service-provisioner"),
        )
        blinder = BlinderProvisioner(
            blinder_identity,
            BlindingService(rng.fork("blinding-service"), codec),
            attestation, registry, self.glimmer_name,
            rng.fork("blinder-provisioner"),
        )
        self.engine = RoundEngine(
            Network(seed=seed + b":network"),
            CloudService(signing.public_key, codec),
            blinder,
            signing_public=signing.public_key,
            codec=codec,
            group=TEST_GROUP,
            parallelism=ScaleConfig(workers=0, subgroup_size=self.size.subgroup),
        )
        self.users = [f"device-{i:03d}" for i in range(self.size.clients)]
        values = np.random.default_rng([self.seed, 4096]).random(
            (len(self.users), count)
        )
        self.vectors = dict(zip(self.users, values))
        self.clients = []
        for user in self.users:
            client = ClientDevice(
                user, image, attestation,
                seed=seed + b":device:" + user.encode(),
                data=LocalDataStore(),
            )
            client.provision_signing_key(self.service_provisioner)
            self.engine.register_client(client)
            self.clients.append(client)

    def enrolments(self):
        return [(client, self.service_provisioner) for client in self.clients]

    def check(self, op: Op) -> list[str]:
        failures = super().check(op)
        for report in op.reports:
            if report.submissions_streamed != op.expected:
                failures.append(
                    f"route: {report.submissions_streamed} submissions streamed, "
                    f"expected {op.expected}"
                )
            if report.subgroups_aggregated < 1:
                failures.append("route: no subgroup partial was aggregated")
        return failures


# ----------------------------------------------------------- hosted service


class ServiceWorkload(Workload):
    """``GlimmerService`` over a durable backend, two tenants.

    One operation: ``submit_honest`` for every user of every tenant,
    then ``run_pending_sync()``.  After the last one the service is
    closed, the store reopened, and ``recover`` + ``resume_sync`` timed.
    """

    def open_backend(self):
        raise NotImplementedError

    def build(self) -> None:
        self.state_dir = os.path.join(
            self.workdir, f"state-{self.name}-{self.seed}-{os.getpid()}"
        )
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        self.backend = self.open_backend()
        self.service = GlimmerService(
            self.backend,
            base_seed=seed_bytes(self.seed, "svc"),
            num_users=self.size.clients,
            max_features=None,
            queue_capacity=self.size.clients,
        )
        for tenant in TENANTS:
            self.service.add_tenant(tenant)
        # Every tenant is built from the same base seed, so one user
        # list and one vector table serve all of them.
        deployment = self.service.tenant(TENANTS[0]).deployment
        self.users = [user.user_id for user in deployment.corpus.users]
        self.vectors = deployment.local_vectors(self.users)
        for tenant in TENANTS[1:]:
            self.service.tenant(tenant).deployment.local_vectors(self.users)

    def enrolments(self):
        pairs = []
        for tenant in TENANTS:
            deployment = self.service.tenant(tenant).deployment
            pairs += [
                (client, deployment.service_provisioner)
                for client in deployment.clients.values()
            ]
        return pairs

    def run_op(self, index: int) -> Op:
        count = len(TENANTS) * len(self.users)
        op = Op(participants=count, expected=count, rounds=len(TENANTS))
        clock = time.perf_counter
        start = clock()
        for tenant in TENANTS:
            for user in self.users:
                began = clock()
                try:
                    submission = self.service.submit_honest(tenant, user)
                except AdmissionError:
                    op.refused += 1
                else:
                    op.submissions.append((tenant, submission))
                op.submit_s.append(clock() - began)
        rounds_start = clock()
        op.reports = self.service.run_pending_sync()
        end = clock()
        op.wall_s = end - start
        op.round_wall_s = end - rounds_start
        op.aborted = len(TENANTS) - len(op.reports)
        return op

    def check(self, op: Op) -> list[str]:
        failures = []
        for report in op.reports:
            failures += check_report(report, self.vectors, self.users, ())
        for tenant, submission in op.submissions:
            state = self.service.tenant(tenant).queue.state_of(submission)
            if state != STATE_APPLIED:
                failures.append(f"submission {submission} ended {state!r}")
        return failures

    def finish(self) -> tuple[dict[str, float], list[str]]:
        self.service.close()
        self.backend.close()
        start = time.perf_counter()
        self.backend = self.open_backend()
        self.service = GlimmerService.recover(self.backend)
        unfinished = self.service.journal.unfinished()
        resumed = self.service.resume_sync()
        recover_s = time.perf_counter() - start
        failures = []
        if unfinished or resumed:
            failures.append(
                f"recover found {len(unfinished)} unfinished round(s) and "
                f"re-ran {len(resumed)}"
            )
        return {"recover_s": recover_s}, failures

    def close(self) -> None:
        self.service.close()
        self.backend.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def state_bytes(self) -> int:
        return measure.dir_bytes(self.state_dir)

    def storage_retries(self) -> int:
        return int(self.service.backend.stats["retries"])


class ServiceDisk(ServiceWorkload):
    """The CLI-default backend; its costs grow with history."""

    name = "svc_disk"

    def open_backend(self):
        return DiskBackend(self.state_dir)


class ServiceSqlite(ServiceWorkload):
    """The same service layers over a store with flat per-op cost."""

    name = "svc_sqlite"

    def open_backend(self):
        return SQLiteBackend(os.path.join(self.state_dir, "service.db"))


CLASSES = {
    cls.name: cls
    for cls in (NarrowSerial, NarrowPool, WideStreamed, ServiceDisk, ServiceSqlite)
}


def make(name: str, seed: int, smoke: bool, workdir: str) -> Workload:
    size = (SMOKE if smoke else FULL)[name]
    return CLASSES[name](seed, size, workdir)
