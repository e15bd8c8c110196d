"""The RoundEngine: message-bus orchestration of Glimmer rounds.

The engine owns the round lifecycle — open → provision → collect →
finalize — and drives it entirely with typed messages over
:class:`repro.network.transport.Network`:

* **open**: the blinding service samples this round's sum-zero masks and
  the cloud service starts accepting contributions;
* **provision**: each participant is commanded to run its attested
  handshake against the blinding service and install its mask;
* **collect**: each participant is commanded to train-endorse-submit; the
  signed contribution travels client → service over the bus, where drop
  models and adversaries apply;
* **finalize**: every mask slot that never produced an *accepted*
  contribution (dropout, validation rejection, lost submission) is
  revealed by the blinding service and handed to the cloud service for §3
  repair, so the aggregate over survivors is exact.  Finalizing — like
  abandoning an aborted round — then *retires* the round at every party
  (:meth:`RoundEngine._retire_round`): each drops what it held for the
  round and keeps only the id, so resident state is O(open rounds).

Delivery is **at-least-once**: either leg of a call can drop, so a failed
call may still have executed its handler.  Retries are therefore paired
with handler-side idempotency (see :mod:`repro.runtime.endpoints`), and a
submission whose every attempt failed is *reconciled* — the engine asks
the service whether the nonce landed before deciding the slot's fate.  A
slot that cannot be reconciled is *unresolved*, and an unresolved slot
forces an abort: revealing its mask might double-count a contribution
that was actually accepted, and exactness outranks availability.

Retries use exponential backoff capped at ``max_backoff_ms`` with
deterministic DRBG-derived jitter, so storms decorrelate without
breaking replayability.  Crashed client enclaves are restarted once and
recover from sealed checkpoints; a crashed blinding service is restarted
at the next phase boundary and recovers from its sealed round state.  A
round that still loses more participants than ``recovery_threshold``
allows raises :class:`~repro.errors.RoundAbortedError` — with its phase
window closed and a partial :class:`~repro.runtime.telemetry.RoundReport`
(``aborted=True``) as its ``.report``, so telemetry survives the failure.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.core.glimmer import deflate_features, features_digest
from repro.crypto import group_ops
from repro.crypto.commitments import (
    MaskCommitmentSet,
    MaskOpening,
    batch_verify_openings,
    verify_opening,
)
from repro.crypto.drbg import HmacDrbg
from repro.crypto.fixedpoint import FixedPointCodec, ring_width, word_bound
from repro.crypto.schnorr import batch_verify as batch_verify_signatures
from repro.perf import kernels
from repro.errors import (
    CryptoError,
    EnclaveError,
    MaskVerificationError,
    NetworkError,
    ProtocolError,
    ProtocolViolation,
    RefusedAtWire,
    ReproError,
    RoundAbortedError,
)
from repro.faults import ACTION_CRASH, ACTION_STALL, SITE_BLINDER, SITE_PHASE_STALL
from repro.network.transport import Network
from repro.runtime import messages as m
from repro.runtime.deadlines import AdaptiveDeadlines, PhaseDeadlineController
from repro.runtime.endpoints import BlinderEndpoint, ClientEndpoint, ServiceEndpoint
from repro.runtime.messages import BLINDER, ENGINE, SERVICE, client_endpoint
from repro.runtime.protocol import (
    SIGNING_KEY,
    VIOLATION_AGGREGATE_TAMPERING,
    VIOLATION_EQUIVOCATION,
    VIOLATION_FLOODING,
    VIOLATION_MALFORMED,
    VIOLATION_MASK_COMMITMENT,
    VIOLATION_MASK_OPENING,
    VIOLATION_NON_SUM_ZERO,
    VIOLATION_OUT_OF_RANGE,
    ProtocolMonitor,
    Quarantine,
)
from repro.runtime.telemetry import (
    OUTCOME_ACCEPTED,
    OUTCOME_CRASHED,
    OUTCOME_DEADLINE_MISSED,
    OUTCOME_DROPOUT,
    OUTCOME_EVICTED,
    OUTCOME_PARTITIONED,
    OUTCOME_PROVISION_FAILED,
    OUTCOME_QUARANTINED,
    OUTCOME_SUBMIT_FAILED,
    OUTCOME_UNREACHABLE,
    PhaseStats,
    RoundReport,
    meter_delta,
    meter_snapshot,
)
from repro.scale import shard as scale_shard
from repro.scale.config import RoutePlan
from repro.scale.subgroup import plan_subgroups

__all__ = ["RoundEngine", "ENGINE", "SERVICE", "BLINDER", "client_endpoint"]

#: Simulated wall-clock cost of an injected phase stall (SITE_PHASE_STALL).
PHASE_STALL_MS = 40.0


#: The :class:`RoundReport` counters a round accumulates while it is open.
#: The record carries each under the report's own field name, so it is
#: declared there and listed here — nowhere else.
_REPORT_COUNTERS = (
    "retries",
    "ecalls",
    "client_restarts",
    "late_replies_discarded",
    "hedged_deliveries",
    "stragglers",
    "partition_trimmed",
    "submissions_reconciled",
    "subgroup_size",
    "subgroup_dropout_repairs",
    "submissions_streamed",
)


class _RoundRecord:
    """Engine-side accounting for one in-flight round."""

    def __init__(
        self,
        network: Network,
        round_id: int,
        num_slots: int,
        route: RoutePlan = RoutePlan(),
    ):
        self.round_id = round_id
        self.num_slots = num_slots
        self.route = route  # executor + accumulator; open, pool and finalize read it
        #: The bits the round's blinded words cross at, decided at open.
        self.width = 0
        self.opened_at_ms = network.clock.now_ms()
        self.participants: list[str] = []
        self.provisioned: dict[int, str] = {}
        self.consumed: set[int] = set()
        self.unresolved: set[int] = set()
        self.commitments = None  # the blinder's published MaskCommitmentSet
        self.slot_nonce: dict[int, bytes] = {}  # engine-witnessed accepts
        self.quarantined_now: list[str] = []
        self.outcomes: dict[str, str] = {}
        for counter in _REPORT_COUNTERS:
            setattr(self, counter, 0)
        self.faults0 = 0
        self.joined: dict[str, Any] = {}
        self.subgroup_plan = None  # SubgroupPlan on hierarchical rounds
        self.meter_start: dict[str, dict[str, int]] = {}
        self.pk_counters0 = group_ops.counters()
        self.sessions_resumed0 = 0  # the blinder session table's, at open
        self.messages0 = network.messages_delivered + network.messages_dropped
        self.dropped0 = network.messages_dropped
        self.bytes0 = network.bytes_delivered
        self.replied0 = network.bytes_replied
        self.phases: list[PhaseStats] = []
        self.window: tuple[str, int, int, int, float] | None = None

    def note_participant(self, client_id: str) -> None:
        if client_id not in self.participants:
            self.participants.append(client_id)

    def provision_command(self, slot: int) -> m.ProvisionMask:
        """What provisions ``slot``: its vouched record and the round's width."""
        return m.ProvisionMask(self.commitments.record_for(slot), self.width)


class RoundEngine:
    """Orchestrates contribution rounds over a simulated transport.

    ``signing_public``, ``codec`` and ``group`` are the deployment's own
    anchors, and every round is held to them: the vetted key every
    aggregated contribution must be signed under, the codec the audit
    decodes its recomputed aggregate with, and the group the blinder's
    commitments must use.  None of them is read off a party under audit.
    ``glimmer_config`` is the vetted Glimmer's measured config: its
    :attr:`~repro.core.glimmer.GlimmerConfig.magnitude`, the largest value
    a contribution it signs may hold, sizes every round's words and
    bounds every aggregate the audit passes.  With none, the codec's
    ``bound`` does both.
    """

    def __init__(
        self,
        network: Network,
        service,
        blinder_provisioner,
        *,
        signing_public,
        codec,
        group,
        max_attempts: int = 5,
        backoff_ms: float = 8.0,
        max_backoff_ms: float = 256.0,
        recovery_threshold: float = 0.0,
        fault_injector=None,
        seed: bytes = b"round-engine",
        quarantine: Quarantine | None = None,
        parallelism=None,
        glimmer_config=None,
    ) -> None:
        self.network = network
        self.service = service
        self.blinder_provisioner = blinder_provisioner
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_ms = float(backoff_ms)
        self.max_backoff_ms = float(max_backoff_ms)
        self.recovery_threshold = float(recovery_threshold)
        self.fault_injector = fault_injector
        self.signing_public = signing_public
        self.codec = codec
        self.group = group
        self.magnitude = (
            FixedPointCodec.bound if glimmer_config is None else glimmer_config.magnitude
        )
        self.quarantine = quarantine or Quarantine()
        self.parallelism = parallelism
        """Optional :class:`repro.scale.ScaleConfig`: what the engine
        *wants* — ``workers > 0`` a process pool for provision and
        collect with sharded aggregation, ``subgroup_size > 0`` streamed
        subgroup accumulators.  What a given round *gets* is decided by
        :func:`repro.scale.rounds.plan_route`, once, in
        :meth:`round_stages`; a blocked round — and an engine with no
        config — takes the serial flat bus path below, unchanged."""
        self._scale_pool = None
        self.link_conditions = None
        """Optional :class:`repro.network.conditions.LinkConditions`
        reachability oracle (see :meth:`attach_conditions`)."""
        self.monitor = ProtocolMonitor(self.quarantine)
        self._retry_rng = HmacDrbg(seed, personalization="retry-jitter")
        self.clients: dict[str, Any] = {}
        self.client_endpoints: dict[str, ClientEndpoint] = {}
        #: client id -> digest of the feature list its host holds, set only
        #: by an accepted bus contribution (:meth:`contribute`).
        self._published: dict[str, bytes] = {}
        #: (tuple, packed, digest) for the last feature list packed.
        self._feature_list: tuple[Any, bytes, bytes] = (None, b"", b"")
        self._rounds: dict[int, _RoundRecord] = {}
        network.register(ENGINE, {})
        self._service_endpoint = ServiceEndpoint(service, monitor=self.monitor)
        network.register(SERVICE, self._service_endpoint.handlers())
        network.register(
            BLINDER,
            BlinderEndpoint(blinder_provisioner, monitor=self.monitor).handlers(),
        )

    # -------------------------------------------------------------- topology

    def register_client(self, client) -> str:
        """Attach a client device to the bus; returns its endpoint name.

        Re-registering the same client id replaces its handlers (E15's
        restart-evasion arm rebuilds enclaves mid-round) with the stock
        :class:`ClientEndpoint`, whatever endpoint stood there before.
        """
        return self.attach_client(
            ClientEndpoint(self, client, client_endpoint(client.client_id))
        )

    def attach_client(self, endpoint: ClientEndpoint) -> str:
        """Put a client endpoint on the bus under its device's name.

        The engine keeps it, as it keeps ``_service_endpoint``:
        :func:`repro.scale.rounds.plan_route` holds a round with a
        non-stock endpoint (a Byzantine attacker's) to the serial path.
        A new endpoint is a new host, holding no feature list yet.
        """
        client_id = endpoint.client.client_id
        self._published.pop(client_id, None)
        if client_id in self.clients:
            for kind, handler in endpoint.handlers().items():
                self.network.add_handler(endpoint.name, kind, handler)
        else:
            self.network.register(endpoint.name, endpoint.handlers())
        self.clients[client_id] = endpoint.client
        self.client_endpoints[client_id] = endpoint
        return endpoint.name

    def attach_service(self, service) -> None:
        """Swap the cloud service behind the engine and its bus endpoint.

        The engine, the ``SERVICE`` handlers and the endpoint whose
        per-round cache :meth:`_retire_round` purges must all name the
        same object, so a wrapper (e.g. a Byzantine aggregator) goes in
        through here rather than by re-registering handlers by hand.
        """
        self.service = service
        self._service_endpoint = ServiceEndpoint(service, monitor=self.monitor)
        for kind, handler in self._service_endpoint.handlers().items():
            self.network.add_handler(SERVICE, kind, handler)

    def attach_blinder(self, provisioner) -> None:
        """Swap the blinding service behind the engine and its bus endpoint."""
        self.blinder_provisioner = provisioner
        endpoint = BlinderEndpoint(provisioner, monitor=self.monitor)
        for kind, handler in endpoint.handlers().items():
            self.network.add_handler(BLINDER, kind, handler)

    def _client_name(self, client_id: str) -> str:
        if client_id not in self.clients:
            raise ProtocolError(f"client {client_id!r} is not registered on the bus")
        return client_endpoint(client_id)

    def attach_conditions(self, conditions) -> None:
        """Attach (or with ``None`` detach) a link-conditions oracle.

        With an oracle attached, phase boundaries trim participants the
        oracle reports offline — partition-aware cohort trimming that
        degrades an unreachable device straight into the §3
        dropout-repair path instead of burning its full retry budget.
        The oracle only answers reachability; it never sees payloads.
        """
        self.link_conditions = conditions

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "RoundEngine":
        """Use the engine as a context manager; closes the scale pool on exit.

        The fork-based worker pool holds real OS processes; a caller that
        forgets :meth:`close_scale_pool` used to leak them until
        interpreter exit.  ``with RoundEngine(...) as engine:`` (or
        ``with deployment.engine:``) scopes the pool to the block.
        """
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close_scale_pool()

    # ----------------------------------------------------------- scale pool

    def scale_pool(self):
        """The engine's worker pool, created (or resized) on demand."""
        if self.parallelism is None or not self.parallelism.enabled:
            raise ProtocolError("engine has no parallelism configured")
        pool = self._scale_pool
        if pool is None or pool.workers != self.parallelism.workers:
            if pool is not None:
                pool.close()
            from repro.scale.pool import WorkerPool

            pool = WorkerPool(self.parallelism.workers)
            self._scale_pool = pool
        return pool

    def warm_scale_pool(self) -> None:
        """Start every worker process now, outside any timed window."""
        if self.parallelism is not None and self.parallelism.enabled:
            self.scale_pool().warm()

    def close_scale_pool(self) -> None:
        """Shut down the worker pool (idempotent; a new round re-creates it)."""
        if self._scale_pool is not None:
            self._scale_pool.close()
            self._scale_pool = None

    # ------------------------------------------------------------ bookkeeping

    def round_record(self, round_id: int) -> _RoundRecord:
        record = self._rounds.get(round_id)
        if record is None:
            raise ProtocolError(f"round {round_id} is not tracked by the engine")
        return record

    def note_client_join(self, record: _RoundRecord, client) -> None:
        """Snapshot a client's enclave meter the first time it acts in a round."""
        if client.client_id not in record.meter_start:
            record.meter_start[client.client_id] = meter_snapshot(client.glimmer.meter)
        record.joined[client.client_id] = client

    def _start_phase(self, record: _RoundRecord, name: str) -> None:
        self._close_phase(record)
        self.monitor.advance(record.round_id, name)
        self._fire_phase_faults(record, name)
        record.window = (
            name,
            self.network.messages_delivered + self.network.messages_dropped,
            self.network.messages_dropped,
            self.network.bytes_delivered,
            self.network.clock.now_ms(),
        )

    def _fire_phase_faults(self, record: _RoundRecord, phase: str) -> None:
        """Phase boundaries are where lifecycle faults land.

        A blinder crash here is immediately followed by a restart that
        recovers sealed round state — the availability claim E18 measures
        is that such a round still finalizes exactly (repair masks come
        from unsealed state, not enclave memory).
        """
        injector = self.fault_injector
        if injector is None:
            return
        action = injector.fire(
            SITE_BLINDER, round_id=record.round_id, phase=phase
        )
        if action == ACTION_CRASH:
            self.blinder_provisioner.crash()
            try:
                self.blinder_provisioner.restart()
            except CryptoError as exc:
                # Its sealed state fails its own integrity or layout check.
                self.monitor.record(
                    record.round_id, BLINDER, VIOLATION_MASK_COMMITMENT, str(exc)
                )
                raise self._abort(
                    record, f"blinding service could not recover its rounds: {exc}"
                )
        if (
            injector.fire(SITE_PHASE_STALL, round_id=record.round_id, phase=phase)
            == ACTION_STALL
        ):
            self.network.clock.advance(PHASE_STALL_MS)

    def _close_phase(self, record: _RoundRecord) -> None:
        if record.window is None:
            return
        name, messages0, dropped0, bytes0, t0 = record.window
        record.phases.append(
            PhaseStats(
                name=name,
                messages=self.network.messages_delivered
                + self.network.messages_dropped
                - messages0,
                dropped=self.network.messages_dropped - dropped0,
                bytes_on_wire=self.network.bytes_delivered - bytes0,
                latency_ms=self.network.clock.now_ms() - t0,
            )
        )
        record.window = None

    # --------------------------------------------------------------- retries

    def call_with_retry(
        self,
        record: _RoundRecord,
        sender: str,
        receiver: str,
        kind: str,
        payload,
        *,
        first_attempt: int = 1,
    ):
        """``Network.call`` with capped, jittered exponential backoff.

        Either leg of a call can drop, so a failed attempt may still have
        executed its handler — retransmissions carry an increasing
        ``attempt`` number so handlers can answer idempotently from their
        result caches (see :mod:`repro.runtime.endpoints`).  Backoff
        doubles from ``backoff_ms`` but never exceeds ``max_backoff_ms``,
        and each wait adds up to one backoff-interval of jitter drawn from
        the engine's DRBG: deterministic for a given seed, decorrelated
        across retrying callers.

        ``first_attempt`` starts the attempt numbering above 1 for hedged
        re-deliveries: a command re-issued with ``first_attempt >
        max_attempts`` is visibly a retransmission to every handler, so
        an operation that already executed answers from its idempotency
        cache instead of running twice.  The retry *budget* is unchanged
        — up to ``max_attempts`` sends counting from ``first_attempt``.
        """
        attempt = first_attempt - 1
        last_allowed = first_attempt + self.max_attempts - 1
        while True:
            attempt += 1
            try:
                return self.network.call(
                    sender, receiver, kind, payload, attempt=attempt
                )
            except RefusedAtWire as exc:
                # Refused at the wire, on either leg, before any handler
                # could record it: the monitor hears of it here, once.
                if not exc.recorded:
                    exc.recorded = True
                    self.monitor.record(
                        record.round_id, exc.offender, exc.kind, str(exc)
                    )
                raise
            except NetworkError:
                if attempt >= last_allowed:
                    raise
                record.retries += 1
                delay = min(
                    self.backoff_ms * (2 ** (attempt - first_attempt)),
                    self.max_backoff_ms,
                )
                self.network.clock.advance(
                    delay + delay * self._retry_rng.uniform()
                )

    # --------------------------------------------------------- round lifecycle

    def open_round(
        self,
        round_id: int,
        num_slots: int,
        vector_length: int,
        route: RoutePlan = RoutePlan(),
    ) -> None:
        """Open the round at the blinding service and the cloud service.

        ``route`` is the round's :class:`~repro.scale.config.RoutePlan`
        (the default is the serial flat round).  A streamed accumulator
        opens a hierarchical round: the blinder samples per-subgroup
        sum-zero families and the service streams submissions into
        per-subgroup accumulators.  The subgroup plan is a pure function
        of the round id, so the engine's copy (kept for repair
        telemetry) matches both parties' without coordination.
        """
        if round_id in self._rounds:
            raise ProtocolError(f"round {round_id} is already tracked by the engine")
        record = _RoundRecord(self.network, round_id, num_slots, route)
        # The one place a round's width is decided: every party reads it
        # from here, the service from the open command, each device from
        # its provision command.
        record.width = ring_width(num_slots, self.magnitude)
        record.sessions_resumed0 = self.blinder_provisioner.sessions.resumed
        if self.fault_injector is not None:
            record.faults0 = len(self.fault_injector.fired)
        if route.subgroup_size > 0:
            record.subgroup_plan = plan_subgroups(
                round_id, num_slots, route.subgroup_size
            )
            # Telemetry reports the *effective* group size (the plan
            # clamps g to the cohort), not the configured knob.
            record.subgroup_size = record.subgroup_plan.group_size
        self._rounds[round_id] = record
        self._start_phase(record, "open")
        try:
            published = self.call_with_retry(
                record,
                ENGINE,
                BLINDER,
                m.KIND_OPEN_BLINDER,
                m.OpenBlinderRound(
                    round_id, num_slots, vector_length, record.subgroup_size
                ),
            )
            record.commitments = self._vetted_commitments(
                record, published, num_slots, vector_length
            )
            sent = m.OpenServiceRound(
                round_id, num_slots, vector_length, record.width, record.subgroup_size
            )
            opened = self.call_with_retry(
                record, ENGINE, SERVICE, m.KIND_OPEN_SERVICE, sent
            )
        except RefusedAtWire as exc:
            # Already recorded against the leg's sender by call_with_retry:
            # the engine, for its own command rewritten on the way, or the
            # responder, for a reply that fails its declared checks.
            raise self._abort(record, f"round open was refused at the wire: {exc}")
        if opened != sent:
            # The service holds another round than the one sent — its width
            # or its count, which it would read every contribution at.  As
            # for a command refused at the wire, the blame is the engine's
            # leg, before any device is provisioned and could be blamed.
            detail = f"the service opened {opened!r} where the engine sent {sent!r}"
            self.monitor.record(round_id, ENGINE, VIOLATION_MALFORMED, detail)
            raise self._abort(record, f"round open did not land as sent: {detail}")

    def _vetted_commitments(
        self, record: _RoundRecord, published, num_slots: int, vector_length: int
    ):
        """Structurally validate the blinder's published commitment set.

        Every later check on the blinder — a client's opening check at
        install, the reveal checks and the sum-zero audit at finalize —
        is made against this set, so a blinder that withholds it (acks
        the open with anything else) or publishes a malformed or
        mis-shaped one is blamed and the round aborts before any client
        is provisioned.
        """
        try:
            if not isinstance(published, MaskCommitmentSet):
                raise MaskVerificationError(
                    f"open reply is a {type(published).__name__}, "
                    "not a commitment set"
                )
            published.validate_structure(
                round_id=record.round_id,
                num_slots=num_slots,
                vector_length=vector_length,
            )
            if published.group_name != self.group.name:
                raise MaskVerificationError(
                    f"commitment group {published.group_name!r} does not "
                    f"match the deployment group {self.group.name!r}"
                )
        except MaskVerificationError as exc:
            self.monitor.record(
                record.round_id, BLINDER, VIOLATION_MASK_COMMITMENT, str(exc)
            )
            raise self._abort(
                record, f"blinding service published invalid commitments: {exc}"
            )
        return published

    def provision_mask(
        self,
        client_id: str,
        round_id: int,
        party_index: int,
        *,
        first_attempt: int = 1,
    ) -> bool:
        """Command a client to fetch and install its mask for one slot.

        Returns ``True`` once the client acknowledged the installed mask.

        A Glimmer that refuses the delivered mask because it fails its
        published commitment has caught the blinding service lying: no
        aggregate this round can be trusted, so the round aborts with the
        blinder blamed — here, for every caller.
        """
        record = self.round_record(round_id)
        record.note_participant(client_id)
        try:
            self.call_with_retry(
                record,
                ENGINE,
                self._client_name(client_id),
                m.KIND_PROVISION_MASK,
                record.provision_command(party_index),
                first_attempt=first_attempt,
            )
        except MaskVerificationError as exc:
            raise self._abort_on_bad_mask(record, str(exc))
        record.provisioned[party_index] = client_id
        return True

    def packed_features(self, features: Sequence) -> tuple[bytes, bytes]:
        """``features`` in its bus form (:func:`deflate_features`) and its
        digest, worked out once per tuple: a round's commands and pool
        tasks, and the rounds after it given the same tuple, share one
        stream and one digest (``run_round`` makes one tuple of whatever
        list it is given)."""
        if self._feature_list[0] is not features or type(features) is not tuple:
            self._feature_list = (features, deflate_features(features), features_digest(features))
        return self._feature_list[1:]

    def contribute(
        self,
        client_id: str,
        round_id: int,
        values: Sequence[float],
        features: Sequence,
        *,
        first_attempt: int = 1,
    ) -> str:
        """Command a client to contribute; returns its outcome label.

        ``values`` never go on the bus: they are written straight into the
        device's own :class:`~repro.core.client.LocalDataStore`, as the
        user's app on that host would, and the command only names the
        round.  It carries neither the feature list nor its digest to a
        device whose last contribution under the same digest was accepted —
        its host kept the list — and both, the list in its bus form, to
        every other (see :class:`~repro.runtime.messages.ContributeCommand`).
        """
        record = self.round_record(round_id)
        record.note_participant(client_id)
        name = self._client_name(client_id)
        self.clients[client_id].data.put_vector(round_id, values)
        stream, digest = self.packed_features(features)
        held = self._published.pop(client_id, None) == digest
        command = m.ContributeCommand(round_id, *((None, None) if held else (stream, digest)))
        outcome, _detail = self.call_with_retry(
            record, ENGINE, name, m.KIND_CONTRIBUTE, command, first_attempt=first_attempt,
        )
        record.outcomes[client_id] = outcome
        if outcome == OUTCOME_ACCEPTED:
            self._published[client_id] = digest
        return outcome

    def submit_signed(
        self, sender_id: str, round_id: int, contribution, *, slot: int | None = None
    ) -> bool:
        """Send an already-signed contribution to the service over the bus.

        Used by client endpoints for the honest path and by experiments to
        model attackers replaying or injecting contributions on the wire.
        An accepted submission consumes the sender's mask slot, exempting
        it from dropout repair.

        When every attempt fails, the submission is *reconciled*: the
        service is asked whether the contribution's nonce landed (the
        handler may have run with only the response lost).  If it did,
        the slot is consumed and the submit reported accepted.  If the
        reconciliation query itself cannot be delivered, the slot is
        marked unresolved — finalizing the round would then risk both
        counting the contribution *and* revealing its mask, so
        :meth:`finalize_round` aborts instead.
        """
        record = self.round_record(round_id)
        sender = (
            client_endpoint(sender_id) if sender_id in self.clients else sender_id
        )
        if slot is None and sender_id in self.clients:
            slot = self.clients[sender_id].party_index_for(round_id)
        try:
            accepted = bool(
                self.call_with_retry(
                    record,
                    sender,
                    SERVICE,
                    m.KIND_SUBMIT,
                    m.SubmitContribution(contribution, slot),
                )
            )
        except ProtocolViolation:
            # The protocol monitor refused the submission (equivocation,
            # quarantined sender, out-of-phase, malformed).  The violation
            # is already recorded; to the sender it is simply a rejection.
            return False
        except NetworkError:
            nonce = getattr(contribution, "nonce", None)
            if nonce is None:
                raise
            try:
                landed = bool(
                    self.call_with_retry(
                        record,
                        ENGINE,
                        SERVICE,
                        m.KIND_QUERY_SUBMISSION,
                        m.SubmissionStatusQuery(round_id, nonce),
                    )
                )
            except NetworkError:
                if slot is not None:
                    record.unresolved.add(slot)
                raise
            if not landed:
                raise
            accepted = True
        if accepted and slot is not None:
            self._note_slot_consumed(record, slot, contribution)
        return accepted

    def _note_slot_consumed(self, record: _RoundRecord, slot: int, contribution) -> None:
        """Book an accepted submission against its mask slot — once, here,
        on every route.  A consumed slot is exempt from §3 repair: its mask
        is never revealed."""
        record.consumed.add(slot)
        record.unresolved.discard(slot)
        nonce = getattr(contribution, "nonce", None)
        if nonce is not None:
            record.slot_nonce.setdefault(slot, nonce)

    def _evict_consumed_slot(self, record: _RoundRecord, slot: int) -> bool:
        """Undo :meth:`_note_slot_consumed` (so §3 repair reveals the mask) —
        only when the service verifiably removed the contribution.  A flat
        round keeps its accepted trail, so ``evict_nonce``
        finds the row; a streamed round keeps none, and there the accept
        stands."""
        nonce = record.slot_nonce.get(slot)
        if (
            slot not in record.consumed
            or nonce is None
            or not self.service.evict_nonce(record.round_id, nonce)
        ):
            return False
        record.consumed.discard(slot)
        del record.slot_nonce[slot]
        self.monitor.forget_slot(record.round_id, slot)
        return True

    def finalize_round(self, round_id: int) -> RoundReport:
        """Repair unconsumed slots, finalize at the service, emit the report.

        Refuses (aborts) when any slot is unresolved — exactness cannot be
        guaranteed if a submission's fate is unknown.  Before repair, the
        engine's own slot accounting overrides pessimistic per-client
        outcomes: a client may have died or lost connectivity *after* its
        contribution was accepted, and its slot being consumed is the
        ground truth that it counted.
        """
        record = self.round_record(round_id)
        self._require_resolved(record)
        self._reconcile_consumed(record)
        for slot, user_id in record.provisioned.items():
            if slot in record.consumed and record.outcomes.get(user_id) in (
                OUTCOME_UNREACHABLE,
                OUTCOME_SUBMIT_FAILED,
                OUTCOME_CRASHED,
            ):
                record.outcomes[user_id] = OUTCOME_ACCEPTED
        self._start_phase(record, "finalize")
        held = len(record.consumed)
        self._evict_offenders(record)
        if held and not record.consumed:
            raise self._abort(
                record, "every accepted contribution was an evicted offender's"
            )
        try:
            record.commitments.verify_sum_zero()
        except MaskVerificationError as exc:
            self.monitor.record(round_id, BLINDER, VIOLATION_NON_SUM_ZERO, str(exc))
            raise self._abort(
                record,
                f"blinding service's committed masks do not sum to zero: {exc}",
            )
        try:
            revealed_by_slot: list[tuple[int, Any]] = []
            for slot in range(record.num_slots):
                if slot in record.consumed:
                    continue
                revealed = self.call_with_retry(
                    record, ENGINE, BLINDER, m.KIND_REVEAL_MASK,
                    m.RevealMask(round_id, slot),
                )
                revealed_by_slot.append((slot, revealed))
            batched = self._batch_verified_reveals(record, revealed_by_slot)
            masks = [
                self._verified_repair_mask(record, slot, revealed, preverified=batched)
                for slot, revealed in revealed_by_slot
            ]
            # Σp = 0 needs only the dropped masks' sum to cancel them, so
            # that one vector is all the service (and the audit) gets.
            repair = kernels.ring_accumulate(masks) if masks else None
            repaired = len(masks)
            if record.subgroup_plan is not None and revealed_by_slot:
                # Hierarchical repair locality: each reveal re-expanded
                # only the dropped slot's O(g) subgroup family.
                record.subgroup_dropout_repairs = len(
                    {
                        record.subgroup_plan.group_of(slot)
                        for slot, _ in revealed_by_slot
                    }
                )
            result = self._finalize_at_service(record, repair, repaired)
        except NetworkError as exc:
            raise self._abort(record, f"finalize could not complete: {exc}")
        except RefusedAtWire as exc:
            # As at open: blamed on whichever leg's sender spelled it.
            raise self._abort(record, f"finalize was refused at the wire: {exc}")
        self._audit_result(record, result, repair, repaired)
        if record.subgroup_plan is not None:
            # A streamed plan is only drawn for a stock CloudService.
            record.submissions_streamed = self.service.round_state(
                round_id
            ).accumulator.folded
        self._retire_round(record)
        report = self._report_from(record, result, repaired)
        del self._rounds[round_id]
        self.monitor.close(round_id)
        return report

    def _require_resolved(self, record: _RoundRecord) -> None:
        """Abort while any submission's fate is unknown: revealing such a
        slot's mask might double-count a contribution that did land."""
        if record.unresolved:
            raise self._abort(
                record,
                f"{len(record.unresolved)} submission(s) could not be "
                "reconciled (accepted-or-not unknown)",
            )

    def _finalize_at_service(self, record: _RoundRecord, repair, repaired: int):
        """Send finalize; a pool round's cohort sum runs through shard
        partials (associative, so the very integers the flat sum yields)."""
        request = m.FinalizeRound(
            record.round_id,
            repair=None if repair is None else kernels.pack_words(repair, record.width),
            repaired=repaired,
        )
        if not record.route.pool:
            return self.call_with_retry(record, ENGINE, SERVICE, m.KIND_FINALIZE, request)
        previous = self.service.aggregation_reducer
        self.service.aggregation_reducer = scale_shard.ShardedRingReducer(record.route.shards)
        try:
            return self.call_with_retry(record, ENGINE, SERVICE, m.KIND_FINALIZE, request)
        finally:
            self.service.aggregation_reducer = previous

    def _batch_verified_reveals(
        self, record: _RoundRecord, revealed_by_slot
    ) -> bool:
        """One multi-exp over every dropout reveal's Pedersen check.

        ``True`` means all reveals verified in a single randomized batch
        and the per-slot sweep may skip its point checks.  ``False``
        means either the batch was not applicable (too few reveals, or
        one that is not an opening at all) or it failed — in both cases
        :meth:`_verified_repair_mask` runs the per-slot check unchanged,
        preserving exact blame and abort behavior.
        """
        if len(revealed_by_slot) < 2 or not all(
            isinstance(revealed, MaskOpening) for _, revealed in revealed_by_slot
        ):
            return False
        if batch_verify_openings(record.commitments, revealed_by_slot):
            group_ops.bump("batch_verifications")
            return True
        group_ops.bump("batch_fallbacks")
        return False

    def _verified_repair_mask(
        self, record: _RoundRecord, slot: int, revealed, preverified: bool = False
    ) -> bytes:
        """Check a revealed dropout mask against the round's commitments.

        The blinder reveals a full
        :class:`~repro.crypto.commitments.MaskOpening` — the slot's seed,
        or a last slot's words — and the engine verifies the mask against
        the slot's published commitment before trusting it, then sums the
        row the check expanded.  A blinder that reveals a mask other than
        the one it committed to — or bare words with no opening to check —
        is blamed and the round aborts: §3 repair never silently folds a
        forged mask into the aggregate.  ``preverified`` marks reveals
        already covered by a successful :meth:`_batch_verified_reveals`
        sweep, whose checks subsume this slot's.
        """
        if preverified:
            return revealed.share.row()
        try:
            if not isinstance(revealed, MaskOpening):
                raise MaskVerificationError(
                    f"reveal is a {type(revealed).__name__}, not an opening"
                )
            return verify_opening(record.commitments, slot, revealed)
        except MaskVerificationError as exc:
            self.monitor.record(
                record.round_id,
                BLINDER,
                VIOLATION_MASK_OPENING,
                f"dropout reveal for slot {slot}: {exc}",
            )
            raise self._abort(
                record,
                f"blinding service revealed a mask for slot {slot} "
                f"that does not match its commitment: {exc}",
            )

    def _reconcile_consumed(self, record: _RoundRecord) -> None:
        """Adopt acceptances the service holds that the engine never saw.

        Under a duplicating network a submission whose every *witnessed*
        attempt failed can still land: a queued duplicate executes after
        the sender gave up, its response goes nowhere, and the service
        consumes the slot without the engine learning of it.  The slot
        being consumed at the service is ground truth — revealing a
        consumed slot's mask as §3 repair would fold residual mask
        material into the aggregate — so before choosing repairs the
        engine syncs its accounting against the monitor's service-gate
        record, cross-checked with the nonces the service actually holds.
        Signatures keep the adoption sound: the service can only hold
        contributions a genuine Glimmer signed, and the finalize audit
        recomputes the aggregate over exactly that set.
        """
        try:
            state = self.service.round_state(record.round_id)
        except ProtocolError:
            return
        held = set(state.counted)
        if not held:
            return
        claimed = self.monitor.accepted_slots(record.round_id)
        for slot, user_id in record.provisioned.items():
            if slot in record.consumed:
                continue
            nonce = claimed.get(slot)
            if nonce is None or nonce not in held:
                continue
            record.consumed.add(slot)
            record.slot_nonce[slot] = nonce
            record.submissions_reconciled += 1

    def _evict_offenders(self, record: _RoundRecord) -> None:
        """Quarantine this round's offenders and evict their contributions.

        Offenders flagged for equivocation, flooding, or malformed traffic
        are blocked from future rounds, and any contribution of theirs the
        service already accepted is evicted: the slot's accepted nonce is
        removed, the slot reverts to unconsumed, and §3 dropout repair
        reveals its mask — so the finalized aggregate is exact over the
        honest contributions only.
        """
        round_id = record.round_id
        kinds = (
            VIOLATION_EQUIVOCATION,
            VIOLATION_FLOODING,
            VIOLATION_MALFORMED,
        )
        for offender in self.monitor.offenders_for(round_id, kinds):
            for violation in self.monitor.violations_for(round_id):
                if violation.offender == offender and violation.kind in kinds:
                    self.quarantine.block(violation)
                    break
            if offender not in record.quarantined_now:
                record.quarantined_now.append(offender)
            prefix = "client:"
            if not offender.startswith(prefix):
                continue
            client_id = offender[len(prefix):]
            evicted = False
            for slot, user_id in record.provisioned.items():
                if user_id == client_id and self._evict_consumed_slot(record, slot):
                    evicted = True
            if client_id in record.participants:
                record.outcomes[client_id] = (
                    OUTCOME_EVICTED if evicted else OUTCOME_QUARANTINED
                )

    def _audit_result(self, record: _RoundRecord, result, repair, repaired: int) -> None:
        """Audit the service's finalize result before trusting it.

        The service returns the contributions it aggregated; the engine
        re-checks nonce uniqueness, that the aggregated nonces are exactly
        the ones it witnessed being accepted *this* round (none missing,
        none smuggled in from another round), the counts, every
        signature, and — decisive against a tampering aggregator —
        recomputes the aggregate bit-exactly; a trail it cannot recompute
        fails the audit.  Only a round the *engine* routed to the streamed
        accumulator (``record.subgroup_plan``) has no trail to walk: its
        rows were folded and released at admission, so its counts are
        held to the engine's own witness instead.  Anywhere else a
        missing trail is a missing contribution, and blamed as one.
        """
        problems: list[str] = []
        witnessed = set(record.slot_nonce.values())
        if record.subgroup_plan is not None:
            accepted, aggregated = (), len(witnessed)
        else:
            accepted, aggregated = result.accepted, len(result.accepted)
            if not accepted:
                problems.append("the audit trail is empty")
            nonces = [c.nonce for c in accepted]
            if len(set(nonces)) != len(nonces):
                problems.append("duplicate nonces in the aggregated set")
            if set(nonces) != witnessed:
                problems.append(
                    "the aggregated nonces are not the ones witnessed accepted"
                )
            if any(c.round_id != record.round_id for c in accepted):
                problems.append("an aggregated contribution is from another round")
        if result.num_contributions != aggregated:
            problems.append(
                f"contribution count {result.num_contributions} != "
                f"{aggregated} aggregated"
            )
        length = record.commitments.vector_length
        if len(result.aggregate) != length:
            # A service folding at another width than the round's reads
            # another count of words: caught here on either route.
            problems.append(
                f"aggregate of {len(result.aggregate)} values, not the round's {length}"
            )
        if result.num_dropouts_repaired != repaired:
            problems.append(
                f"repair count {result.num_dropouts_repaired} != "
                f"{repaired} masks handed over"
            )
        if accepted:
            # The cohort is first tried as ONE randomized batch (~25x
            # cheaper than the loop); only a failed or unbatchable cohort
            # walks per signature, which is also what names the culprit.
            try:
                batched = batch_verify_signatures(
                    self.signing_public,
                    [
                        (contribution.signed_bytes(), contribution.signature)
                        for contribution in accepted
                    ],
                )
            except Exception:
                batched = None
            if batched is True:
                group_ops.bump("batch_verifications")
            else:
                if batched is False:
                    group_ops.bump("batch_fallbacks")
                for contribution in accepted:
                    try:
                        valid = self.signing_public.is_valid(
                            contribution.signed_bytes(), contribution.signature
                        )
                    except Exception:
                        valid = False
                    if not valid:
                        problems.append("an aggregated contribution is unsigned")
                        break
        if not problems and accepted:
            try:
                expected = self._recompute_aggregate(accepted, repair, record.width)
            except (TypeError, ValueError) as exc:
                problems.append(f"the audit trail cannot be recomputed: {exc}")
            else:
                if not np.array_equal(expected, np.asarray(result.aggregate)):
                    problems.append("aggregate does not match the recomputation")
        if problems:
            detail = "; ".join(problems)
            self.monitor.record(
                record.round_id, SERVICE, VIOLATION_AGGREGATE_TAMPERING, detail
            )
            raise self._abort(
                record, f"service finalize result failed the audit: {detail}"
            )
        # The mean of values each within ±M lies within ±M too, at the
        # codec's quantum: an aggregate outside it sums a contribution no
        # vetted Glimmer signs, so the signing key is out of its Glimmers.
        limit = word_bound(self.magnitude) / self.codec.scale
        if not (np.abs(result.aggregate) <= limit).all():
            detail = f"an aggregate value lies outside ±{limit}"
            self.monitor.record(record.round_id, SIGNING_KEY, VIOLATION_OUT_OF_RANGE, detail)
            raise self._abort(record, f"the aggregate failed the audit: {detail}")

    def _recompute_aggregate(self, accepted, repair, width: int):
        # Chunked accumulate: the audit only needs the sum, so the full
        # cohort matrix is never materialized here either.  ``repair`` is
        # the summed repair the service was sent, not a second sum; its
        # 64-bit words fold with the payloads' residues at ``width``, and
        # the total widens back to the 64-bit sum as the service's does.
        total = kernels.ring_accumulate(
            kernels.unpack_words(c.ring_payload, width) for c in accepted
        )
        if repair is not None:
            total = total + repair
        return self.codec.decode(kernels.widen(total, width)) / len(accepted)

    def _close_round_clients(self, record: _RoundRecord) -> None:
        """Best-effort teardown: tell provisioned clients to purge the round.

        A lost close message only delays the purge (the client's own
        lifecycle hooks still bound mask growth); it never affects the
        already-finalized aggregate, so there is no retry."""
        notified: set[str] = set()
        for user_id in record.provisioned.values():
            if user_id in notified or user_id not in self.clients:
                continue
            notified.add(user_id)
            try:
                self.network.call(
                    ENGINE,
                    client_endpoint(user_id),
                    m.KIND_CLOSE_ROUND,
                    m.CloseRound(record.round_id),
                )
            except (NetworkError, ReproError):
                pass

    def _retire_round(self, record: _RoundRecord) -> None:
        """A round's one terminal step: every state holder lets go of it.

        Finalize and abandon both end here.  Clients are told over the
        bus (as before); the blinding service, the cloud service and the
        service endpoint's verdict cache are closed by direct call, like
        ``service.round_state()`` and ``blinder_provisioner.restart()``
        elsewhere in this class — the orchestrator's own lifecycle
        control, not protocol traffic, so the wire is unchanged.  Each
        participant's stored input vector is dropped the same way, so a
        lost ``CloseRound`` cannot leave one behind.  After this, each
        party holds only the round id, as a tombstone that refuses
        re-opening, late submissions and mask reveals.
        """
        for user_id in record.participants:
            if user_id in self.clients:
                self.clients[user_id].data.drop_vector(record.round_id)
        self._close_round_clients(record)
        self.blinder_provisioner.close_round(record.round_id)
        self.service.close_round(record.round_id)
        self._service_endpoint.close_round(record.round_id)

    def abandon_round(self, round_id: int) -> None:
        """Forget an aborted round, at the engine and at every party.

        Safe mid-phase (an open phase window is closed first, so the
        record never leaks a dangling window) and idempotent: abandoning
        a round that was already abandoned — or never tracked — is a
        no-op.  Monitor state for the round is closed if it was still
        live, so a monitor entry cannot outlive its round record.  The
        round id is spent: its masks are gone, so it cannot be re-run.
        """
        record = self._rounds.pop(round_id, None)
        if record is not None:
            self._close_phase(record)
            self._retire_round(record)
            self.monitor.close(round_id)

    def _abort(self, record: _RoundRecord, reason: str) -> RoundAbortedError:
        """Close the round's books and build the error for an abort.

        The phase window is closed and the returned
        :class:`RoundAbortedError` carries a *partial* report
        (``aborted=True``, no aggregate) as ``.report``.
        The record stays tracked so callers can inspect it before
        :meth:`abandon_round`.  Callers ``raise self._abort(...)``.
        """
        report = self._report_from(record, abort_reason=reason)
        self.monitor.close(record.round_id)
        error = RoundAbortedError(f"round {record.round_id}: {reason}")
        error.report = report
        return error

    # ------------------------------------------------------------ whole round

    def _restart_client(self, record: _RoundRecord, client) -> bool:
        """Try to bring a crashed client back from its sealed checkpoints."""
        try:
            client.restart()
        except Exception:
            return False
        record.client_restarts += 1
        return True

    def run_round(
        self,
        round_id: int,
        participants: Iterable[str],
        values_by_user: Mapping[str, Sequence[float]],
        features: Sequence,
        *,
        dropouts: Iterable[str] = (),
        collect_dropouts: Iterable[str] = (),
        recovery_threshold: float | None = None,
        adaptive: AdaptiveDeadlines | None = None,
    ) -> RoundReport:
        """Run one full round: open → provision → collect → finalize.

        ``dropouts`` are participants that go silent before doing anything;
        ``collect_dropouts`` are nastier — they complete provisioning (a
        mask is charged to their slot) and then never contribute, which is
        the exact §3 repair case.  A participant whose provisioning or
        submission is lost to the network, or whose enclave crashes and
        cannot be recovered, is treated the same way.

        Every round is blinded: each device's Glimmer masks its
        contribution, and the service only ever sums ring payloads.

        ``adaptive`` (:class:`~repro.runtime.deadlines.AdaptiveDeadlines`)
        is a round's only deadline: the ``"provision"`` and ``"collect"``
        phases each get a cutoff derived from the latency percentiles of
        their own completed operations, stragglers are counted, and
        participants reached after a cutoff are marked ``deadline-missed``
        and degrade into dropouts rather than failing the round, down to
        ``recovery_threshold``.  A contribution whose accept lands past
        the cutoff is evicted and its slot repaired.  With
        ``adaptive.hedge``, a participant that fails its command gets one
        hedged re-delivery (retransmission-numbered, answered from handler
        idempotency caches) before degrading into a dropout.

        A contribute command its device refuses (rewritten in transit:
        it fails its schema, or names a round the device is not in) costs
        that device the round: it is marked ``unreachable`` and its slot
        is repaired, like a lost command.

        Raises :class:`RoundAbortedError` when no contribution is
        accepted, when survivors fall below ``recovery_threshold`` (a
        fraction of participants), or when a submission cannot be
        reconciled — in every case with phases closed and a partial
        ``aborted=True`` report as the error's ``.report``.
        """
        stages = self.round_stages(
            round_id,
            participants,
            values_by_user,
            features,
            dropouts=dropouts,
            collect_dropouts=collect_dropouts,
            recovery_threshold=recovery_threshold,
            adaptive=adaptive,
        )
        try:
            while True:
                next(stages)
        except StopIteration as done:
            return done.value

    def round_stages(
        self,
        round_id: int,
        participants: Iterable[str],
        values_by_user: Mapping[str, Sequence[float]],
        features: Sequence,
        *,
        dropouts: Iterable[str] = (),
        collect_dropouts: Iterable[str] = (),
        recovery_threshold: float | None = None,
        adaptive: AdaptiveDeadlines | None = None,
    ):
        """One round as a resumable generator of phase-labelled stages.

        This is :meth:`run_round`'s body, reshaped so a scheduler can own
        the pacing: each ``yield`` marks a point where the round can be
        suspended — after open, after every provisioned or collected
        participant, and before finalize — and the yielded string names
        the phase being worked.  Draining the generator to completion
        performs *exactly* the serial round (``run_round`` is literally
        that loop), so interleaving multiple rounds' generators changes
        scheduling only, never per-round results.  The final
        :class:`RoundReport` is the generator's return value
        (``StopIteration.value``); aborts raise through ``next()``
        unchanged.

        Every route runs this one skeleton: the round's
        :class:`~repro.scale.config.RoutePlan` is decided once, up front,
        and open, quarantine, the abort checks and :meth:`finalize_round`
        are the same code whatever it names.  Only the middle differs —
        a pool round hands provision and collect to
        :func:`repro.scale.rounds.run_parallel_round` behind one
        suspension point instead of working them on the bus.
        """
        participants = list(participants)
        silent = set(dropouts)
        silent_after_provision = set(collect_dropouts)
        threshold = (
            self.recovery_threshold
            if recovery_threshold is None
            else float(recovery_threshold)
        )
        features = tuple(features)
        # Imported here: repro.scale.rounds itself imports this package.
        from repro.scale import rounds as scale_rounds

        route = scale_rounds.plan_route(
            self, self.parallelism, participants=participants, adaptive=adaptive
        )
        try:
            self.open_round(round_id, len(participants), len(features), route=route)
        except NetworkError as exc:
            # The round is tracked the moment open_round starts, so a
            # failed open still aborts cleanly with a partial report.
            record = self.round_record(round_id)
            raise self._abort(record, f"round could not be opened: {exc}")
        yield "open"
        record = self.round_record(round_id)
        for user_id in participants:
            record.note_participant(user_id)
        quarantined = {
            user_id
            for user_id in participants
            if self.quarantine.is_blocked(client_endpoint(user_id))
        }
        for user_id in quarantined:
            # Known offenders sit the round out entirely: no mask slot is
            # charged to them and no command reaches them.
            record.outcomes[user_id] = OUTCOME_QUARANTINED
        if route.pool:
            # The whole cohort's provision and collect work happens behind
            # this one suspension point, in the worker processes.
            yield "provision"
            scale_rounds.run_parallel_round(
                self,
                record,
                participants,
                values_by_user,
                features,
                quarantined=quarantined,
                dropouts=silent,
                collect_dropouts=silent_after_provision,
            )
        else:
            hedging = adaptive is not None and adaptive.hedge
            controller = self._open_bus_phase(
                record, "provision", participants, quarantined, adaptive
            )
            for index, user_id in enumerate(participants):
                yield "provision"
                if user_id in quarantined:
                    continue
                if record.outcomes.get(user_id) == OUTCOME_PARTITIONED:
                    continue
                if user_id in silent:
                    record.outcomes[user_id] = OUTCOME_DROPOUT
                    continue
                cutoff_ms = controller.cutoff_ms() if controller else None
                if cutoff_ms is not None and self.network.clock.now_ms() > cutoff_ms:
                    record.outcomes[user_id] = OUTCOME_DEADLINE_MISSED
                    continue
                started = self.network.clock.now_ms()
                provision = partial(self.provision_mask, user_id, round_id, index)
                try:
                    provision()
                except NetworkError:
                    if not (hedging and self._hedge(record, provision)):
                        record.outcomes[user_id] = OUTCOME_PROVISION_FAILED
                        continue
                except ProtocolViolation:
                    # A request refused at the wire (malformed, say): the
                    # monitor holds the violation, and finalize
                    # quarantines whoever it names.
                    record.outcomes[user_id] = OUTCOME_PROVISION_FAILED
                    continue
                except EnclaveError:
                    # Client enclave died mid-provision.  Restart it from
                    # sealed state and retry the slot once; a second death
                    # writes the client off for this round.
                    if not self._recover(record, user_id, provision):
                        record.outcomes[user_id] = OUTCOME_CRASHED
                        continue
                self._observe_op(record, controller, started)
            controller = self._open_bus_phase(
                record, "collect", participants, quarantined, adaptive
            )
            for user_id in participants:
                yield "collect"
                if user_id in quarantined:
                    continue
                if user_id in silent:
                    record.outcomes.setdefault(user_id, OUTCOME_DROPOUT)
                    continue
                if user_id in silent_after_provision:
                    record.outcomes[user_id] = OUTCOME_DROPOUT
                    continue
                if record.outcomes.get(user_id) in (
                    OUTCOME_PROVISION_FAILED,
                    OUTCOME_CRASHED,
                    OUTCOME_DEADLINE_MISSED,
                    OUTCOME_PARTITIONED,
                ):
                    continue
                cutoff_ms = controller.cutoff_ms() if controller else None
                if cutoff_ms is not None and self.network.clock.now_ms() > cutoff_ms:
                    record.outcomes[user_id] = OUTCOME_DEADLINE_MISSED
                    continue
                started = self.network.clock.now_ms()
                contribute = partial(
                    self.contribute, user_id, round_id, values_by_user[user_id], features
                )
                try:
                    outcome = contribute()
                except NetworkError:
                    outcome = self._hedge(record, contribute) if hedging else None
                    if outcome is None:
                        record.outcomes[user_id] = OUTCOME_UNREACHABLE
                        continue
                except ProtocolError:
                    # The device refused the command: rewritten in transit,
                    # it failed its schema (the monitor holds the violation)
                    # or names a round the device is not in.  It is written
                    # off like one the command never reached, and finalize
                    # repairs its slot.
                    record.outcomes[user_id] = OUTCOME_UNREACHABLE
                    continue
                self._observe_op(record, controller, started)
                if outcome == OUTCOME_ACCEPTED and (
                    cutoff_ms is not None and self.network.clock.now_ms() > cutoff_ms
                ):
                    # The reply landed, but only after the deadline had
                    # passed — from the round's point of view this client
                    # missed it, and counting the contribution anyway would
                    # double-book the slot against the deadline bookkeeping.
                    self._discard_late_reply(record, user_id)
                    continue
                if outcome == OUTCOME_CRASHED:
                    self._recover(record, user_id, contribute)
        self._require_resolved(record)
        survivors = [
            u for u in participants if record.outcomes.get(u) == OUTCOME_ACCEPTED
        ]
        survivors += [
            u
            for slot, u in record.provisioned.items()
            if slot in record.consumed and u not in survivors
        ]
        if not survivors:
            raise self._abort(
                record,
                f"no contribution was accepted "
                f"({len(participants)} participants)",
            )
        if threshold and len(survivors) < threshold * len(participants):
            raise self._abort(
                record,
                f"{len(survivors)}/{len(participants)} survivors is below "
                f"the recovery threshold of {threshold:.0%}",
            )
        yield "finalize"
        return self.finalize_round(round_id)

    def _abort_on_bad_mask(self, record: _RoundRecord, detail: str) -> RoundAbortedError:
        """Blame the blinder for a delivered mask that fails its commitment."""
        self.monitor.record(record.round_id, BLINDER, VIOLATION_MASK_OPENING, detail)
        return self._abort(
            record,
            f"blinding service delivered a mask that fails its commitment: {detail}",
        )

    def _open_bus_phase(
        self,
        record: _RoundRecord,
        name: str,
        participants: Sequence[str],
        quarantined: set[str],
        adaptive: AdaptiveDeadlines | None,
    ) -> PhaseDeadlineController | None:
        """Start a bus phase; under ``adaptive``, returns the controller
        that derives the phase's deadline from its observed operations."""
        self._start_phase(record, name)
        controller = None
        if adaptive is not None:
            controller = PhaseDeadlineController(
                adaptive, self.network.clock.now_ms(), len(participants) - len(quarantined)
            )
        self._trim_partitioned(record, participants, quarantined)
        return controller

    def _recover(self, record: _RoundRecord, user_id: str, command) -> bool:
        """One recovery attempt for a client whose enclave died under a command.

        Restart the enclave from sealed checkpoints and re-issue the
        (bound) provision or contribute command over the bus; ``True``
        when it got through.  A contribute retry whose checkpoint was
        refused (rollback) fails closed inside the enclave and the slot
        is repaired by reveal; one the network loses leaves the client
        ``unreachable`` (a provision caller writes it off as ``crashed``).
        """
        client = self.clients.get(user_id)
        if client is None or not self._restart_client(record, client):
            return False
        try:
            command()
        except NetworkError:
            record.outcomes[user_id] = OUTCOME_UNREACHABLE
            return False
        except EnclaveError:
            return False
        return True

    def _trim_partitioned(
        self,
        record: _RoundRecord,
        participants: Sequence[str],
        quarantined: set[str],
    ) -> None:
        """Mark participants the link oracle reports offline right now.

        Called at phase starts when a :class:`LinkConditions` oracle is
        attached: a partitioned device would burn its full retry budget
        per command and stall the whole cohort, so it is degraded into
        the §3 dropout-repair path immediately (``partitioned``).  A
        device whose episode ends before the next phase boundary rejoins
        naturally — trimming is per-phase, not per-round.
        """
        conditions = self.link_conditions
        if conditions is None:
            return
        now = self.network.clock.now_ms()
        for user_id in participants:
            if user_id in quarantined:
                continue
            if record.outcomes.get(user_id) == OUTCOME_PARTITIONED:
                continue
            if conditions.offline_for(user_id, now):
                record.outcomes[user_id] = OUTCOME_PARTITIONED
                record.partition_trimmed += 1

    def _observe_op(
        self,
        record: _RoundRecord,
        controller: PhaseDeadlineController | None,
        started_ms: float,
    ) -> None:
        """Feed one completed operation's latency to the phase controller."""
        if controller is None:
            return
        if controller.observe(self.network.clock.now_ms() - started_ms):
            record.stragglers += 1

    def _hedge(self, record: _RoundRecord, command):
        """One hedged re-delivery of a bound command before writing the slot off.

        The re-issued command starts its attempt numbering past
        ``max_attempts``, so the client endpoint sees an unambiguous
        retransmission and answers from its idempotency cache if the
        original actually executed — pure re-delivery, never
        re-execution.  Returns what the command returned (a provision's
        ``True``, a contribute's outcome), or ``None`` if it is lost too.
        """
        record.hedged_deliveries += 1
        try:
            return command(first_attempt=self.max_attempts + 1)
        except (NetworkError, EnclaveError):
            return None

    def _discard_late_reply(self, record: _RoundRecord, user_id: str) -> None:
        """Evict a contribution whose accept reply landed past the deadline.

        The client was about to be marked ``deadline-missed`` when its
        in-flight reply arrived: without this, the round would count the
        contribution *and* the deadline bookkeeping — double-booking the
        slot.  The accepted nonce is evicted from the service, the slot
        reverts to unconsumed (so §3 repair reveals its mask), and the
        client is marked ``deadline-missed`` after all.  Discard only
        happens when the eviction verifiably succeeds; if the service
        cannot evict, the accept stands — exactness outranks deadline
        hygiene.
        """
        for slot, owner in record.provisioned.items():
            if owner == user_id and self._evict_consumed_slot(record, slot):
                record.outcomes[user_id] = OUTCOME_DEADLINE_MISSED
                record.late_replies_discarded += 1

    # --------------------------------------------------------------- reports

    def _report_from(
        self,
        record: _RoundRecord,
        result=None,
        masks_repaired: int = 0,
        abort_reason: str | None = None,
    ) -> RoundReport:
        """Close the open phase and read the round's report off its record.

        ``result`` is the service's audited finalize result; without one
        the report is an abort's partial report (no aggregate), counting
        whatever the service holds for the round right now.
        """
        self._close_phase(record)
        if result is not None:
            num_contributions, rejected = result.num_contributions, dict(result.rejected)
        else:
            num_contributions, rejected = 0, {}
            try:
                state = self.service.round_state(record.round_id)
                num_contributions, rejected = len(state.counted), dict(state.rejected)
            except ProtocolError:
                pass
        cycles: dict[str, int] = {}
        counted: set[int] = set()
        for client_id, before in record.meter_start.items():
            client = record.joined.get(client_id)
            # Devices behind one host share its Glimmer: count its meter
            # once, from the first of them to join the round.
            if client is None or id(client.glimmer) in counted:
                continue
            counted.add(id(client.glimmer))
            after = meter_snapshot(client.glimmer.meter)
            for bucket, grown in meter_delta(before, after).items():
                cycles[bucket] = cycles.get(bucket, 0) + grown
        faults = 0
        if self.fault_injector is not None:
            faults = len(self.fault_injector.fired) - record.faults0
        # Process-wide growth while this round was open; with overlapping
        # rounds the attribution is approximate, the totals exact.
        pk_delta = group_ops.counters_delta(record.pk_counters0)
        return RoundReport(
            round_id=record.round_id,
            participants=tuple(record.participants),
            outcomes=dict(record.outcomes),
            num_slots=record.num_slots,
            masks_repaired=masks_repaired,
            num_contributions=num_contributions,
            rejected=rejected,
            messages_sent=self.network.messages_delivered
            + self.network.messages_dropped
            - record.messages0,
            messages_dropped=self.network.messages_dropped - record.dropped0,
            bytes_on_wire=self.network.bytes_delivered - record.bytes0,
            bytes_replied=self.network.bytes_replied - record.replied0,
            latency_ms=self.network.clock.now_ms() - record.opened_at_ms,
            enclave_cycles=cycles,
            phases=tuple(record.phases),
            aggregate=None if result is None else result.aggregate,
            service_result=result,
            aborted=result is None,
            abort_reason=abort_reason,
            faults_injected=faults,
            violations=self.monitor.violations_for(record.round_id),
            quarantined=tuple(record.quarantined_now),
            subgroups_aggregated=(
                record.subgroup_plan.num_groups
                if record.subgroup_plan is not None
                else 0
            ),
            route_reason=record.route.reason,
            batch_verifications=pk_delta["batch_verifications"],
            batch_fallbacks=pk_delta["batch_fallbacks"],
            handshakes_resumed=self.blinder_provisioner.sessions.resumed
            - record.sessions_resumed0,
            membership_checks_skipped=pk_delta["membership_checks_skipped"],
            **{name: getattr(record, name) for name in _REPORT_COUNTERS},
        )
