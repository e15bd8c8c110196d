"""The process-pool client worker layer.

One worker task carries a *chunk* of clients through the device step —
the provision and sign steps of :mod:`repro.runtime.endpoints`, the very
functions the bus handler runs — entirely inside a worker process, with
the blinding service's leg of the exchange computed locally.
Everything that must stay globally ordered (the blinding service's DRBG
draws and session table, the protocol monitor, the service's admission
ledger) stays in the parent: the parent draws each slot's
:class:`~repro.core.provisioning.DeliveryLeg` — in the device's live
session, or a fresh keypair — through the provisioner in serial slot
order and ships it in the task, and the worker seals with
:func:`~repro.core.provisioning.seal_delivery` — the function the
provisioner itself seals with — so the delivery is the serial one, byte
for byte.  The mutated client (enclave state, cycle meter, session
counter and handle) rides back in the result and is transplanted over
the parent's instance, so downstream rounds and telemetry cannot tell
which process did the work.

Quote signatures are *not* verified here — a full leg's worker returns
the quote and the parent screens it
(:meth:`repro.sgx.attestation.AttestationService.screen` plus the
DH-binding check) before it keeps the session the leg opened.
Contribution signatures *are* verified here, once, so the parent can
admit via ``CloudService.submit_verified`` without re-serializing the
very exponentiations this pool exists to spread out.
"""

from __future__ import annotations

import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.glimmer import BLINDING_MASK_CONTEXT
from repro.core.provisioning import seal_delivery
from repro.crypto.commitments import encode_mask_payload
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    EnclaveError,
    MaskVerificationError,
)
from repro.runtime import messages as m
from repro.runtime.endpoints import provision_step, sign_step


@dataclass(frozen=True)
class WorkerContext:
    """Round-constant state shared by every task in a chunk.

    ``identity`` is the blinding service's handshake-signing keypair.
    Shipping it to a worker does not widen the trust boundary: workers
    are forks of the very process that owns the provisioner, and the
    signature they produce is the one the provisioner itself would have
    produced for the parent-drawn leg.
    """

    identity: Any  # SchnorrKeyPair (blinder handshake identity)
    signing_public: Any  # SchnorrPublicKey for contribution pre-verification


@dataclass(frozen=True)
class ClientTask:
    """One client's slice of the round: the commands the bus would carry.

    Every command in a chunk holds the *same* features tuple and digest,
    so a chunk pickles them once.
    """

    client: Any  # the ClientDevice, pickled with its enclave state
    provision: m.ProvisionMask
    contribute: m.ContributeCommand | None  # None: a collect dropout
    leg: Any  # parent-drawn DeliveryLeg (serial slot order)
    opening: Any  # this slot's MaskOpening

    @property
    def slot(self) -> int:
        return self.provision.party_index


@dataclass
class ClientResult:
    """What comes back: the mutated client plus everything to merge."""

    slot: int
    client: Any
    ecalls: int = 0  # charged by the device steps, as on the bus
    quote: Any = None
    glimmer_dh_public: int = 0
    #: ``(handle, key)`` a full leg opened, for the parent's session table.
    session: tuple[bytes, bytes] | None = None
    #: Why the slot was not provisioned here: a mask that fails its
    #: commitment, an in-session delivery this Glimmer holds no key for,
    #: or a Glimmer that is down.  The parent handles each as the bus path
    #: does.
    error: Exception | None = None
    outcome: tuple[str, str | None] | None = None  # set when signing failed
    signed: Any = None
    signature_ok: bool = False


def _run_client(context: WorkerContext, task: ClientTask) -> ClientResult:
    """The device step with the blinding service's leg sealed locally."""
    result = ClientResult(slot=task.slot, client=task.client)

    def seal(session_id: bytes, glimmer_dh_public, quote):
        # deliver_opening() after its draw; the parent's screen pass checks
        # a full leg's quote.
        if quote is not None and task.leg.keypair is None:
            # The host re-attests after an in-session delivery it could not
            # open; that full delivery is drawn on the bus, not here.
            raise AuthenticationError("no full leg was drawn for this slot")
        result.quote, result.glimmer_dh_public = quote, glimmer_dh_public
        delivery, result.session = seal_delivery(
            context.identity,
            task.leg,
            session_id,
            glimmer_dh_public,
            encode_mask_payload(task.opening),
            BLINDING_MASK_CONTEXT,
            (task.provision.round_id, task.slot),
        )
        return delivery

    try:
        provision_step(task.client, task.provision, seal, result)
    except (MaskVerificationError, AuthenticationError, EnclaveError) as exc:
        if isinstance(exc, AuthenticationError) and task.leg.session is None:
            raise  # only an in-session delivery may be one a restart orphaned
        result.error = exc
        return result
    if task.contribute is None:
        return result
    result.signed, result.outcome = sign_step(task.client, task.contribute, result)
    if result.signed is not None and context.signing_public is not None:
        try:
            result.signature_ok = bool(
                context.signing_public.is_valid(
                    result.signed.signed_bytes(), result.signed.signature
                )
            )
        except Exception:
            result.signature_ok = False
    return result


def run_client_chunk(
    context: WorkerContext, tasks: Sequence[ClientTask]
) -> list[ClientResult]:
    """Worker entry point: run every task in a chunk, in order."""
    return [_run_client(context, task) for task in tasks]


def _warm_probe(index: int) -> int:
    """A no-op task that forces a worker process to exist and import us."""
    return index


class WorkerPool:
    """A ``ProcessPoolExecutor`` sized and warmed for round dispatch.

    Prefers the ``fork`` start method (workers inherit the loaded modules
    and cost ~nothing to start); falls back to the platform default where
    fork is unavailable.  :meth:`warm` exists because a cold pool pays
    process startup inside the first timed batch — benchmarks call it
    before the clock starts.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError("worker pool needs workers >= 1")
        self.workers = int(workers)
        if "fork" in multiprocessing.get_all_start_methods():
            mp_context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - platform without fork
            mp_context = multiprocessing.get_context()
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, mp_context=mp_context
        )
        # Safety net for callers that drop the pool without close(): the
        # finalizer shuts the executor down when the pool is collected
        # (or at interpreter exit), so forgotten pools cannot leak their
        # forked worker processes.  close() calls the same finalizer, so
        # explicit and garbage-collected teardown share one idempotent
        # path.
        self._finalizer = weakref.finalize(
            self, _shutdown_executor, self._executor
        )
        self._warmed = False

    def warm(self) -> None:
        """Spin up every worker before timing-sensitive work begins."""
        if not self._warmed:
            list(self._executor.map(_warm_probe, range(self.workers * 2)))
            self._warmed = True

    def map_chunks(
        self, context: WorkerContext, chunks: Sequence[Sequence[ClientTask]]
    ) -> list[list[ClientResult]]:
        """Run chunks through :func:`run_client_chunk`; results in chunk order.

        Submission order is chunk order and results are gathered in the
        same order, so worker scheduling never reorders anything the
        caller observes.
        """
        self._warmed = True  # any real dispatch warms the pool as a side effect
        futures = [
            self._executor.submit(run_client_chunk, context, list(chunk))
            for chunk in chunks
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self._finalizer()


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    executor.shutdown(wait=True)
