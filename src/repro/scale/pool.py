"""The process-pool client worker layer.

One worker task carries a *chunk* of clients through the per-client hot
path — attested handshake, mask delivery, mask install, sealed
checkpoint, Glimmer contribution, and the contribution-signature check —
entirely inside a worker process.  Everything that must stay globally
ordered (the blinding service's DRBG draws and session cache, the
protocol monitor, the service's admission ledger) stays in the parent:
the parent draws each slot's :class:`~repro.core.provisioning.DeliveryLeg`
through the provisioner in serial slot order and ships it in the task,
and the worker seals with :func:`~repro.core.provisioning.seal_delivery`
— the function the provisioner itself seals with — so the delivery is
the serial one, byte for byte.  The mutated client (enclave state, cycle
meter, session counter) rides back in the result and is transplanted
over the parent's instance, so downstream rounds and telemetry cannot
tell which process did the work.

Quote signatures are *not* verified here — the worker returns the quote
and the parent screens it (:meth:`repro.sgx.attestation.AttestationService
.screen` plus the DH-binding check).  Contribution signatures *are*
verified here, once, so the parent can admit via
``CloudService.submit_verified`` without re-serializing the very
exponentiations this pool exists to spread out.
"""

from __future__ import annotations

import multiprocessing
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.client import attested_delivery
from repro.core.glimmer import BLINDING_MASK_CONTEXT
from repro.core.provisioning import seal_delivery
from repro.crypto.commitments import encode_mask_payload
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    CryptoError,
    EnclaveError,
    MaskVerificationError,
    ProtocolError,
    ValidationError,
)
from repro.runtime.telemetry import OUTCOME_CRASHED, OUTCOME_VALIDATION_REJECTED


@dataclass(frozen=True)
class WorkerContext:
    """Round-constant state shared by every task in a chunk.

    ``identity`` is the blinding service's handshake-signing keypair.
    Shipping it to a worker does not widen the trust boundary: workers
    are forks of the very process that owns the provisioner, and the
    signature they produce is the one the provisioner itself would have
    produced for the parent-drawn leg.
    """

    round_id: int
    identity: Any  # SchnorrKeyPair (blinder handshake identity)
    signing_public: Any  # SchnorrPublicKey for contribution pre-verification
    features: tuple


@dataclass(frozen=True)
class ClientTask:
    """One client's slice of the round, fully self-contained."""

    slot: int
    user_id: str
    client: Any  # the ClientDevice, pickled with its enclave state
    values: tuple | None  # None: provision only (a collect dropout)
    leg: Any  # parent-drawn DeliveryLeg (serial slot order)
    opening: Any  # this slot's MaskOpening
    commitment: Any  # the engine-vouched MaskCommitmentRecord


@dataclass
class ClientResult:
    """What comes back: the mutated client plus everything to merge."""

    slot: int
    user_id: str
    client: Any
    quote: Any = None
    glimmer_dh_public: int = 0
    delivery_key: bytes | None = None  # for the parent's session cache
    provision_ecalls: int = 1
    unopened: bool = False  # resumed delivery this Glimmer holds no key for
    mask_error: str | None = None
    outcome: str | None = None
    detail: str | None = None
    signed: Any = None
    signature_ok: bool = False
    contribute_ecalls: int = 0


def _run_client(context: WorkerContext, task: ClientTask) -> ClientResult:
    """The serial per-client path, verbatim, minus the simulated wire."""
    client = task.client
    result = ClientResult(slot=task.slot, user_id=task.user_id, client=client)

    def seal(session_id: bytes, glimmer_dh_public: int, quote):
        # _deliver() after its draw; the parent's screen pass checks the quote.
        result.quote, result.glimmer_dh_public = quote, glimmer_dh_public
        delivery, result.delivery_key = seal_delivery(
            context.identity,
            task.leg,
            session_id,
            glimmer_dh_public,
            encode_mask_payload(task.opening),
            BLINDING_MASK_CONTEXT,
        )
        return delivery

    try:
        # No session cache here, so the driver makes its single attempt.
        attested_delivery(
            client.handshake_request,
            seal,
            lambda delivery: client.install_mask(
                context.round_id, task.slot, delivery, commitment=task.commitment
            ),
            BLINDING_MASK_CONTEXT,
        )
    except MaskVerificationError as exc:
        result.mask_error = str(exc)
        return result
    except AuthenticationError:
        if task.leg.resumed is None:
            raise
        result.unopened = True
        return result
    result.provision_ecalls = 2
    client.checkpoint_round(context.round_id)
    if task.values is None:
        return result
    result.contribute_ecalls = 1  # charged even on rejection, as serial does
    try:
        signed = client.contribute(
            context.round_id,
            list(task.values),
            list(context.features),
            blind=True,
            claims={},
            context_fields=(),
        )
    except ValidationError as exc:
        result.outcome = OUTCOME_VALIDATION_REJECTED
        result.detail = str(exc)
        return result
    except (EnclaveError, CryptoError, ProtocolError) as exc:
        result.outcome = OUTCOME_CRASHED
        result.detail = str(exc)
        return result
    result.signed = signed
    if context.signing_public is not None:
        try:
            result.signature_ok = bool(
                context.signing_public.is_valid(
                    signed.signed_bytes(), signed.signature
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
