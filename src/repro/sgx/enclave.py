"""Enclave instances and the ecall/ocall trust boundary.

An :class:`Enclave` is an :class:`~repro.sgx.measurement.EnclaveImage`
loaded on a platform.  Host code interacts with it *only* through
:meth:`Enclave.ecall`; enclave code interacts with the host *only* through
:meth:`EnclaveApi.ocall`.  Each argument and result crosses as a bus
payload does: encoded once, metered by its frame's length (the cycles
experiment E7's decomposition ablation measures) and decoded on the other
side with its declared checks, so neither side holds the other's objects.

Enclave programs subclass :class:`EnclaveProgram` and mark entry points with
the :func:`ecall` decorator.  Inside, the program sees an
:class:`EnclaveApi` handle that exposes exactly the services real SGX
offers: sealing, report generation, randomness, monotonic counters, ocalls,
and the immutable image config.  Everything else — the host filesystem,
the network, sensors — must come through an ocall, mirroring the paper's
observation that a Glimmer "must mediate system services via the untrusted
host OS".

Isolation is enforced by convention plus an explicit guard: enclave private
state lives on the program instance, and the host-visible wrapper refuses
attribute access to it unless the platform's threat model enables
``memory_disclosure`` (modeling an enclave-compromising side channel).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro import codec
from repro.crypto.drbg import HmacDrbg
from repro.errors import EnclaveError, ProtocolViolation
from repro.faults import ACTION_KILL, ACTION_PRESSURE, SITE_ECALL, SITE_EPC_PRESSURE
from repro.sgx.costs import CycleMeter


def ecall(*declared: Any) -> Callable:
    """Mark a method of an :class:`EnclaveProgram` as an enclave entry point;
    ``@ecall(ProcessRequest)`` also declares what its positional arguments
    must be, in order (a class, a builtin type or a ``codec.Check``)."""
    if len(declared) == 1 and inspect.isfunction(declared[0]):
        return ecall()(declared[0])

    def mark(func: Callable) -> Callable:
        func.__sgx_ecall__, func.__sgx_declared__ = True, dict(enumerate(declared))
        return func

    return mark


def _cross(where: str, values: dict, checks: Mapping = {}) -> tuple[dict, int]:
    """``values`` as the other side receives them, each frame decoded and held
    to its entry in ``checks``, and the bytes they took."""
    copies, size = {}, 0
    for place, value in values.items():
        frame = codec.encode(value)
        size += len(frame)
        try:
            copies[place] = codec.decode(frame, checks.get(place))
        except ProtocolViolation as exc:
            raise ProtocolViolation(
                f"{where} {place} refused: {exc.detail}", kind=exc.kind
            ) from None
    return copies, size


class EnclaveProgram:
    """Base class for code that runs inside a simulated enclave.

    Subclasses receive an :class:`EnclaveApi` and may define ``on_load`` for
    initialization that should run inside the enclave at load time.
    """

    def __init__(self, api: "EnclaveApi") -> None:
        self.api = api

    def on_load(self) -> None:
        """Hook called once after the enclave is initialized."""


@dataclass
class EnclaveIdentity:
    """What attestation reports about an enclave."""

    mrenclave: bytes
    mrsigner: bytes
    version: int
    debug: bool


class EnclaveApi:
    """The in-enclave view of platform services.

    Only enclave program code should hold a reference to this object; it is
    the simulator's stand-in for the SGX instruction set (EGETKEY, EREPORT)
    plus the ocall table the host registered at load time.
    """

    def __init__(
        self,
        platform: "Any",
        identity: EnclaveIdentity,
        config: bytes,
        ocall_handlers: Mapping[str, Callable[..., Any]],
        rng: HmacDrbg,
        meter: CycleMeter,
    ) -> None:
        self._platform = platform
        self._identity = identity
        self._config = config
        self._ocall_handlers = dict(ocall_handlers)
        self._rng = rng
        self._meter = meter

    @property
    def config(self) -> bytes:
        """The image's immutable configuration blob (part of the measurement)."""
        return self._config

    @property
    def identity(self) -> EnclaveIdentity:
        return self._identity

    @property
    def rng(self) -> HmacDrbg:
        """Enclave-private randomness (RDRAND stand-in, deterministic per seed)."""
        return self._rng

    def charge(self, cycles: int | float, bucket: str = "enclave-compute") -> None:
        """Account simulated cycles for in-enclave work."""
        self._meter.charge(cycles, bucket)

    def charge_hash(self, num_bytes: int) -> None:
        self.charge(self._platform.cost_model.hash_cycles_per_byte * num_bytes, "enclave-crypto")

    def charge_signature(self) -> None:
        self.charge(self._platform.cost_model.signature_cycles, "enclave-crypto")

    def charge_aead(self, num_bytes: int) -> None:
        self.charge(self._platform.cost_model.aead_cycles_per_byte * num_bytes, "enclave-crypto")

    def charge_dh(self) -> None:
        self.charge(self._platform.cost_model.dh_cycles, "enclave-crypto")

    def ocall(self, name: str, *args: Any, expect: Any = None, **kwargs: Any) -> Any:
        """Call out to the untrusted host.

        The answer is *untrusted by construction*: it crosses back as a
        frame held to ``expect`` (as :func:`ecall` declares an argument).
        """
        handler = self._ocall_handlers.get(name)
        if handler is None:
            raise EnclaveError(f"no ocall handler registered for {name!r}")
        cost = self._platform.cost_model
        self._meter.charge(cost.ocall_cycles, "transitions")
        copies, size = _cross(f"ocall {name!r} argument", {**dict(enumerate(args)), **kwargs})
        self._meter.charge(cost.copy_cost(size), "boundary-copies")
        args = [copies.pop(i) for i in range(len(args))]
        answer = handler(*args, **copies)
        copies, size = _cross(f"ocall {name!r}", {"answer": answer}, {"answer": expect})
        self._meter.charge(cost.copy_cost(size), "boundary-copies")
        return copies["answer"]

    def seal(self, plaintext: bytes, policy: str = "mrenclave") -> bytes:
        """Seal data to this enclave (policy: ``mrenclave`` or ``mrsigner``)."""
        self.charge(self._platform.cost_model.seal_cycles, "enclave-crypto")
        return self._platform.sealing.seal(self._identity, plaintext, policy)

    def unseal(self, blob: bytes) -> bytes:
        """Unseal data previously sealed to this enclave's identity."""
        self.charge(self._platform.cost_model.seal_cycles, "enclave-crypto")
        return self._platform.sealing.unseal(self._identity, blob)

    def create_report(self, report_data: bytes) -> "Any":
        """EREPORT: produce a locally verifiable report binding ``report_data``."""
        self.charge_hash(len(report_data) + 96)
        return self._platform.create_report(self._identity, report_data)

    def verify_local_report(self, report: "Any") -> bool:
        """Local attestation: check a sibling enclave's report on this platform."""
        self.charge_hash(128)
        return self._platform.verify_report(report)

    def monotonic_counter(self, name: str) -> "Any":
        """A rollback-protection counter scoped to this enclave's measurement."""
        return self._platform.counters.counter_for(self._identity.mrenclave, name)


class Enclave:
    """A loaded enclave: the host's handle.

    All interaction goes through :meth:`ecall`.  Reading the program's
    private state directly raises unless the platform's threat model grants
    ``memory_disclosure`` — the simulator's stand-in for a microarchitectural
    breach of SGX.
    """

    def __init__(
        self,
        platform: "Any",
        image: "Any",
        program: EnclaveProgram,
        api: EnclaveApi,
        meter: CycleMeter,
    ) -> None:
        self._platform = platform
        self.image = image
        self._program = program
        self._api = api
        self.meter = meter
        self._entry_points = {
            name: getattr(program, name)
            for name in dir(type(program))
            if getattr(getattr(type(program), name, None), "__sgx_ecall__", False)
        }
        self._destroyed = False

    @property
    def identity(self) -> EnclaveIdentity:
        return self._api.identity

    @property
    def mrenclave(self) -> bytes:
        return self.image.mrenclave

    @property
    def alive(self) -> bool:
        return not self._destroyed

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave at a named entry point and return its result.

        Charges transition and boundary-copy cycles, plus EPC paging if the
        image's declared working set exceeds the platform's free EPC.
        """
        if self._destroyed:
            raise EnclaveError("enclave has been destroyed")
        entry = self._entry_points.get(name)
        if entry is None:
            raise EnclaveError(f"no such ecall: {name!r}")
        cost = self._platform.cost_model
        injector = getattr(self._platform, "fault_injector", None)
        if injector is not None:
            # The untrusted OS can deschedule-and-kill at the boundary: the
            # entry point never runs, enclave memory is gone, sealed state
            # and monotonic counters (platform-held) survive.
            if injector.fire(SITE_ECALL, ecall=name) == ACTION_KILL:
                self.destroy()
                raise EnclaveError(
                    f"enclave killed by the OS entering ecall {name!r} (injected fault)"
                )
            if injector.fire(SITE_EPC_PRESSURE, ecall=name) == ACTION_PRESSURE:
                self.meter.charge(
                    cost.paging_cost(self.image.memory_bytes), "epc-paging"
                )
        self.meter.charge(cost.ecall_cycles, "transitions")
        arguments = {**dict(enumerate(args)), **kwargs}
        copies, size = _cross(f"ecall {name!r} argument", arguments, entry.__sgx_declared__)
        self.meter.charge(cost.copy_cost(size), "boundary-copies")
        overflow = self._platform.epc_overflow_bytes()
        if overflow > 0:
            # Charge paging proportional to this enclave's share of pressure.
            share = min(self.image.memory_bytes, overflow)
            self.meter.charge(cost.paging_cost(share), "epc-paging")
        args = [copies.pop(i) for i in range(len(args))]
        result = entry(*args, **copies)
        copies, size = _cross(f"ecall {name!r}", {"result": result})
        self.meter.charge(cost.copy_cost(size), "boundary-copies")
        return copies["result"]

    def create_report(self, report_data: bytes) -> Any:
        """Host-initiated report creation (wraps an ecall into EREPORT)."""
        return self._api.create_report(report_data)

    def peek_private_state(self) -> dict:
        """Host attempt to read enclave memory.

        Models a memory-disclosure attack; allowed only when the platform's
        threat model says the hardware is compromised.
        """
        if not self._platform.threat_model.memory_disclosure:
            raise EnclaveError(
                "enclave memory is isolated; host cannot read it "
                "(enable ThreatModel.memory_disclosure to model a breach)"
            )
        state = dict(vars(self._program))
        state.pop("api", None)
        return state

    def destroy(self) -> None:
        """Tear down the enclave and release its EPC reservation."""
        if not self._destroyed:
            self._destroyed = True
            self._platform.release_enclave(self)
