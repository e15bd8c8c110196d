"""The SGX-capable machine: EPC, launch control, keys, quoting enclave.

A :class:`SgxPlatform` is one physical CPU package.  Manufacturing
(construction) fuses a root sealing secret and an attestation key; genuine
platforms are provisioned with an :class:`~repro.sgx.attestation.AttestationService`
so their quotes verify remotely.  Loading an enclave checks the vendor
signature (launch control), reserves EPC, instantiates the program inside
the boundary, and returns the host-side :class:`~repro.sgx.enclave.Enclave`
handle.

The :class:`ThreatModel` lists the ways experiments may *break* the SGX
contract; all default to off (the hardware keeps its promises).
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.crypto.drbg import HmacDrbg
from repro.crypto.schnorr import SchnorrKeyPair
from repro.errors import EnclaveError
from repro.sgx.attestation import (
    AttestationService,
    QuotingEnclave,
    Report,
    make_report,
)
from repro.sgx.costs import CostModel, CycleMeter, DEFAULT_COST_MODEL
from repro.sgx.counters import CounterStore
from repro.sgx.enclave import Enclave, EnclaveApi, EnclaveIdentity, EnclaveProgram
from repro.sgx.measurement import EnclaveImage
from repro.sgx.sealing import SealingManager

DEFAULT_EPC_BYTES = 96 * (1 << 20)  # 96 MiB usable EPC, SGX1-era


@dataclass
class ThreatModel:
    """Which SGX guarantees the experiment chooses to void.

    memory_disclosure:
        Host can read enclave memory (models a side-channel breach).
    skip_launch_control:
        Platform loads images with invalid vendor signatures.
    """

    memory_disclosure: bool = False
    skip_launch_control: bool = False


class SgxPlatform:
    """One SGX machine.  Create, optionally provision, then load enclaves.

    Parameters
    ----------
    seed:
        Determinism root for all platform key material and randomness.
    attestation_service:
        If given, the platform is provisioned (genuine).  A platform built
        without one acts as a *rogue* machine: it can emit quotes, but no
        verifier will accept them.
    """

    def __init__(
        self,
        seed: bytes,
        attestation_service: AttestationService | None = None,
        epc_bytes: int = DEFAULT_EPC_BYTES,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        threat_model: ThreatModel | None = None,
    ) -> None:
        self._rng = HmacDrbg(seed, personalization="sgx-platform")
        self.platform_id = self._rng.generate(16)
        self.fault_injector = None
        """When set (see :mod:`repro.faults`), enclaves loaded on this
        platform consult it at every ecall — the hook by which the chaos
        suite models an OS that kills enclaves at arbitrary boundaries."""
        self.epc_bytes = epc_bytes
        self.cost_model = cost_model
        self.threat_model = threat_model or ThreatModel()
        self.meter = CycleMeter()
        self._root_seal_secret = self._rng.generate(32)
        self._report_key = self._rng.generate(32)
        self._attestation_key = SchnorrKeyPair.generate(self._rng.fork("attestation-key"))
        self.sealing = SealingManager(self._root_seal_secret, self._rng.fork("sealing"))
        self.counters = CounterStore()
        self.quoting_enclave = QuotingEnclave(
            self.platform_id, self._report_key, self._attestation_key
        )
        self._loaded: list[Enclave] = []
        if attestation_service is not None:
            attestation_service.provision_platform(
                self.platform_id, self._attestation_key.public_key
            )

    # ------------------------------------------------------------------ EPC

    def epc_used_bytes(self) -> int:
        return sum(enclave.image.memory_bytes for enclave in self._loaded)

    def epc_overflow_bytes(self) -> int:
        """How far the resident enclave working sets exceed the EPC."""
        return max(0, self.epc_used_bytes() - self.epc_bytes)

    def release_enclave(self, enclave: Enclave) -> None:
        if enclave in self._loaded:
            self._loaded.remove(enclave)

    # ----------------------------------------------------------------- load

    def load_enclave(
        self,
        image: EnclaveImage,
        ocall_handlers: Mapping[str, Callable[..., Any]] | None = None,
    ) -> Enclave:
        """Launch-check, measure, and instantiate an enclave image.

        The program class is constructed *inside* the boundary with an
        :class:`EnclaveApi`; its ``on_load`` hook runs before the handle is
        returned (charged as an implicit first entry).
        """
        if not self.threat_model.skip_launch_control:
            image.verify_vendor_signature()
        if image.program_class is None or not issubclass(
            image.program_class, EnclaveProgram
        ):
            raise EnclaveError("image does not carry a loadable EnclaveProgram")
        identity = EnclaveIdentity(
            mrenclave=image.mrenclave,
            mrsigner=image.mrsigner,
            version=image.version,
            debug=image.debug,
        )
        meter = CycleMeter()
        enclave_rng = HmacDrbg(
            self._rng.generate(32) + image.mrenclave, personalization="enclave-rng"
        )
        api = EnclaveApi(
            platform=self,
            identity=identity,
            config=image.config,
            ocall_handlers=ocall_handlers or {},
            rng=enclave_rng,
            meter=meter,
        )
        program = image.program_class(api)
        enclave = Enclave(self, image, program, api, meter)
        self._loaded.append(enclave)
        meter.charge(self.cost_model.ecall_cycles, "transitions")  # init entry
        program.on_load()
        return enclave

    # ----------------------------------------------------------- attestation

    def create_report(self, identity: EnclaveIdentity, report_data: bytes) -> Report:
        """EREPORT for an enclave running on this platform."""
        return make_report(self._report_key, self.platform_id, identity, report_data)

    def verify_report(self, report: Report) -> bool:
        """Local attestation: was this report produced on this platform?

        Models the EREPORT/EGETKEY flow by which one enclave checks a
        sibling enclave's report; cross-platform reports fail.
        """
        if report.platform_id != self.platform_id:
            return False
        reference = make_report(
            self._report_key,
            self.platform_id,
            EnclaveIdentity(
                mrenclave=report.mrenclave,
                mrsigner=report.mrsigner,
                version=report.version,
                debug=report.debug,
            ),
            report.report_data,
        )
        return hmac.compare_digest(reference.mac, report.mac)

    def quote_enclave(self, enclave: Enclave, report_data: bytes):
        """Convenience: report + quote in one step, with cycle accounting."""
        report = enclave.create_report(report_data)
        enclave.meter.charge(self.cost_model.attestation_quote_cycles, "attestation")
        return self.quoting_enclave.quote(report)
