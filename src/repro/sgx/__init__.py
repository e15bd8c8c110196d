"""A deterministic functional simulator of Intel SGX.

The paper realizes Glimmers on SGX enclaves (§3), relying on four hardware
guarantees: *isolation* (enclave memory is invisible to the host),
*measurement* (an enclave's identity is a hash of its code and data),
*remote attestation* (a platform can prove to a remote party what enclave it
runs), and *sealed storage* (data encrypted so only a designated enclave can
recover it).  This package models exactly that contract:

* :mod:`repro.sgx.measurement` — enclave images and MRENCLAVE/MRSIGNER.
* :mod:`repro.sgx.platform` — an SGX-capable machine: EPC, launch control,
  root sealing keys, provisioning with the attestation service.
* :mod:`repro.sgx.enclave` — loaded enclave instances; the ecall/ocall
  boundary with a calibrated cycle cost model.
* :mod:`repro.sgx.attestation` — local reports, the quoting enclave, and an
  IAS-style attestation verification service.
* :mod:`repro.sgx.sessions` — incremental attestation: quote-verification
  caching and the blinding service's delivery sessions, so a device pays the full quote-verify + DH leg once, not
  every round, until the policy epoch moves.
* :mod:`repro.sgx.sealing` — sealing keys and sealed blobs.
* :mod:`repro.sgx.counters` — monotonic counters for rollback protection.
* :mod:`repro.sgx.threats` — the knobs experiments use to *break* the
  contract (tampered images, rogue platforms, memory disclosure) so the
  Glimmer security arguments can be exercised, not just asserted.

Absolute cycle numbers come from the cost model in :mod:`repro.sgx.costs`;
only relative comparisons are meaningful.
"""

from repro.sgx.attestation import AttestationService, Quote, QuotePolicy, Report
from repro.sgx.costs import CostModel, CycleMeter, DEFAULT_COST_MODEL
from repro.sgx.enclave import Enclave, EnclaveApi, EnclaveProgram, ecall
from repro.sgx.measurement import EnclaveImage, VendorKey
from repro.sgx.platform import SgxPlatform, ThreatModel
from repro.sgx.sessions import SessionBroker

__all__ = [
    "AttestationService",
    "Quote",
    "QuotePolicy",
    "Report",
    "SessionBroker",
    "CostModel",
    "CycleMeter",
    "DEFAULT_COST_MODEL",
    "Enclave",
    "EnclaveApi",
    "EnclaveProgram",
    "ecall",
    "EnclaveImage",
    "VendorKey",
    "SgxPlatform",
    "ThreatModel",
]
