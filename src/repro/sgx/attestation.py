"""Local reports, the quoting enclave, and an IAS-style attestation service.

Remote attestation is the mechanism that lets both the user and the service
trust a Glimmer (§3): the enclave produces a *report* binding 64 bytes of
caller data (typically a hash of a DH handshake value) to its measurement;
the platform's *quoting enclave* converts the report into a *quote* signed
with a platform attestation key; and a remote verifier checks the quote
against the attestation service that provisioned the platform.

The simulator models the trust topology faithfully:

* only platforms provisioned with the :class:`AttestationService` hold
  attestation keys the service recognizes — a rogue (software-emulated)
  platform can produce structurally valid quotes that nonetheless fail
  verification;
* quotes name the enclave's MRENCLAVE/MRSIGNER/version/debug flag, so a
  tampered Glimmer attests to a *different* measurement and is rejected
  against the published hash;
* platforms can be revoked (modeling EPID group revocation after a
  compromise).
"""

from __future__ import annotations

from dataclasses import dataclass

import hmac as _hmac

from repro.codec import Bool, Bytes, Int, wire
from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_items
from repro.crypto.kdf import hkdf
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey, SchnorrSignature
from repro.errors import AttestationError
from repro.sgx.enclave import EnclaveIdentity

REPORT_DATA_SIZE = 64
PLATFORM_ID_SIZE = 16
#: The report body's fields at their exact widths (a u32 ``version``).
_BODY = dict(
    mrenclave=Bytes(32), mrsigner=Bytes(32), version=Int(0, (1 << 32) - 1), debug=Bool,
    report_data=Bytes(REPORT_DATA_SIZE), platform_id=Bytes(PLATFORM_ID_SIZE),
)


@wire(0x8103, mac=Bytes(32), **_BODY)
@dataclass(frozen=True)
class Report:
    """A local attestation report (EREPORT output).

    MACed with a platform-local report key; verifiable only on the same
    platform (that is what the quoting enclave does).
    """

    mrenclave: bytes
    mrsigner: bytes
    version: int
    debug: bool
    report_data: bytes
    platform_id: bytes
    mac: bytes

    def body_digest(self) -> bytes:
        return hash_items(
            "sgx-report-body",
            [
                self.mrenclave,
                self.mrsigner,
                self.version.to_bytes(4, "big"),
                b"\x01" if self.debug else b"\x00",
                self.report_data,
                self.platform_id,
            ],
        )


def make_report(
    report_key: bytes,
    platform_id: bytes,
    identity: EnclaveIdentity,
    report_data: bytes,
) -> Report:
    """Create a MACed report.  ``report_data`` is padded/truncated to 64 bytes."""
    data = report_data[:REPORT_DATA_SIZE].ljust(REPORT_DATA_SIZE, b"\x00")
    unmacd = Report(
        mrenclave=identity.mrenclave,
        mrsigner=identity.mrsigner,
        version=identity.version,
        debug=identity.debug,
        report_data=data,
        platform_id=platform_id,
        mac=b"",
    )
    mac = _hmac.new(report_key, unmacd.body_digest(), digestmod="sha256").digest()
    return Report(
        mrenclave=unmacd.mrenclave,
        mrsigner=unmacd.mrsigner,
        version=unmacd.version,
        debug=unmacd.debug,
        report_data=unmacd.report_data,
        platform_id=unmacd.platform_id,
        mac=mac,
    )


@wire(0x8104, signature=SchnorrSignature, **_BODY)
@dataclass(frozen=True)
class Quote:
    """A remotely verifiable quote: report body + platform signature."""

    mrenclave: bytes
    mrsigner: bytes
    version: int
    debug: bool
    report_data: bytes
    platform_id: bytes
    signature: SchnorrSignature

    def signed_digest(self) -> bytes:
        return hash_items(
            "sgx-quote-body",
            [
                self.mrenclave,
                self.mrsigner,
                self.version.to_bytes(4, "big"),
                b"\x01" if self.debug else b"\x00",
                self.report_data,
                self.platform_id,
            ],
        )


class QuotingEnclave:
    """The per-platform quoting enclave: turns reports into quotes."""

    def __init__(self, platform_id: bytes, report_key: bytes, attestation_key: SchnorrKeyPair) -> None:
        self._platform_id = platform_id
        self._report_key = report_key
        self._attestation_key = attestation_key

    def quote(self, report: Report) -> Quote:
        """Verify the local report MAC, then sign the body into a quote."""
        if report.platform_id != self._platform_id:
            raise AttestationError("report was produced on a different platform")
        body = Report(
            mrenclave=report.mrenclave,
            mrsigner=report.mrsigner,
            version=report.version,
            debug=report.debug,
            report_data=report.report_data,
            platform_id=report.platform_id,
            mac=b"",
        )
        expected = _hmac.new(self._report_key, body.body_digest(), digestmod="sha256").digest()
        if not _hmac.compare_digest(expected, report.mac):
            raise AttestationError("report MAC invalid; not produced on this platform")
        quote = Quote(
            mrenclave=report.mrenclave,
            mrsigner=report.mrsigner,
            version=report.version,
            debug=report.debug,
            report_data=report.report_data,
            platform_id=report.platform_id,
            signature=SchnorrSignature(0, 0),
        )
        signature = self._attestation_key.sign(quote.signed_digest())
        # A quote is verified on its own, never in a batch, so the nonce
        # commitment (a batching hint) does not travel with it.
        signature = SchnorrSignature(signature.challenge, signature.response, group=signature.group)
        return Quote(
            mrenclave=quote.mrenclave,
            mrsigner=quote.mrsigner,
            version=quote.version,
            debug=quote.debug,
            report_data=quote.report_data,
            platform_id=quote.platform_id,
            signature=signature,
        )


@dataclass(frozen=True)
class QuotePolicy:
    """What a verifier demands of a quote.

    ``expected_mrenclave`` is the published, vetted Glimmer hash (§3).  Set
    ``allow_debug`` only in tests: debug enclaves are inspectable and must
    never hold production keys.
    """

    expected_mrenclave: bytes | None = None
    expected_mrsigner: bytes | None = None
    minimum_version: int = 1
    allow_debug: bool = False
    policy_epoch: int = 0
    """Monotonic freshness counter.  A verifier bumps the epoch when its
    trust inputs change (new published measurement, revocation sweep,
    TCB recovery); cached verifications and session tickets minted under
    an older epoch are then stale and must re-attest in full."""


@dataclass(frozen=True)
class AttestationResult:
    """Successful verification outcome."""

    mrenclave: bytes
    mrsigner: bytes
    version: int
    report_data: bytes
    platform_id: bytes


class AttestationService:
    """IAS-style verifier: knows which platforms are genuine, supports revocation."""

    def __init__(self, seed: bytes = b"attestation-service") -> None:
        self._rng = HmacDrbg(seed, personalization="attestation-service")
        self._platforms: dict[bytes, SchnorrPublicKey] = {}
        self._revoked: set[bytes] = set()

    def provision_platform(self, platform_id: bytes, attestation_public: SchnorrPublicKey) -> None:
        """Register a genuine platform's attestation key (manufacturing step)."""
        if platform_id in self._platforms:
            raise AttestationError("platform already provisioned")
        self._platforms[platform_id] = attestation_public

    def revoke_platform(self, platform_id: bytes) -> None:
        """Revoke a platform (e.g. its attestation key leaked)."""
        self._revoked.add(platform_id)

    def is_revoked(self, platform_id: bytes) -> bool:
        """Whether a platform has been revoked (session layers re-check
        this on every resumption — a ticket must not outlive a
        revocation)."""
        return platform_id in self._revoked

    def verify(self, quote: Quote, policy: QuotePolicy | None = None) -> AttestationResult:
        """Verify a quote against provisioning, revocation, and ``policy``.

        Raises :class:`AttestationError` with a reason on any failure.
        """
        policy = policy or QuotePolicy()
        public = self._platforms.get(quote.platform_id)
        if public is None:
            raise AttestationError("quote from an unknown (unprovisioned) platform")
        if quote.platform_id in self._revoked:
            raise AttestationError("quote from a revoked platform")
        try:
            public.verify(quote.signed_digest(), quote.signature)
        except Exception as exc:
            raise AttestationError("quote signature invalid") from exc
        return self._check_policy(quote, policy)

    def screen(self, quote: Quote, policy: QuotePolicy | None = None) -> AttestationResult:
        """:meth:`verify` minus the platform-signature check.

        For quotes the verifier *itself* observed being minted — the scale
        layer's worker pool runs the client handshake and the blinder
        delivery inside one trust domain, so checking the Schnorr signature
        the same process just produced proves nothing.  Everything a remote
        signature would vouch for is still enforced: the platform must be
        provisioned and unrevoked, and the quote body must satisfy the
        policy (measurement, signer, debug flag, version).  Never use this
        on a quote that crossed an untrusted boundary.
        """
        policy = policy or QuotePolicy()
        if quote.platform_id not in self._platforms:
            raise AttestationError("quote from an unknown (unprovisioned) platform")
        if quote.platform_id in self._revoked:
            raise AttestationError("quote from a revoked platform")
        return self._check_policy(quote, policy)

    def _check_policy(self, quote: Quote, policy: QuotePolicy) -> AttestationResult:
        if quote.debug and not policy.allow_debug:
            raise AttestationError("debug enclaves are not trusted")
        if policy.expected_mrenclave is not None and quote.mrenclave != policy.expected_mrenclave:
            raise AttestationError("measurement does not match the published Glimmer hash")
        if policy.expected_mrsigner is not None and quote.mrsigner != policy.expected_mrsigner:
            raise AttestationError("enclave signer not trusted")
        if quote.version < policy.minimum_version:
            raise AttestationError(
                f"enclave version {quote.version} below minimum {policy.minimum_version}"
            )
        return AttestationResult(
            mrenclave=quote.mrenclave,
            mrsigner=quote.mrsigner,
            version=quote.version,
            report_data=quote.report_data,
            platform_id=quote.platform_id,
        )


def report_data_for(payload: bytes) -> bytes:
    """Standard way to bind arbitrary payloads into the 64-byte report data."""
    return hkdf(payload, "report-data", length=REPORT_DATA_SIZE)
