"""Tests for enclave loading, ecalls/ocalls, isolation, and cost accounting."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.errors import EnclaveError, ProtocolViolation
from repro.sgx import (
    EnclaveImage,
    EnclaveProgram,
    SgxPlatform,
    ThreatModel,
    VendorKey,
    ecall,
)

from tests.sgx.conftest import CounterProgram


def test_ecall_roundtrip(enclave):
    assert enclave.ecall("increment") == 1
    assert enclave.ecall("increment", by=4) == 5


def test_unknown_ecall_rejected(enclave):
    with pytest.raises(EnclaveError):
        enclave.ecall("does_not_exist")


def test_non_ecall_method_not_exposed(enclave):
    with pytest.raises(EnclaveError, match="no such ecall"):
        enclave.ecall("not_an_ecall")


def test_entry_points_listed(enclave):
    assert enclave.ecall("increment") == 1
    assert enclave.ecall("unseal", enclave.ecall("seal_secret"))


def test_private_state_isolated(enclave):
    with pytest.raises(EnclaveError):
        enclave.peek_private_state()


def test_memory_disclosure_threat_allows_peek(attestation_service, image):
    platform = SgxPlatform(
        b"weak-platform",
        attestation_service=attestation_service,
        threat_model=ThreatModel(memory_disclosure=True),
    )
    enclave = platform.load_enclave(image)
    state = enclave.peek_private_state()
    assert state["_secret"] == b"enclave-private-secret"


def test_ocall_reaches_host_handler(platform, image):
    host_log = []

    def fetch(what):
        host_log.append(what)
        return f"host-data:{what}"

    enclave = platform.load_enclave(image, ocall_handlers={"fetch": fetch})
    assert enclave.ecall("fetch_from_host", "gps") == "host-data:gps"
    assert host_log == ["gps"]


def test_the_enclave_and_the_host_share_no_object(platform, image):
    """Each value crosses as a frame and lands as the receiver's own copy:
    an ocall handler that appends to the list it is handed leaves the
    host's list, which reached it through the enclave, as it was."""

    def fetch(what):
        what.append("appended by the handler")
        return what

    enclave = platform.load_enclave(image, ocall_handlers={"fetch": fetch})
    sent = ["gps"]
    assert enclave.ecall("fetch_from_host", sent) == ["gps", "appended by the handler"]
    assert sent == ["gps"]


class DeclaredProgram(EnclaveProgram):
    """Entry points that declare what crosses."""

    @ecall(bytes)
    def length(self, blob):
        return len(blob)

    @ecall
    def ask_host(self):
        return self.api.ocall("answer", expect=int)


def test_a_value_failing_its_declaration_is_refused_naming_the_call(platform, vendor):
    enclave = platform.load_enclave(
        EnclaveImage.build(DeclaredProgram, vendor),
        ocall_handlers={"answer": lambda: "forty-two"},
    )
    assert enclave.ecall("length", b"four") == 4
    with pytest.raises(ProtocolViolation, match="ecall 'length' argument 0 refused: .*bytes"):
        enclave.ecall("length", "four")
    with pytest.raises(ProtocolViolation, match="ocall 'answer' answer refused: .*int"):
        enclave.ecall("ask_host")
    assert DeclaredProgram.length.__sgx_ecall__ and DeclaredProgram.ask_host.__sgx_ecall__


def test_missing_ocall_handler_raises(enclave):
    with pytest.raises(EnclaveError):
        enclave.ecall("fetch_from_host", "gps")


def test_launch_control_rejects_bad_signature(platform, vendor, image):
    impostor = VendorKey.generate(HmacDrbg(b"impostor"))
    forged = EnclaveImage(
        name=image.name,
        version=image.version,
        code=image.code,
        config=image.config,
        memory_bytes=image.memory_bytes,
        debug=image.debug,
        program_class=image.program_class,
        vendor_public=vendor.public_key,
        vendor_signature=impostor.keypair.sign(b"junk"),
    )
    with pytest.raises(EnclaveError):
        platform.load_enclave(forged)


def test_skip_launch_control_threat(attestation_service, vendor, image):
    impostor = VendorKey.generate(HmacDrbg(b"impostor"))
    forged = EnclaveImage(
        name=image.name,
        version=image.version,
        code=image.code,
        config=image.config,
        memory_bytes=image.memory_bytes,
        debug=image.debug,
        program_class=image.program_class,
        vendor_public=vendor.public_key,
        vendor_signature=impostor.keypair.sign(b"junk"),
    )
    platform = SgxPlatform(
        b"lc-off",
        attestation_service=attestation_service,
        threat_model=ThreatModel(skip_launch_control=True),
    )
    enclave = platform.load_enclave(forged)
    assert enclave.ecall("increment") == 1


def test_transition_cycles_charged(enclave):
    before = enclave.meter.buckets.get("transitions", 0)
    enclave.ecall("increment")
    after = enclave.meter.buckets.get("transitions", 0)
    assert after == before + enclave._platform.cost_model.ecall_cycles


def test_ocall_charges_extra_transition(platform, image):
    enclave = platform.load_enclave(
        image, ocall_handlers={"fetch": lambda what: "x"}
    )
    baseline = platform.cost_model.ecall_cycles
    before = enclave.meter.buckets.get("transitions", 0)
    enclave.ecall("fetch_from_host", "y")
    delta = enclave.meter.buckets["transitions"] - before
    assert delta == baseline + platform.cost_model.ocall_cycles


def test_boundary_copy_cycles_scale_with_payload(enclave):
    enclave.ecall("increment")
    small = enclave.meter.buckets.get("boundary-copies", 0)
    enclave.ecall("increment", by=1)
    after_small = enclave.meter.buckets["boundary-copies"]
    # big payload through seal path
    enclave.ecall("unseal", enclave.ecall("seal_secret"))
    after_big = enclave.meter.buckets["boundary-copies"]
    assert after_big - after_small > after_small - small


def test_keyword_arguments_are_priced_as_they_cross(platform, image):
    copies = []
    for args, kwargs in (((4,), {}), ((), {"by": 4})):
        enclave = platform.load_enclave(image)
        enclave.ecall("increment", *args, **kwargs)
        copies.append(enclave.meter.buckets["boundary-copies"])
    assert copies[0] == copies[1] > 0


def test_epc_accounting(platform, image, vendor):
    used_before = platform.epc_used_bytes()
    enclave = platform.load_enclave(image)
    assert platform.epc_used_bytes() == used_before + image.memory_bytes
    enclave.destroy()
    assert platform.epc_used_bytes() == used_before


def test_epc_overflow_charges_paging(attestation_service, vendor):
    big_image = EnclaveImage.build(
        CounterProgram, vendor, memory_bytes=3 * (1 << 20)
    )
    platform = SgxPlatform(
        b"tiny-epc", attestation_service=attestation_service, epc_bytes=1 << 20
    )
    enclave = platform.load_enclave(big_image)
    enclave.ecall("increment")
    assert enclave.meter.buckets.get("epc-paging", 0) > 0


def test_no_paging_within_epc(enclave):
    enclave.ecall("increment")
    assert enclave.meter.buckets.get("epc-paging", 0) == 0


def test_destroyed_enclave_rejects_ecalls(enclave):
    enclave.destroy()
    with pytest.raises(EnclaveError):
        enclave.ecall("increment")


def test_monotonic_counter_via_api(enclave):
    assert enclave.ecall("bump_counter", "rounds") == 1
    assert enclave.ecall("bump_counter", "rounds") == 2
    assert enclave.ecall("bump_counter", "other") == 1


def test_counters_scoped_by_measurement(platform, vendor, image):
    class OtherProgram(EnclaveProgram):
        @ecall
        def bump(self, name):
            return self.api.monotonic_counter(name).increment()

    other_image = EnclaveImage.build(OtherProgram, vendor)
    a = platform.load_enclave(image)
    b = platform.load_enclave(other_image)
    assert a.ecall("bump_counter", "shared-name") == 1
    assert b.ecall("bump", "shared-name") == 1  # independent counter


def test_enclave_rng_deterministic_per_platform_seed(image):
    def load_and_draw(seed):
        platform = SgxPlatform(seed)  # unprovisioned is fine for this test
        enclave = platform.load_enclave(image)
        return enclave._api.rng.generate(16)

    assert load_and_draw(b"same") == load_and_draw(b"same")
    assert load_and_draw(b"same") != load_and_draw(b"different")
