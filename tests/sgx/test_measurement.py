"""Tests for enclave images and measurement."""

import importlib
import inspect
import pkgutil
from dataclasses import replace

import pytest

import repro
from repro.core.split import ValidationEnclaveProgram, _ComponentProgram
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError, EnclaveError
from repro.sgx import EnclaveImage, EnclaveProgram, VendorKey, ecall
from repro.sgx.measurement import code_identity_of

from tests.sgx.conftest import CounterProgram


class OtherProgram(EnclaveProgram):
    @ecall
    def noop(self):
        return None


def test_measurement_deterministic(vendor):
    a = EnclaveImage.build(CounterProgram, vendor)
    b = EnclaveImage.build(CounterProgram, vendor)
    assert a.mrenclave == b.mrenclave


def test_different_code_different_measurement(vendor):
    a = EnclaveImage.build(CounterProgram, vendor)
    b = EnclaveImage.build(OtherProgram, vendor, name=a.name)
    assert a.mrenclave != b.mrenclave


def test_config_changes_measurement(vendor):
    a = EnclaveImage.build(CounterProgram, vendor, config=b"range=[0,1]")
    b = EnclaveImage.build(CounterProgram, vendor, config=b"range=[0,538]")
    assert a.mrenclave != b.mrenclave


def test_version_changes_measurement(vendor):
    a = EnclaveImage.build(CounterProgram, vendor, version=1)
    b = EnclaveImage.build(CounterProgram, vendor, version=2)
    assert a.mrenclave != b.mrenclave


def test_debug_flag_changes_measurement(vendor):
    a = EnclaveImage.build(CounterProgram, vendor, debug=False)
    b = EnclaveImage.build(CounterProgram, vendor, debug=True)
    assert a.mrenclave != b.mrenclave


def test_mrsigner_tracks_vendor(vendor):
    other_vendor = VendorKey.generate(HmacDrbg(b"other-vendor"))
    a = EnclaveImage.build(CounterProgram, vendor)
    b = EnclaveImage.build(CounterProgram, other_vendor)
    assert a.mrsigner != b.mrsigner
    assert a.mrenclave == b.mrenclave  # same code, same measurement


def test_same_vendor_same_mrsigner(vendor):
    a = EnclaveImage.build(CounterProgram, vendor, version=1)
    b = EnclaveImage.build(CounterProgram, vendor, version=2)
    assert a.mrsigner == b.mrsigner


def test_vendor_signature_verifies(image):
    image.verify_vendor_signature()  # must not raise


def test_forged_vendor_signature_rejected(vendor, image):
    impostor = VendorKey.generate(HmacDrbg(b"impostor"))
    forged = EnclaveImage(
        name=image.name,
        version=image.version,
        code=image.code,
        config=image.config,
        memory_bytes=image.memory_bytes,
        debug=image.debug,
        program_class=image.program_class,
        vendor_public=vendor.public_key,           # claims the real vendor
        vendor_signature=impostor.keypair.sign(b"junk"),
    )
    with pytest.raises(EnclaveError):
        forged.verify_vendor_signature()


def test_invalid_build_parameters(vendor):
    with pytest.raises(ConfigurationError):
        EnclaveImage.build(CounterProgram, vendor, version=0)
    with pytest.raises(ConfigurationError):
        EnclaveImage.build(CounterProgram, vendor, memory_bytes=0)


def test_code_identity_uses_source():
    identity = code_identity_of(CounterProgram)
    assert b"increment" in identity


def test_code_identity_covers_inherited_code():
    """A split enclave's measurement covers the pairing and link code and
    the Glimmer step it inherits, not only its own class body."""
    identity = code_identity_of(ValidationEnclaveProgram)
    assert inspect.getsource(_ComponentProgram).encode() in identity
    from repro.core.glimmer import ValidateStep

    assert inspect.getsource(ValidateStep).encode() in identity


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_code_identity_is_getsource_over_the_mro():
    """One parse per source file gives the bytes ``inspect.getsource``
    gives, for every enclave program in the package."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)
    programs = [
        cls for cls in set(_subclasses(EnclaveProgram))
        if cls.__module__.startswith("repro.")
    ]
    assert len(programs) >= 10
    for program in programs:
        expected = "".join(
            inspect.getsource(cls)
            for cls in program.__mro__
            if issubclass(cls, EnclaveProgram) and cls is not EnclaveProgram
        )
        assert code_identity_of(program) == expected.encode(), program.__qualname__


def _rebuilt(image, vendor, **overrides):
    """``image`` built again by ``vendor``, with ``overrides``."""
    params = {
        "name": image.name,
        "version": image.version,
        "config": image.config,
        "memory_bytes": image.memory_bytes,
        "debug": image.debug,
        "code": image.code,
    }
    params.update(overrides)
    return EnclaveImage.build(image.program_class, vendor, **params)


def test_rebuilt_with_overrides(vendor, image):
    rebuilt = _rebuilt(image, vendor, version=5)
    assert rebuilt.version == 5
    assert rebuilt.mrenclave != image.mrenclave
    rebuilt.verify_vendor_signature()


def test_rebuilt_identical_matches(vendor, image):
    assert _rebuilt(image, vendor).mrenclave == image.mrenclave


def test_launch_control_remembers_only_what_it_checked(vendor, image, platform):
    """Once a genuine image has loaded, a rebuilt image carrying its
    signature and the genuine image under another signature are still
    refused: the remembered pass is keyed on key, payload and signature."""
    platform.load_enclave(image)
    platform.load_enclave(image)  # the remembered pass
    rebuilt = replace(
        _rebuilt(image, vendor, config=b"range=[0,538]"),
        vendor_signature=image.vendor_signature,
    )
    swapped = replace(
        image, vendor_signature=_rebuilt(image, vendor, version=2).vendor_signature
    )
    for refused in (rebuilt, swapped):
        with pytest.raises(EnclaveError, match="vendor signature invalid"):
            platform.load_enclave(refused)
