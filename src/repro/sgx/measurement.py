"""Enclave images, vendor signing, and measurement (MRENCLAVE / MRSIGNER).

An :class:`EnclaveImage` is what a vendor ships: code identity, immutable
configuration, a version, and the vendor's signature.  Its *measurement*
(MRENCLAVE in SGX terms) is a hash over all identity-bearing content, so any
tampering — a patched predicate, a different config, a bumped version —
yields a different measurement and therefore fails attestation against a
published Glimmer hash (§3: "Once it has been vetted, the hash of the
Glimmer is published").

MRSIGNER is the hash of the vendor's public key, used by sealing policies
that allow upgrades across versions from the same vendor.
"""

from __future__ import annotations

import ast
import inspect
import linecache
from dataclasses import dataclass, field
from functools import cache

from repro.crypto.drbg import HmacDrbg
from repro.crypto.hashing import hash_items
from repro.crypto.schnorr import SchnorrKeyPair, SchnorrPublicKey, SchnorrSignature
from repro.errors import ConfigurationError, EnclaveError
from repro.sgx.enclave import EnclaveProgram


def _image_payload(
    name: str, version: int, code: bytes, config: bytes,
    memory_bytes: int, debug: bool,
) -> bytes:
    return hash_items(
        "enclave-image",
        [
            name.encode("utf-8"),
            version.to_bytes(4, "big"),
            code,
            config,
            memory_bytes.to_bytes(8, "big"),
            b"\x01" if debug else b"\x00",
        ],
    )


@cache
def _class_starts(filename: str) -> tuple[list[str], dict[str, int]]:
    """A source file's lines and, by qualified name, the first line of
    each class it defines (its first decorator, if any), zero-based.

    One ``ast.parse`` per file, found as :func:`inspect.getsource` finds
    a class — the first definition of the name in source order, and a
    function's classes under ``<locals>`` — which parses the whole file
    again for every class it is asked for.
    """
    lines = linecache.getlines(filename)
    starts: dict[str, int] = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = prefix + child.name
                first = child.decorator_list[0] if child.decorator_list else child
                starts.setdefault(name, first.lineno - 1)
                visit(child, name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse("".join(lines)), "")
    return lines, starts


@cache
def code_identity_of(program_class: type) -> bytes:
    """Canonical byte identity of an enclave program's code.

    The source of every class in the program's MRO below
    :class:`~repro.sgx.enclave.EnclaveProgram`, in MRO order, so editing
    any code the program runs — a shared step or base included — changes
    the measurement (the property tamper experiments need).  A class with
    no source (dynamically generated) contributes its qualified name.
    The bytes are :func:`inspect.getsource`'s, sliced from one parse per
    source file (:func:`_class_starts`); memoised per class, since a
    class's source is fixed once imported.
    """
    measured = [
        cls for cls in program_class.__mro__
        if issubclass(cls, EnclaveProgram) and cls is not EnclaveProgram
    ] or [program_class]
    parts = []
    for cls in measured:
        try:
            lines, starts = _class_starts(inspect.getsourcefile(cls))
            parts.append("".join(inspect.getblock(lines[starts[cls.__qualname__]:])))
        except (OSError, TypeError, KeyError):
            parts.append(cls.__qualname__)
    return "".join(parts).encode("utf-8")


#: Vendor-signature checks that passed (see
#: :meth:`EnclaveImage.verify_vendor_signature`), capped like the group
#: membership memo so no stream of images can balloon it.
_LAUNCHED: set[tuple] = set()
_MAX_LAUNCHED = 1024


@dataclass(frozen=True)
class VendorKey:
    """A vendor's signing identity (ISV key in SGX terms)."""

    keypair: SchnorrKeyPair

    @classmethod
    def generate(cls, rng: HmacDrbg) -> "VendorKey":
        return cls(keypair=SchnorrKeyPair.generate(rng))

    @property
    def public_key(self) -> SchnorrPublicKey:
        return self.keypair.public_key

    def mrsigner(self) -> bytes:
        return hash_items("mrsigner", [self.public_key.fingerprint()])


@dataclass(frozen=True)
class EnclaveImage:
    """A signed, measurable enclave binary.

    Build with :meth:`build` (which signs) rather than the constructor, and
    instantiate on a platform with
    :meth:`repro.sgx.platform.SgxPlatform.load_enclave`.
    """

    name: str
    version: int
    code: bytes
    config: bytes
    memory_bytes: int
    debug: bool
    program_class: type | None
    vendor_public: SchnorrPublicKey
    vendor_signature: SchnorrSignature
    mrenclave: bytes = field(init=False)
    mrsigner: bytes = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mrenclave", self._compute_mrenclave())
        object.__setattr__(
            self,
            "mrsigner",
            hash_items("mrsigner", [self.vendor_public.fingerprint()]),
        )

    def _signed_payload(self) -> bytes:
        return _image_payload(
            self.name, self.version, self.code, self.config,
            self.memory_bytes, self.debug,
        )

    def _compute_mrenclave(self) -> bytes:
        return hash_items("mrenclave", [self._signed_payload()])

    @classmethod
    def build(
        cls,
        program_class: type,
        vendor: VendorKey,
        name: str | None = None,
        version: int = 1,
        config: bytes = b"",
        memory_bytes: int = 1 << 20,
        debug: bool = False,
        code: bytes | None = None,
    ) -> "EnclaveImage":
        """Measure and vendor-sign a program class into a loadable image."""
        if version < 1:
            raise ConfigurationError("version must be >= 1")
        if memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        resolved_code = code if code is not None else code_identity_of(program_class)
        resolved_name = name or program_class.__name__
        payload = _image_payload(
            resolved_name, version, resolved_code, config, memory_bytes, debug
        )
        return cls(
            name=resolved_name,
            version=version,
            code=resolved_code,
            config=config,
            memory_bytes=memory_bytes,
            debug=debug,
            program_class=program_class,
            vendor_public=vendor.public_key,
            vendor_signature=vendor.keypair.sign(payload),
        )

    def verify_vendor_signature(self) -> None:
        """Launch-control check: the image must carry a valid vendor signature.

        A pass is remembered, keyed on all the check reads (the vendor
        key, the signed payload's digest and the signature), so a fleet
        loading one image verifies it once; a refusal is never remembered.
        """
        try:
            payload = self._signed_payload()
            key = (self.vendor_public, payload, self.vendor_signature)
            if key in _LAUNCHED:
                return
            self.vendor_public.verify(payload, self.vendor_signature)
        except Exception as exc:
            raise EnclaveError("vendor signature invalid") from exc
        if len(_LAUNCHED) >= _MAX_LAUNCHED:
            _LAUNCHED.clear()
        _LAUNCHED.add(key)
