"""One wire codec: binary frames, tagged where a declaration does not
already say what a field holds.

Everything that crosses a boundary — a bus message, an ecall or ocall
value, a sealed checkpoint, a §4.2 remote request, a split-enclave link —
is spelled by :func:`encode`, priced by its length and read back by
:func:`decode`.  No module path, no field name and no code travels: a
frame is a type tag and the bytes of the value, so a reader admits only
the types listed here and the dataclasses registered with :func:`wire`.

Framing (big-endian throughout):

* every value starts with a 1-byte tag;
* ``None``, ``False`` and ``True`` are their tag alone;
* an ``int`` in ``[-2**63, 2**63)`` is 8 bytes; a wider one carries a
  u32 length and its two's-complement bytes;
* a ``float`` is 8 bytes of IEEE-754 (NaN and its payload survive);
* ``bytes``, ``bytearray``, ``memoryview`` and ``str`` (UTF-8) carry a
  u32 byte length; ``tuple``, ``list`` and ``dict`` a u32 item count; a
  1-D float64 ``ndarray`` a u32 element count and 8 bytes each;
* a registered dataclass is its 2-byte tag (high bit set, so its first
  byte is its type tag) followed by its fields in declaration order.

A field whose declared check has a width is spelled at that width, with
no tag of its own: ``Int(lo, hi)`` with ``0 <= lo`` as a u32 when
``hi < 2**32`` and a u64 when ``hi < 2**64``; ``Fraction(scale)`` as a
u16 of its numerator; ``Bytes(n)`` as its ``n`` bytes; ``Bytes()``,
``Packed``, ``Is(bytes)`` and ``Is(str)`` as a u32 length and the bytes;
``Bool`` as one byte; ``Is(<registered class>)`` as that class's fields,
with no class tag; ``Optional(x)`` of any of these behind a presence
byte.  A record with a ``Named(groups)`` field is
*grouped*: its group's one-byte code (0 for none) goes before its fields,
and each ``Element()``, ``Scalar()`` or ``TupleOf(Element())`` field is
spelled exactly as wide as its bound in that group, or as nothing where
the record names none.  Every other field is a tagged value as above.  A
registered object with a field its declared width cannot spell (only a
Byzantine or mistyped value) travels instead under its
class's second tag, :data:`LOOSE` above the first, every field a tagged
value (a group as its code): ``encode`` spells anything it could before,
and ``decode`` reads both forms and runs the same checks on either.

Sizes follow the shape, not the value: a packed vector, every declared
field that fits its declaration (group values too) and every int below ``2**63`` in
magnitude encode to a length their value cannot move.
:func:`decode` refuses an unknown tag, a truncated buffer, trailing
bytes, and anything a registered class refuses to be built from, always
with :class:`~repro.errors.ProtocolViolation`.

A registered class may declare a check per field (``@wire(tag,
round_id=ROUND_ID)``).  :func:`decode` runs them on every object it builds;
:func:`encode` runs none, so a Byzantine sender can still put a bad value
on the wire, and its receiver blames it.

The only import from the package is :mod:`repro.errors`, which imports
nothing, so every layer can use the codec without an import cycle.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import VIOLATION_MALFORMED, ProtocolViolation, UnencodablePayload

NONE = 0x00
FALSE = 0x01
TRUE = 0x02
INT = 0x03
BIGINT = 0x04
FLOAT = 0x05
BYTES = 0x06
BYTEARRAY = 0x07
MEMORYVIEW = 0x08
STR = 0x09
TUPLE = 0x0A
LIST = 0x0B
DICT = 0x0C
F64_ARRAY = 0x0D
DATACLASS_MIN = 0x8000
"""Registered dataclass tags are ``0x8000``–``0xBFFF``: their first byte
is ``>= 0x80``, which no builtin tag uses."""
LOOSE = 0x4000
"""Added to a class's tag for the frame of an object that does not fit its
declared widths (``0xC000``–``0xFFFF``)."""

MAX_DEPTH = 64
"""Nesting a frame may use; deeper is refused, never a RecursionError."""

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_HEAD = struct.Struct(">BI")  # tag + u32 length / count
_INT = struct.Struct(">Bq")
_FLOAT = struct.Struct(">Bd")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_Q = struct.Struct(">q")
_D = struct.Struct(">d")
_BE_F64 = np.dtype(">f8")

_BY_CLASS: dict[type, "_Layout"] = {}
_BY_TAG: dict[int, "_Layout"] = {}


def wire(tag: int, **checks: "Check | type") -> Callable[[type], type]:
    """Class decorator: give a dataclass its 2-byte tag on the wire, and
    any of its fields a check.

    Its fields travel in declaration order, so every field must be an
    ``__init__`` argument (:func:`decode` rebuilds it positionally).  A
    tag names one class for good: frames outlive processes (sealed
    checkpoints), so renumbering one breaks every blob that used it.
    ``checks`` maps fields to checks below, or to the registered class a
    field must hold exactly; a field without one is unchecked.  A field
    whose check has a width is spelled at it (see the module docstring),
    so a class's declarations are part of its frame as much as its tag.
    """
    if not DATACLASS_MIN <= tag < DATACLASS_MIN + LOOSE:
        raise ValueError(f"dataclass tag {tag:#x} outside [0x8000, 0xBFFF]")

    def register(cls: type) -> type:
        names = tuple(f.name for f in fields(cls))
        if any(not f.init for f in fields(cls)):
            raise TypeError(f"{cls.__qualname__} has a field __init__ does not take")
        if tag in _BY_TAG or cls in _BY_CLASS:
            raise ValueError(f"wire tag {tag:#x} or class {cls.__qualname__} taken")
        declared = {name: _checker(check) for name, check in checks.items()}
        if not declared.keys() <= set(names):
            raise TypeError(f"{cls.__qualname__} lacks a field {sorted(checks)} names")
        _BY_CLASS[cls] = _BY_TAG[tag] = _Layout(cls, tag, names, declared)
        return cls

    return register


def registered() -> dict[int, type]:
    """Every registered dataclass, by tag."""
    return {tag: layout.cls for tag, layout in _BY_TAG.items()}


def declared(cls: type) -> dict[str, "Check"]:
    """The check each field of the registered ``cls`` declares, by field
    name; a field without one is absent."""
    return dict(_BY_CLASS[cls].declared)


# ------------------------------------------------------------------ checks
#
# A check called on one value returns ``None`` when it holds, else what
# is wrong with it, worded to follow the field's name.  ``many`` judges a
# whole run of items at once, in C-level passes (``map``, ``set``) where
# a check has them, not a Python call per item.
# Each tests the exact type (no ``bool`` for ``int``, no ``list`` for
# ``tuple``) and never raises.  The bounds gate absurdity, not policy.
# ``spelling`` is how a field under the check travels: a ``(put, get)``
# pair (see "declared widths" below), or ``None`` for a tagged value.
# ``bound(group)`` is the check in a record that names ``group`` (or none).

MAX_ROUND_ID = (1 << 32) - 1
"""The largest round id the wire spells: a declared round id is a u32."""
MAX_PARTIES = 1_000_000
MAX_VECTOR_LENGTH = 10_000_000


class Check:
    """A field check.  This one admits anything (an unchecked field, a
    pair's unchecked second); subclasses judge one value in ``__call__``."""

    def __call__(self, value: Any) -> str | None:
        return None

    def many(self, values: Sequence) -> str | None:
        """The first complaint about any of ``values``."""
        for value in values:
            complaint = self(value)
            if complaint:
                return complaint
        return None

    def spelling(self) -> "_Spelling | None":
        return None

    def bound(self, group: Any) -> "Check":
        return self


class Is(Check):
    """Exactly ``kind``: a builtin, or a registered class (whose own
    fields :func:`decode` checked when it built the object)."""

    def __init__(self, kind: type) -> None:
        self.kind = kind

    def __call__(self, value: Any) -> str | None:
        if type(value) is self.kind:
            return None
        return f"must be {self.kind.__name__}, not {type(value).__name__}"

    def many(self, values: Sequence) -> str | None:
        wrong = set(map(type, values)) - {self.kind}
        if wrong:
            return f"must be {self.kind.__name__}, not {wrong.pop().__name__}"
        return None

    def spelling(self) -> "_Spelling | None":
        if self.kind in _SPELLINGS:
            return _SPELLINGS[self.kind]
        layout = _BY_CLASS.get(self.kind)
        return layout and layout.inline


def _checker(check: "Check | type | None") -> Check:
    """A check as given, a class as :class:`Is`, ``None`` as no check."""
    if check is None:
        return _ANYTHING
    if isinstance(check, type):
        return Is(check)
    return check


_ANYTHING = Check()
Bool, Str = Is(bool), Is(str)
_ABSENT = Is(type(None))  # a group value where the record names no group
_IS_BYTES = Is(bytes)


class Int(Check):
    """An ``int`` in ``[lo, hi]``; ``None`` leaves that end open."""

    def __init__(self, lo: int | None = None, hi: int | None = None) -> None:
        self.lo, self.hi = lo, hi

    def __call__(self, value: Any) -> str | None:
        if type(value) is not int:
            return f"must be int, not {type(value).__name__}"
        if (self.lo is not None and value < self.lo) or (self.hi is not None and value > self.hi):
            return f"out of range [{self.lo}, {self.hi}]"
        return None

    def spelling(self) -> "_Spelling | None":
        if self.lo is None or self.lo < 0 or self.hi is None:
            return None
        if self.hi < 1 << 32:
            return _AS_U32
        return _AS_U64 if self.hi < 1 << 64 else None


class Bytes(Check):
    """``bytes`` of exactly ``size``, or any non-empty ``bytes``."""

    def __init__(self, size: int | None = None) -> None:
        self.size = size

    def __call__(self, value: Any) -> str | None:
        if type(value) is not bytes:
            return f"must be bytes, not {type(value).__name__}"
        return self._sized({len(value)})

    def many(self, values: Sequence) -> str | None:
        complaint = _IS_BYTES.many(values)
        if complaint:
            return complaint
        return self._sized(set(map(len, values)))

    def _sized(self, sizes: set) -> str | None:
        wrong = sizes - {self.size} if self.size else sizes & {0}
        if wrong:
            return f"must be {self.size or 'some'} bytes, not {wrong.pop()}"
        return None

    def spelling(self) -> "_Spelling":
        return _exactly(self.size) if self.size else _SPELLINGS[bytes]


class Packed(Check):
    """``bytes`` of one to :data:`MAX_VECTOR_LENGTH` 8-byte big-endian
    values, judged by length alone; with ``finite``, doubles all finite."""

    def __init__(self, finite: bool = False) -> None:
        self.finite = finite

    def __call__(self, value: Any) -> str | None:
        if type(value) is not bytes:
            return f"must be packed bytes, not {type(value).__name__}"
        if not value or len(value) % 8:
            return f"is not whole 8-byte values: {len(value)} bytes"
        if len(value) > 8 * MAX_VECTOR_LENGTH:
            return "exceeds the vector-length cap"
        if self.finite and not np.isfinite(np.frombuffer(value, _BE_F64)).all():
            return "holds a non-finite value"
        return None

    def spelling(self) -> "_Spelling":
        return _SPELLINGS[bytes]


class Optional(Check):
    """``None``, or a value passing ``check``."""

    def __init__(self, check: "Check | type") -> None:
        self.check = _checker(check)

    def __call__(self, value: Any) -> str | None:
        if value is None:
            return None
        return self.check(value)

    def spelling(self) -> "_Spelling | None":
        inner = self.check.spelling()
        return inner and _optional(inner)

    def bound(self, group: Any) -> Check:
        inner = self.check.bound(group)
        return self if inner is self.check else inner if inner is _ABSENT else Optional(inner)


class TupleOf(Check):
    """A ``tuple`` of at most :data:`MAX_VECTOR_LENGTH` items, each
    passing ``item`` when one is given."""

    kind = tuple

    def __init__(self, item: "Check | type | None" = None) -> None:
        self.item = _checker(item)

    def __call__(self, value: Any) -> str | None:
        if type(value) is not self.kind:
            return f"must be {self.kind.__name__}, not {type(value).__name__}"
        if len(value) > MAX_VECTOR_LENGTH:
            return "exceeds the vector-length cap"
        return self.item.many(value)

    def spelling(self) -> "_Spelling | None":
        inner = self.item.spelling() if isinstance(self.item, Scalar) else None
        return inner and _run(inner, self.kind)

    def bound(self, group: Any) -> Check:
        item = self.item.bound(group)
        return self if item is self.item else item if item is _ABSENT else type(self)(item)


class ListOf(TupleOf):
    """A ``list`` of at most :data:`MAX_VECTOR_LENGTH` items, each
    passing ``item`` when one is given."""

    kind = list


class Pair(Check):
    """A 2-``tuple`` whose items pass ``first`` and ``second``."""

    def __init__(self, first: "Check | type", second: "Check | type | None" = None) -> None:
        self.first, self.second = _checker(first), _checker(second)

    def __call__(self, value: Any) -> str | None:
        if type(value) is not tuple or len(value) != 2:
            return "must be a pair"
        return self.first(value[0]) or self.second(value[1])


class Named(Check):
    """One of ``table``'s groups, each with a fixed one-byte ``code`` (1 to
    255), which is all of it that travels: the field makes its record
    grouped (module docstring)."""

    def __init__(self, table: dict) -> None:
        self.table = table
        self.by_code = {group.code: group for group in table.values()}

    def code(self, value: Any) -> int | None:
        """``value``'s code, 0 for ``None``, ``None`` for a value no group is."""
        if value is None:
            return 0
        known = self.by_code.get(getattr(value, "code", None))
        return known.code if type(value) is type(known) and value == known else None

    def __call__(self, value: Any) -> str | None:
        return None if self.code(value) else f"must be one of {sorted(self.table)}"


class Scalar(Check):
    """An ``int`` in ``[0, q)`` of the record's group (``[0, min(q,
    2**bits))`` with ``bits``: a short challenge), spelled exactly as wide
    as the bound.  Declared unbound; the record binds it to its group."""

    def __init__(self, group: Any = None, bits: int | None = None) -> None:
        self.group, self.bits = group, bits
        if group is not None:
            self.lo, self.limit = self._range(group)
            self.width = ((self.limit - 1).bit_length() + 7) // 8

    def _range(self, group: Any) -> tuple[int, int]:
        q = group.subgroup_order
        return 0, min(q, 1 << self.bits) if self.bits else q

    def bound(self, group: Any) -> Check:
        return _ABSENT if group is None else type(self)(group, self.bits)

    def __call__(self, value: Any) -> str | None:
        if type(value) is not int:
            return f"must be int, not {type(value).__name__}"
        if not self.lo <= value < self.limit:
            return f"out of range [{self.lo}, {self.limit}) in {self.group.name}"
        return None

    def spelling(self) -> "_Spelling | None":
        return self.group and _unsigned(self.width)


class Element(Scalar):
    """A member of the record's group's prime-order subgroup (``0 < x < p``,
    Jacobi symbol 1), spelled exactly as wide as ``p``."""

    def _range(self, group: Any) -> tuple[int, int]:
        return 1, group.prime

    def __call__(self, value: Any) -> str | None:
        complaint = super().__call__(value)
        if complaint or self.group.is_element(value):
            return complaint
        return f"is not in the prime-order subgroup of {self.group.name}"


class _Unit(Check):
    """An ``int`` or ``float`` in ``[0, 1]``, compared as it is (NaN fails
    every comparison; an int too large for a float is merely out of range)."""

    def __call__(self, value: Any) -> str | None:
        if type(value) in (int, float) and 0.0 <= value <= 1.0:
            return None
        return "out of [0, 1]"


Unit = _Unit()


class Fraction(Check):
    """A number in ``[0, 1]`` that is exactly ``k / scale`` for a whole
    ``k``, spelled as ``k`` in a u16: the quantum a signature covering
    ``round(value * scale)`` commits to, so no other value shares it."""

    def __init__(self, scale: int) -> None:
        if not 0 < scale < 1 << 16:
            raise ValueError(f"a fraction's scale {scale} has no u16 spelling")
        self.scale = scale

    def __call__(self, value: Any) -> str | None:
        complaint = Unit(value)
        if complaint or round(value * self.scale) / self.scale == value:
            return complaint
        return f"is not a whole number of 1/{self.scale}"

    def spelling(self) -> "_Spelling":
        scale = self.scale

        def put(value, out: list, depth: int) -> bool:
            if self(value):
                return False
            out.append(_U16.pack(round(value * scale)))
            return True

        def get(buf: bytes, off: int, depth: int):
            return _U16.unpack_from(buf, off)[0] / scale, off + 2

        return put, get


ROUND_ID, LENGTH = Int(0, MAX_ROUND_ID), Int(1, MAX_VECTOR_LENGTH)
PARTIES, SLOT, SIZE = Int(1, MAX_PARTIES), Int(0, MAX_PARTIES - 1), Int(0, MAX_PARTIES)


def blamed(check: "Check | type | None") -> Callable[[str, "int | None", str, Any], None]:
    """``check`` for an in-memory value, as ``(offender, round_id, name,
    value) -> None``: the check, then whatever :func:`decode` would refuse
    in the value's frame.  A failure is a ``malformed-message``
    :class:`ProtocolViolation` blamed on ``offender``."""
    check = _checker(check)

    def run(offender: str, round_id: int | None, name: str, value: Any) -> None:
        complaint = check(value)
        try:
            if complaint:
                raise _malformed(f"{name} {complaint}")
            decode(encode(value))
        except ProtocolViolation as exc:
            raise ProtocolViolation(
                exc.detail, offender=offender, kind=VIOLATION_MALFORMED, round_id=round_id
            ) from None

    return run


def _complaint(cls: type, schema: tuple, items) -> str | None:
    """The first of ``items`` to fail its check in ``schema``, named."""
    for index, name, check in schema:
        complaint = check(items[index])
        if complaint:
            return f"{cls.__qualname__}.{name} {complaint}"
    return None


# --------------------------------------------------------- declared widths
#
# A spelling is ``(put, get)``.  ``put(value, out, depth)`` appends the
# value's bytes to ``out`` and returns True, or returns False (``out``
# partly written) when the value does not fit; ``get(buf, off, depth)``
# returns the value and the offset after it.  ``depth`` is the field's.

_Spelling = tuple  # (put, get)


def _put_tagged(value: Any, out: list, depth: int) -> bool:
    _encode(value, out, depth)
    return True


@lru_cache(maxsize=None)
def _unsigned(size: int) -> _Spelling:
    """An ``int`` in ``[0, 2**(8·size))`` as its ``size`` bytes."""
    limit = 1 << (8 * size)

    def put(value, out: list, depth: int) -> bool:
        if type(value) is not int or not 0 <= value < limit:
            return False
        out.append(value.to_bytes(size, "big"))
        return True

    def get(buf: bytes, off: int, depth: int):
        return int.from_bytes(_take(buf, off, size), "big"), off + size

    return put, get


def _run(inner: _Spelling, kind: type) -> _Spelling:
    """A ``kind`` sequence as a u32 count and its items, each ``inner``."""
    put_item, get_item = inner

    def put(value, out: list, depth: int) -> bool:
        if type(value) is not kind:
            return False
        out.append(_U32.pack(len(value)))
        return all(put_item(item, out, depth) for item in value)

    def get(buf: bytes, off: int, depth: int):
        count, off = _length(buf, off)
        items = []
        for __ in range(count):
            item, off = get_item(buf, off, depth)
            items.append(item)
        return kind(items), off

    return put, get


def _exactly(size: int) -> _Spelling:
    """``bytes`` of ``size`` as they are."""

    def put(value, out: list, depth: int) -> bool:
        if type(value) is not bytes or len(value) != size:
            return False
        out.append(value)
        return True

    def get(buf: bytes, off: int, depth: int):
        return _take(buf, off, size), off + size

    return put, get


def _put_sized_bytes(value, out: list, depth: int) -> bool:
    if type(value) is not bytes:
        return False
    out.append(_U32.pack(len(value)))
    out.append(value)
    return True


def _get_sized_bytes(buf: bytes, off: int, depth: int):
    size, off = _length(buf, off)
    return _take(buf, off, size), off + size


def _put_sized_str(value, out: list, depth: int) -> bool:
    return type(value) is str and _put_sized_bytes(value.encode("utf-8"), out, depth)


def _get_sized_str(buf: bytes, off: int, depth: int):
    raw, off = _get_sized_bytes(buf, off, depth)
    return raw.decode("utf-8"), off


def _put_bool(value, out: list, depth: int) -> bool:
    if type(value) is not bool:
        return False
    out.append(b"\x01" if value else b"\x00")
    return True


def _flag(buf: bytes, off: int, what: str) -> bool:
    if buf[off] > 1:
        raise _malformed(f"{what} byte {buf[off]:#04x}")
    return buf[off] == 1


def _optional(inner: _Spelling) -> _Spelling:
    """``None``, or a value ``inner`` spells, behind a presence byte."""
    put_value, get_value = inner

    def put(value, out: list, depth: int) -> bool:
        if value is None:
            out.append(b"\x00")
            return True
        out.append(b"\x01")
        return put_value(value, out, depth)

    def get(buf: bytes, off: int, depth: int):
        if not _flag(buf, off, "presence"):
            return None, off + 1
        return get_value(buf, off + 1, depth)

    return put, get


_TAGGED = (_put_tagged, lambda buf, off, depth: _decode(buf, off, depth))
_AS_U32, _AS_U64 = _unsigned(4), _unsigned(8)
_CODES = [bytes([code]) for code in range(256)]
_SPELLINGS = {  # Is(kind) -> its spelling
    type(None): (lambda value, out, depth: value is None, lambda buf, off, depth: (None, off)),
    bytes: (_put_sized_bytes, _get_sized_bytes),
    str: (_put_sized_str, _get_sized_str),
    bool: (_put_bool, lambda buf, off, depth: (_flag(buf, off, "bool"), off + 1)),
}


class _Form:
    """A record's checks and spellings, bound to one group it may name
    (the group field then spelled as nothing: its code went first)."""

    def __init__(self, names: tuple, declared: dict, group: Any, at: int | None) -> None:
        checks = {name: check.bound(group) for name, check in declared.items()}
        # (field index, field name, check), as _complaint reads them: the group's first
        self.schema = tuple(sorted(
            ((i, n, checks[n]) for i, n in enumerate(names) if n in checks),
            key=lambda entry: entry[0] != at,
        ))
        spellings = [(n in checks and checks[n].spelling()) or _TAGGED for n in names]
        if at is not None:
            spellings[at] = (lambda *__: True, lambda buf, off, depth: (group, off))
        self.puts = tuple(put for put, __ in spellings)
        self.gets = tuple(get for __, get in spellings)
        self.tagged = all(spelling is _TAGGED for spelling in spellings)


class _Layout:
    """A registered class on the wire: its two tags, its declared checks
    and each field's spelling, one form per group a grouped record names."""

    def __init__(self, cls: type, tag: int, names: tuple, declared: dict) -> None:
        self.cls = cls
        self.count = len(names)
        self.header = tag.to_bytes(2, "big")
        self.loose_header = (tag + LOOSE).to_bytes(2, "big")
        self.getter = (
            attrgetter(*names)
            if len(names) > 1
            else lambda value: tuple(getattr(value, name) for name in names)
        )
        self.declared = {n: declared[n] for n in names if n in declared}
        self.inline = (self._put_inline, self._get_inline)
        # The group field, if any: a Named check, or an Optional of one.
        named = [(i, getattr(c, "check", c)) for i, c in enumerate(map(declared.get, names))]
        self.at, self.named = next(
            ((i, c) for i, c in named if isinstance(c, Named)), (None, None)
        )
        groups = self.named.by_code if self.named else {}
        self.forms = {
            code: _Form(names, declared, group, self.at)
            for code, group in {0: None, **groups}.items()
        }

    def encode(self, value: Any, out: list, depth: int) -> None:
        """Tag and fields; the loose tag and tagged fields when one does
        not fit its declared width."""
        if depth >= MAX_DEPTH:
            raise UnencodablePayload("value nests deeper than the wire allows")
        items = self.getter(value)
        mark = len(out)
        out.append(self.header)
        if self._pack(items, out, depth):
            return
        del out[mark:]
        out.append(self.loose_header)
        if self.named:
            items = list(items)
            items[self.at] = self.named.code(items[self.at]) or items[self.at]
        for item in items:
            _encode(item, out, depth + 1)

    def _pack(self, items, out: list, depth: int) -> bool:
        depth += 1
        form = self.forms[0]
        if self.named:
            code = self.named.code(items[self.at])
            if code is None:
                return False
            out.append(_CODES[code])
            form = self.forms[code]
        if form.tagged:
            for item in items:
                _encode(item, out, depth)
            return True
        for put, item in zip(form.puts, items):
            if not put(item, out, depth):
                return False
        return True

    def _put_inline(self, value: Any, out: list, depth: int) -> bool:
        if type(value) is not self.cls:
            return False
        if depth >= MAX_DEPTH:
            raise UnencodablePayload("value nests deeper than the wire allows")
        return self._pack(self.getter(value), out, depth)

    def decode(self, buf: bytes, off: int, depth: int, loose: bool) -> tuple[Any, int]:
        """The object whose fields start at ``off``, its checks run."""
        if depth >= MAX_DEPTH:
            raise _malformed("frame nests deeper than the wire allows")
        form = self.forms[0]
        if self.named and not loose:
            form = self.forms.get(buf[off])
            if form is None:
                raise _malformed(f"{self.cls.__qualname__} names no group: code {buf[off]}")
            off += 1
        if loose or form.tagged:
            args, off = _decode_items(buf, off, self.count, depth)
            if self.named:  # the group travelled as its code
                code = args[self.at]
                args[self.at] = self.named.by_code.get(code, code) if type(code) is int else code
                form = self.forms[self.named.code(args[self.at]) or 0]
        else:
            args = []
            for get in form.gets:
                item, off = get(buf, off, depth + 1)
                args.append(item)
        if form.schema and (complaint := _complaint(self.cls, form.schema, args)):
            raise _malformed(complaint)
        return self.cls(*args), off

    def _get_inline(self, buf: bytes, off: int, depth: int) -> tuple[Any, int]:
        return self.decode(buf, off, depth, False)


# ------------------------------------------------------------------ encode


def encode(value: Any) -> bytes:
    """The frame for ``value``; :class:`UnencodablePayload` when the wire
    has no spelling for it (an unregistered type, a non-float64 or
    multi-dimensional array, a string that is not valid Unicode)."""
    out: list[bytes] = []
    try:
        _encode(value, out, 0)
    except (UnicodeEncodeError, RecursionError) as exc:
        raise UnencodablePayload(f"unencodable value: {exc}") from None
    return b"".join(out)


def _encode(value: Any, out: list, depth: int) -> None:
    kind = type(value)
    encoder = _ENCODERS.get(kind)
    if encoder is not None:
        encoder(value, out, depth)
        return
    layout = _BY_CLASS.get(kind)
    if layout is not None:
        layout.encode(value, out, depth)
        return
    # Subclasses of the scalar builtins (np.float64, IntEnum) travel as
    # their base type; nothing else has a spelling.
    for base in (float, int, str):
        if isinstance(value, base):
            _ENCODERS[base](base(value), out, depth)
            return
    raise UnencodablePayload(
        f"the wire has no spelling for {kind.__module__}.{kind.__qualname__}"
    )


def _encode_int(value: int, out: list, depth: int) -> None:
    if _I64_MIN <= value <= _I64_MAX:
        out.append(_INT.pack(INT, value))
        return
    raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    out.append(_HEAD.pack(BIGINT, len(raw)))
    out.append(raw)


def _encode_buffer(tag: int) -> Callable[[Any, list, int], None]:
    def encode_buffer(value, out: list, depth: int) -> None:
        raw = value.tobytes() if tag == MEMORYVIEW else value
        out.append(_HEAD.pack(tag, len(raw)))
        out.append(raw)

    return encode_buffer


def _encode_str(value: str, out: list, depth: int) -> None:
    raw = value.encode("utf-8")
    out.append(_HEAD.pack(STR, len(raw)))
    out.append(raw)


def _encode_sequence(tag: int) -> Callable[[Any, list, int], None]:
    def encode_sequence(value, out: list, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise UnencodablePayload("value nests deeper than the wire allows")
        out.append(_HEAD.pack(tag, len(value)))
        for item in value:
            _encode(item, out, depth + 1)

    return encode_sequence


def _encode_dict(value: dict, out: list, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise UnencodablePayload("value nests deeper than the wire allows")
    out.append(_HEAD.pack(DICT, len(value)))
    for key, item in value.items():
        _encode(key, out, depth + 1)
        _encode(item, out, depth + 1)


def _encode_array(value: np.ndarray, out: list, depth: int) -> None:
    if value.dtype != np.float64 or value.ndim != 1:
        raise UnencodablePayload(
            f"only 1-D float64 arrays cross the wire, not {value.dtype}{value.shape}"
        )
    out.append(_HEAD.pack(F64_ARRAY, value.size))
    out.append(value.astype(_BE_F64, copy=False).tobytes())


_ENCODERS: dict[type, Callable[[Any, list, int], None]] = {
    type(None): lambda value, out, depth: out.append(b"\x00"),
    bool: lambda value, out, depth: out.append(b"\x02" if value else b"\x01"),
    int: _encode_int,
    float: lambda value, out, depth: out.append(_FLOAT.pack(FLOAT, value)),
    bytes: _encode_buffer(BYTES),
    bytearray: _encode_buffer(BYTEARRAY),
    memoryview: _encode_buffer(MEMORYVIEW),
    str: _encode_str,
    tuple: _encode_sequence(TUPLE),
    list: _encode_sequence(LIST),
    dict: _encode_dict,
    np.ndarray: _encode_array,
}


# ------------------------------------------------------------------ decode


def decode(frame: bytes | bytearray | memoryview, check: Check | type | None = None) -> Any:
    """The value one whole frame spells, held to ``check`` when one is
    given; :class:`ProtocolViolation` (``malformed-message``) for anything
    else."""
    if type(frame) not in (bytes, bytearray, memoryview):
        raise _malformed(f"a frame is bytes, not {type(frame).__name__}")
    buf = bytes(frame)
    try:
        value, end = _decode(buf, 0, 0)
    except ProtocolViolation:
        raise
    except (IndexError, struct.error):
        raise _malformed("truncated frame") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise _malformed(f"frame does not build its value: {exc}") from None
    if end != len(buf):
        raise _malformed(f"{len(buf) - end} trailing byte(s) after the frame")
    if check is not None and (complaint := _checker(check)(value)):
        raise _malformed(f"frame {complaint}")
    return value


def _malformed(detail: str) -> ProtocolViolation:
    return ProtocolViolation(detail, kind=VIOLATION_MALFORMED)


def _take(buf: bytes, off: int, size: int) -> bytes:
    end = off + size
    if end > len(buf):
        raise _malformed("truncated frame")
    return buf[off:end]


def _decode(buf: bytes, off: int, depth: int) -> tuple[Any, int]:
    tag = buf[off]
    if tag >= 0x80:
        number = int.from_bytes(_take(buf, off, 2), "big")
        layout = _BY_TAG.get(number & ~LOOSE)
        if layout is None:
            raise _malformed(f"unknown dataclass tag {buf[off:off + 2].hex()}")
        return layout.decode(buf, off + 2, depth, number & LOOSE)
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise _malformed(f"unknown tag {tag:#04x}")
    return decoder(buf, off + 1, depth)


def _length(buf: bytes, off: int) -> tuple[int, int]:
    (size,) = _U32.unpack_from(buf, off)
    return size, off + 4


def _decode_bigint(buf: bytes, off: int, depth: int) -> tuple[int, int]:
    size, off = _length(buf, off)
    raw = _take(buf, off, size)
    return int.from_bytes(raw, "big", signed=True), off + size


def _decode_buffer(build: Callable[[bytes], Any]):
    def decode_buffer(buf: bytes, off: int, depth: int):
        size, off = _length(buf, off)
        return build(_take(buf, off, size)), off + size

    return decode_buffer


def _decode_sequence(build: Callable[[Any], Any]):
    def decode_sequence(buf: bytes, off: int, depth: int):
        count, off = _length(buf, off)
        if count > len(buf) - off:
            raise _malformed("item count runs past the frame")
        if depth >= MAX_DEPTH:
            raise _malformed("frame nests deeper than the wire allows")
        items, off = _decode_items(buf, off, count, depth)
        return build(items), off

    return decode_sequence


def _decode_items(buf: bytes, off: int, count: int, depth: int) -> tuple[list, int]:
    """The ``count`` items of a container at ``depth``.  Scalars are read
    inline — the same frames, without a dispatch per item; anything else
    recurses."""
    items = []
    append = items.append
    for __ in range(count):
        tag = buf[off]
        if tag == INT:
            (item,) = _Q.unpack_from(buf, off + 1)
            off += 9
        elif tag == BYTES or tag == STR:
            (size,) = _U32.unpack_from(buf, off + 1)
            start = off + 5
            off = start + size
            if off > len(buf):
                raise _malformed("truncated frame")
            item = buf[start:off] if tag == BYTES else buf[start:off].decode("utf-8")
        elif tag == NONE:
            item = None
            off += 1
        elif tag == FLOAT:
            (item,) = _D.unpack_from(buf, off + 1)
            off += 9
        else:
            item, off = _decode(buf, off, depth + 1)
        append(item)
    return items, off


def _decode_dict(buf: bytes, off: int, depth: int):
    count, off = _length(buf, off)
    if 2 * count > len(buf) - off:
        raise _malformed("item count runs past the frame")
    if depth >= MAX_DEPTH:
        raise _malformed("frame nests deeper than the wire allows")
    result = {}
    for __ in range(count):
        key, off = _decode(buf, off, depth + 1)
        result[key], off = _decode(buf, off, depth + 1)
    return result, off


def _decode_array(buf: bytes, off: int, depth: int):
    count, off = _length(buf, off)
    raw = _take(buf, off, 8 * count)
    return np.frombuffer(raw, dtype=_BE_F64).astype(np.float64), off + 8 * count


_DECODERS: dict[int, Callable[[bytes, int, int], tuple[Any, int]]] = {
    NONE: lambda buf, off, depth: (None, off),
    FALSE: lambda buf, off, depth: (False, off),
    TRUE: lambda buf, off, depth: (True, off),
    INT: lambda buf, off, depth: (_Q.unpack_from(buf, off)[0], off + 8),
    BIGINT: _decode_bigint,
    FLOAT: lambda buf, off, depth: (_D.unpack_from(buf, off)[0], off + 8),
    BYTES: _decode_buffer(bytes),
    BYTEARRAY: _decode_buffer(bytearray),
    MEMORYVIEW: _decode_buffer(memoryview),
    STR: _decode_buffer(lambda raw: raw.decode("utf-8")),
    TUPLE: _decode_sequence(tuple),
    LIST: _decode_sequence(list),
    DICT: _decode_dict,
    F64_ARRAY: _decode_array,
}
