"""Storage-backend contract tests, run against every implementation."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, StorageFaultError
from repro.service.storage import SealedBlobMap, build_backend


def test_put_get_roundtrip(backend):
    backend.put("space", "k", {"n": 1, "s": "x", "f": 0.5, "none": None})
    assert backend.get("space", "k") == {"n": 1, "s": "x", "f": 0.5, "none": None}


def test_bytes_roundtrip(backend):
    blob = bytes(range(256))
    backend.put("space", "blob", blob)
    assert backend.get("space", "blob") == blob
    backend.put("space", "nested", {"inner": [b"ab", {"deep": b"cd"}]})
    assert backend.get("space", "nested") == {"inner": [b"ab", {"deep": b"cd"}]}


def test_tuples_normalize_to_lists_everywhere(backend):
    # The codec is applied by every backend, so memory behaves exactly
    # like a disk round-trip: tuples come back as lists.
    backend.put("space", "t", {"pair": (1, 2)})
    assert backend.get("space", "t") == {"pair": [1, 2]}


def test_get_default_and_delete(backend):
    assert backend.get("space", "missing") is None
    assert backend.get("space", "missing", 42) == 42
    backend.put("space", "k", 1)
    assert backend.delete("space", "k") is True
    assert backend.delete("space", "k") is False
    assert backend.get("space", "k") is None


def test_keys_sorted_and_space_isolated(backend):
    backend.put("a", "2", "x")
    backend.put("a", "1", "y")
    backend.put("b", "zz", "z")
    assert backend.keys("a") == ["1", "2"]
    assert backend.keys("b") == ["zz"]
    assert backend.keys("c") == []


def test_append_returns_sequence_and_reads_in_order(backend):
    assert backend.append("log", {"v": 1}) == 0
    assert backend.append("log", {"v": 2}) == 1
    assert backend.append("other", {"v": 9}) == 0
    assert [e["v"] for e in backend.read_log("log")] == [1, 2]
    assert backend.read_log("nothing") == []


def test_persistence_across_reopen(backend_factory, backend_kind):
    first = backend_factory()
    first.put("space", "k", {"blob": b"sealed"})
    first.append("log", {"v": 7})
    first.close()
    second = backend_factory()
    assert second.get("space", "k") == {"blob": b"sealed"}
    assert [e["v"] for e in second.read_log("log")] == [7]
    second.close()


def test_sealed_blob_map_is_an_int_keyed_mapping(backend):
    sealed = SealedBlobMap(backend, "sealed/test")
    sealed[3] = b"three"
    sealed[1] = b"one"
    sealed[2] = b"two"
    assert sorted(sealed) == [1, 2, 3]
    assert list(sealed) == [1, 2, 3]  # iteration is sorted, like the dicts
    assert sealed[3] == b"three"
    assert len(sealed) == 3
    assert 2 in sealed
    assert sealed.pop(2, None) == b"two"
    assert sealed.pop(2, None) is None
    del sealed[1]
    with pytest.raises(KeyError):
        sealed[1]
    with pytest.raises(KeyError):
        del sealed[99]
    assert sorted(sealed) == [3]


def test_build_backend_rejects_unknown_kind(tmp_path):
    with pytest.raises(ConfigurationError):
        build_backend("redis", str(tmp_path))
    with pytest.raises(ConfigurationError):
        build_backend("disk")  # path is mandatory for persistent kinds


def test_a_refused_sqlite_write_is_a_storage_fault(tmp_path):
    """``SQLiteBackend`` imports ``sqlite3`` itself; its writes still turn
    ``sqlite3.OperationalError`` into :class:`StorageFaultError`."""
    backend = build_backend("sqlite", str(tmp_path / "service.sqlite"))
    backend._db.execute("PRAGMA query_only = ON")
    with pytest.raises(StorageFaultError, match="sqlite put failed"):
        backend.put("space", "k", 1)
    with pytest.raises(StorageFaultError, match="sqlite append failed"):
        backend.append("log", {"n": 1})
    backend.close()
