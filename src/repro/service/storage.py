"""Pluggable persistence for the Glimmer service.

One small interface, :class:`StorageBackend`, with three implementations:

* :class:`MemoryBackend` — dicts; the default for tests and demos;
* :class:`DiskBackend` — one JSON file per key/value *space* (rewritten
  atomically on every mutation) plus append-only JSONL files per log;
* :class:`SQLiteBackend` — the same model in a single SQLite database,
  committing per operation.

The interface is deliberately narrow — key/value spaces plus append-only
logs — because that is exactly what the service layers need: queue
entries and tenant configs are keyed records, while the audit log and
round journal are logs.  Values are JSON documents; ``bytes`` values
(sealed blobs, nonces) are transparently encoded as ``{"__bytes__":
"<hex>"}`` so every backend round-trips them identically.  All backends
normalize values through the same codec, so a test that passes on
:class:`MemoryBackend` sees the same tuples-become-lists shape it would
see after a disk round-trip — no backend-specific surprises.

:class:`SealedBlobMap` adapts a backend space to the plain
``dict[int, bytes]`` contract the runtime's sealed-state holders use
(:class:`~repro.core.provisioning.BlinderProvisioner` round seals,
:class:`~repro.core.client.ClientDevice` checkpoints), which is how
sealing persistence is extracted from the in-process components without
changing their code paths.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import MutableMapping
from typing import Any, Iterator

from repro.errors import ConfigurationError, StorageFaultError

BACKEND_KINDS = ("memory", "disk", "sqlite")


def _fsync_dir(path: str) -> None:
    """fsync a directory so a just-renamed/created entry is durable.

    POSIX only promises a rename is on disk once the *directory* inode is
    synced; without this, a crash after ``os.replace`` can resurface the
    old file — or, worse, an empty one — on restart.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# --------------------------------------------------------------- value codec


def encode_value(value: Any) -> Any:
    """Make a value JSON-safe; ``bytes`` become tagged hex objects."""
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (tagged hex back to ``bytes``)."""
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def _roundtrip(value: Any) -> Any:
    return decode_value(json.loads(json.dumps(encode_value(value))))


# ----------------------------------------------------------------- interface


class StorageBackend:
    """Key/value spaces plus append-only logs; see module docstring.

    Spaces and log names are plain strings (``/`` is fine and used for
    namespacing, e.g. ``queue/tenant-a``).  Keys are strings; values are
    anything the JSON codec handles, including ``bytes``.
    """

    kind: str = "abstract"

    def put(self, space: str, key: str, value: Any) -> None:
        raise NotImplementedError

    def get(self, space: str, key: str, default: Any = None) -> Any:
        raise NotImplementedError

    def keys(self, space: str) -> list[str]:
        raise NotImplementedError

    def delete(self, space: str, key: str) -> bool:
        raise NotImplementedError

    def append(self, log: str, entry: dict) -> int:
        """Append one entry; returns its zero-based sequence number."""
        raise NotImplementedError

    def read_log(self, log: str) -> list[dict]:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - default no-op
        pass

    def close(self) -> None:  # pragma: no cover - default no-op
        pass

    # Convenience shared by all backends ------------------------------------

    def items(self, space: str) -> list[tuple[str, Any]]:
        return [(key, self.get(space, key)) for key in self.keys(space)]


class MemoryBackend(StorageBackend):
    """In-process storage; survives nothing, costs nothing."""

    kind = "memory"

    def __init__(self) -> None:
        self._spaces: dict[str, dict[str, Any]] = {}
        self._logs: dict[str, list[dict]] = {}

    def put(self, space: str, key: str, value: Any) -> None:
        self._spaces.setdefault(space, {})[str(key)] = _roundtrip(value)

    def get(self, space: str, key: str, default: Any = None) -> Any:
        return self._spaces.get(space, {}).get(str(key), default)

    def keys(self, space: str) -> list[str]:
        return sorted(self._spaces.get(space, {}))

    def delete(self, space: str, key: str) -> bool:
        return self._spaces.get(space, {}).pop(str(key), None) is not None

    def append(self, log: str, entry: dict) -> int:
        entries = self._logs.setdefault(log, [])
        entries.append(_roundtrip(dict(entry)))
        return len(entries) - 1

    def read_log(self, log: str) -> list[dict]:
        return [dict(entry) for entry in self._logs.get(log, [])]


class DiskBackend(StorageBackend):
    """JSON files under a state directory.

    Every mutation is durable before the call returns: spaces are
    rewritten via temp-file-plus-rename (atomic on POSIX), logs are
    appended as one JSON line per entry and flushed.  A process killed
    at any point leaves either the old or the new state file, never a
    torn one.
    """

    kind = "disk"

    def __init__(self, path: str) -> None:
        self.path = os.path.abspath(path)
        os.makedirs(self.path, exist_ok=True)
        self._spaces: dict[str, dict[str, Any]] = {}
        for name in os.listdir(self.path):
            if name.startswith("space-") and name.endswith(".json"):
                space = self._unmangle(name[len("space-"):-len(".json")])
                with open(os.path.join(self.path, name), "r") as handle:
                    self._spaces[space] = json.load(handle)

    @staticmethod
    def _mangle(name: str) -> str:
        return name.replace("/", "__")

    @staticmethod
    def _unmangle(name: str) -> str:
        return name.replace("__", "/")

    def _space_file(self, space: str) -> str:
        return os.path.join(self.path, f"space-{self._mangle(space)}.json")

    def _log_file(self, log: str) -> str:
        return os.path.join(self.path, f"log-{self._mangle(log)}.jsonl")

    def _write_space(self, space: str) -> None:
        data = self._spaces.get(space, {})
        try:
            fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    json.dump(data, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                # Sync order matters: temp-file contents first, then the
                # rename, then the directory entry.  Skipping the directory
                # fsync leaves a window where a crash surfaces an empty (or
                # stale) space file on restart even though the rename
                # "happened".
                os.replace(tmp, self._space_file(space))
                _fsync_dir(self.path)
            finally:
                if os.path.exists(tmp):  # pragma: no cover - error path
                    os.unlink(tmp)
        except OSError as exc:  # pragma: no cover - real disk failure
            raise StorageFaultError(f"disk write failed for space {space!r}: {exc}") from exc

    def put(self, space: str, key: str, value: Any) -> None:
        self._spaces.setdefault(space, {})[str(key)] = encode_value(value)
        self._write_space(space)

    def get(self, space: str, key: str, default: Any = None) -> Any:
        raw = self._spaces.get(space, {}).get(str(key))
        return default if raw is None else decode_value(raw)

    def keys(self, space: str) -> list[str]:
        return sorted(self._spaces.get(space, {}))

    def delete(self, space: str, key: str) -> bool:
        existed = self._spaces.get(space, {}).pop(str(key), None) is not None
        if existed:
            self._write_space(space)
        return existed

    def append(self, log: str, entry: dict) -> int:
        path = self._log_file(log)
        try:
            seq = 0
            created = not os.path.exists(path)
            if not created:
                with open(path, "r") as handle:
                    seq = sum(1 for _ in handle)
            with open(path, "a") as handle:
                handle.write(json.dumps(encode_value(dict(entry))) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            if created:
                # A brand-new log file's directory entry needs the same
                # durability treatment as a space rename.
                _fsync_dir(self.path)
            return seq
        except OSError as exc:  # pragma: no cover - real disk failure
            raise StorageFaultError(f"disk append failed for log {log!r}: {exc}") from exc

    def read_log(self, log: str) -> list[dict]:
        path = self._log_file(log)
        if not os.path.exists(path):
            return []
        with open(path, "r") as handle:
            return [decode_value(json.loads(line)) for line in handle if line.strip()]


class SQLiteBackend(StorageBackend):
    """The same model in one SQLite file, one commit per mutation.

    ``sqlite3`` is imported by this class alone, so a process on another
    backend never loads it.
    """

    kind = "sqlite"

    def __init__(self, path: str) -> None:
        import sqlite3

        self.path = os.path.abspath(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._db = sqlite3.connect(self.path)
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            " space TEXT NOT NULL, key TEXT NOT NULL, value TEXT NOT NULL,"
            " PRIMARY KEY (space, key))"
        )
        self._db.execute(
            "CREATE TABLE IF NOT EXISTS logs ("
            " log TEXT NOT NULL, seq INTEGER NOT NULL, entry TEXT NOT NULL,"
            " PRIMARY KEY (log, seq))"
        )
        self._db.commit()

    def put(self, space: str, key: str, value: Any) -> None:
        import sqlite3

        try:
            self._db.execute(
                "INSERT OR REPLACE INTO kv (space, key, value) VALUES (?, ?, ?)",
                (space, str(key), json.dumps(encode_value(value))),
            )
            self._db.commit()
        except sqlite3.OperationalError as exc:
            raise StorageFaultError(f"sqlite put failed for {space}/{key}: {exc}") from exc

    def get(self, space: str, key: str, default: Any = None) -> Any:
        row = self._db.execute(
            "SELECT value FROM kv WHERE space = ? AND key = ?", (space, str(key))
        ).fetchone()
        return default if row is None else decode_value(json.loads(row[0]))

    def keys(self, space: str) -> list[str]:
        rows = self._db.execute(
            "SELECT key FROM kv WHERE space = ? ORDER BY key", (space,)
        ).fetchall()
        return [row[0] for row in rows]

    def delete(self, space: str, key: str) -> bool:
        cursor = self._db.execute(
            "DELETE FROM kv WHERE space = ? AND key = ?", (space, str(key))
        )
        self._db.commit()
        return cursor.rowcount > 0

    def append(self, log: str, entry: dict) -> int:
        import sqlite3

        try:
            row = self._db.execute(
                "SELECT COALESCE(MAX(seq) + 1, 0) FROM logs WHERE log = ?", (log,)
            ).fetchone()
            seq = int(row[0])
            self._db.execute(
                "INSERT INTO logs (log, seq, entry) VALUES (?, ?, ?)",
                (log, seq, json.dumps(encode_value(dict(entry)))),
            )
            self._db.commit()
            return seq
        except sqlite3.OperationalError as exc:
            raise StorageFaultError(f"sqlite append failed for log {log!r}: {exc}") from exc

    def read_log(self, log: str) -> list[dict]:
        rows = self._db.execute(
            "SELECT entry FROM logs WHERE log = ? ORDER BY seq", (log,)
        ).fetchall()
        return [decode_value(json.loads(row[0])) for row in rows]

    def flush(self) -> None:
        self._db.commit()

    def close(self) -> None:
        self._db.commit()
        self._db.close()


def build_backend(kind: str, path: str | None = None) -> StorageBackend:
    """Construct a backend by name (``memory`` | ``disk`` | ``sqlite``).

    ``disk`` wants a state *directory*; ``sqlite`` a database file path
    (a directory is accepted and gets ``service.sqlite`` inside it).
    """
    if kind == "memory":
        return MemoryBackend()
    if path is None:
        raise ConfigurationError(f"backend {kind!r} needs a state path")
    if kind == "disk":
        return DiskBackend(path)
    if kind == "sqlite":
        if os.path.isdir(path):
            path = os.path.join(path, "service.sqlite")
        return SQLiteBackend(path)
    raise ConfigurationError(
        f"unknown storage backend {kind!r} (want one of {BACKEND_KINDS})"
    )


class SealedBlobMap(MutableMapping):
    """A ``dict[int, bytes]`` view over one backend space.

    Drop-in for the runtime's sealed-state dicts: assignment persists the
    blob, iteration yields integer round ids (so ``sorted(map)`` works in
    the provisioner's and client's recovery loops), and deletion removes
    the persisted record.  The sealed blobs stay opaque ciphertext — the
    backend never holds plaintext round state.
    """

    def __init__(self, backend: StorageBackend, space: str) -> None:
        self._backend = backend
        self._space = space

    def __setitem__(self, round_id: int, blob: bytes) -> None:
        self._backend.put(self._space, str(int(round_id)), bytes(blob))

    def __getitem__(self, round_id: int) -> bytes:
        blob = self._backend.get(self._space, str(int(round_id)))
        if blob is None:
            raise KeyError(round_id)
        return blob

    def __delitem__(self, round_id: int) -> None:
        if not self._backend.delete(self._space, str(int(round_id))):
            raise KeyError(round_id)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(int(key) for key in self._backend.keys(self._space)))

    def __len__(self) -> int:
        return len(self._backend.keys(self._space))
