"""Monotonic counters for rollback protection.

SGX offers platform-service monotonic counters so an enclave can detect a
malicious host replaying stale sealed state (e.g. an old blinding value, or
an already-spent signing quota).  Counters are scoped to the creating
enclave's measurement: another enclave cannot advance or read them.
"""

from __future__ import annotations


class MonotonicCounter:
    """A counter that only moves forward."""

    def __init__(self, owner_mrenclave: bytes, name: str) -> None:
        self._owner = owner_mrenclave
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def increment(self) -> int:
        """Advance by one and return the new value."""
        self._value += 1
        return self._value


class CounterStore:
    """Per-platform registry of counters, keyed by (measurement, name)."""

    def __init__(self) -> None:
        self._counters: dict[tuple[bytes, str], MonotonicCounter] = {}

    def counter_for(self, mrenclave: bytes, name: str) -> MonotonicCounter:
        key = (mrenclave, name)
        counter = self._counters.get(key)
        if counter is None:
            counter = MonotonicCounter(mrenclave, name)
            self._counters[key] = counter
        return counter

    def __len__(self) -> int:
        return len(self._counters)
