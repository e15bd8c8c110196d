"""Vectorized kernels, their scalar reference twins, and the stream smoke.

The §3 secure-aggregation pipeline is arithmetic over ``Z_{2^64}`` vectors
plus bulk pseudorandomness — exactly the shapes numpy executes at memory
bandwidth while pure Python pays interpreter overhead per element.

* :mod:`repro.perf.kernels` — ring arithmetic and big-endian word
  serialization as ``np.uint64`` array operations, bit-exact against the
  scalar definitions;
* :mod:`repro.perf.reference` — the scalar definitions themselves (and
  the naive public-key twins of :mod:`repro.crypto.group_ops`), kept
  importable so parity tests can always compare the two implementations
  on the same inputs;
* :mod:`repro.perf.stream_smoke` — the memory-bounded large-cohort
  ingest round behind ``repro stream-smoke``.

Determinism contract
--------------------

Every fast path must produce *bit-identical* results to its scalar
reference under the same DRBG seed.  The chaos and Byzantine suites rely
on exact same-seed replay; a kernel that is "close enough" in floating
point or consumes the DRBG stream differently is a correctness bug here,
not an optimization.  ``tests/perf/test_parity.py`` enforces the contract
with seeded sweeps over degenerate and large lengths.
"""
