"""Vectorized kernels and the stream smoke.

The §3 secure-aggregation pipeline is arithmetic over ``Z_{2^64}`` vectors
plus bulk pseudorandomness — exactly the shapes numpy executes at memory
bandwidth while pure Python pays interpreter overhead per element.

* :mod:`repro.perf.kernels` — ring arithmetic and big-endian word
  serialization as ``np.uint64`` array operations, bit-exact against the
  scalar definitions;
* :mod:`repro.perf.stream_smoke` — the memory-bounded large-cohort
  ingest round behind ``repro stream-smoke``.

Determinism contract
--------------------

Every fast path must produce *bit-identical* results to its scalar
reference under the same DRBG seed.  The references — the scalar
definitions and the naive public-key twins of
:mod:`repro.crypto.group_ops` — live beside the parity tests, in
``tests/perf/``.  The chaos and Byzantine suites rely
on exact same-seed replay; a kernel that is "close enough" in floating
point or consumes the DRBG stream differently is a correctness bug here,
not an optimization.  ``tests/perf/test_parity.py`` enforces the contract
with seeded sweeps over degenerate and large lengths.
"""
