"""Fast public-key group operations: tables, multi-exp, membership.

PR 4 made the masking/ring kernels 10-500x faster, which left pure-python
``pow`` over the safe-prime group as the dominant cost of a round: Schnorr
sign/verify, DH handshakes, and Pedersen commitment arithmetic all reduce
to full-width modular exponentiations.  This module attacks that cost on
three fronts, all exact (never approximate) and all gated by parity twins
in :mod:`repro.perf.reference`:

* **Fixed-base windowed tables** (:class:`FixedBaseTable`,
  :func:`fixed_power`) — the subgroup generator ``h``, the Pedersen
  second generator ``u`` and any other base raised to *non-negative*
  fresh exponents many times.  Precomputing ``base^(d·2^(w·i))`` once
  turns each exponentiation into ~128 table multiplies instead of ~1150
  square-and-multiply steps.  Tables build lazily: a base exponentiated
  :data:`AUTO_BUILD_THRESHOLD` times earns one.  Verification keys never
  do: a Schnorr verifier raises the key to the *negative* short
  challenge (``y^(−e)``, :mod:`repro.crypto.schnorr`), which no table
  can serve and ``pow`` does in ~0.35 ms — so a negative exponent goes
  straight to ``pow`` and is not counted, and the table budget is left
  to generators however many keys a verifier meets.
* **Simultaneous multi-exponentiation** (:func:`multi_power`, Pippenger's
  bucket method) — verifying a whole cohort at once (batch Schnorr, batch
  Pedersen openings) needs ``Π base_i^{z_i}`` for small random ``z_i``;
  sharing the squarings across the products beats a ``pow`` loop by the
  ratio of exponent widths.

The module also carries the Jacobi symbol (:func:`jacobi`) — for a safe
prime it *is* the subgroup-membership predicate (Euler's criterion), at
a tenth of the exponentiation's cost — memoizes membership checks (True
results only — an element proven in the subgroup stays in the subgroup;
invalid elements always re-run the full check) and exposes the counters
the engine folds into :class:`~repro.runtime.telemetry.RoundReport` so
cache efficacy is observable per round.

Everything here is plain-int arithmetic: no imports from
:mod:`repro.crypto.dh` or :mod:`repro.crypto.schnorr`, which lets those
modules build on this one without cycles.
"""

from __future__ import annotations

from repro.crypto.drbg import HmacDrbg

__all__ = [
    "FixedBaseTable",
    "fixed_power",
    "register_base",
    "multi_power",
    "jacobi",
    "batch_scalars",
    "counters",
    "counters_delta",
    "reset_tables",
]

#: Window width for fixed-base tables.  w=6 costs ~12 ms and ~1 MB per
#: 768-bit base and makes each exponentiation ~4.5x faster than ``pow``;
#: wider windows buy little more and cost quadratically more to build.
WINDOW_BITS = 6

#: Below this prime width the CPython ``pow`` C loop beats any pure-python
#: windowed ladder, so small groups (e.g. the 64-bit test group) bypass
#: tables entirely.
MIN_TABLE_PRIME_BITS = 256

#: A base earns a table after this many exponentiations.  Building costs
#: ~8 plain exponentiations' worth of multiplies, so the threshold keeps
#: one-shot bases (ephemeral peer publics) on the plain path.
AUTO_BUILD_THRESHOLD = 8

#: Hard caps so adversarial traffic cannot balloon the caches.
_MAX_TABLES = 32
_MAX_USE_COUNTS = 4096
_MAX_MEMBERS = 8192

#: Width of the random batch-verification scalars.  2^-128 soundness
#: error per Schwartz-Zippel, comfortably below the hash security level.
BATCH_SCALAR_BITS = 128


# ------------------------------------------------------------------ counters

_COUNTERS = {
    "batch_verifications": 0,
    "batch_fallbacks": 0,
    "membership_checks_skipped": 0,
}


def bump(counter: str, by: int = 1) -> None:
    _COUNTERS[counter] += by


def counters() -> dict[str, int]:
    """A snapshot of the process-wide cache/batching counters."""
    return dict(_COUNTERS)


def counters_delta(before: dict[str, int]) -> dict[str, int]:
    """Counter growth since ``before`` (a prior :func:`counters` snapshot)."""
    return {key: _COUNTERS[key] - before.get(key, 0) for key in _COUNTERS}


# ----------------------------------------------------------- windowed tables


class FixedBaseTable:
    """Precomputed powers ``base^(d · 2^(w·i)) mod prime`` for fast ``^e``.

    With window width ``w``, exponents up to ``prime.bit_length()`` bits
    split into digits ``d_i`` and ``base^e = Π table[i][d_i]`` — one
    multiply per non-zero digit, no squarings at exponentiation time.
    """

    __slots__ = ("prime", "base", "window", "coverage_bits", "_rows")

    def __init__(
        self, prime: int, base: int, window: int = WINDOW_BITS, max_bits: int | None = None
    ) -> None:
        self.prime = prime
        self.base = base
        self.window = window
        bits = max_bits if max_bits is not None else prime.bit_length()
        radix = 1 << window
        num_rows = max(1, -(-bits // window))
        self.coverage_bits = num_rows * window
        rows = []
        step = base % prime
        for _ in range(num_rows):
            row = [1] * radix
            acc = 1
            for digit in range(1, radix):
                acc = acc * step % prime
                row[digit] = acc
            rows.append(row)
            # acc == step^(radix-1); one more multiply gives the next
            # row's unit step step^radix = base^(2^(w·(i+1))).
            step = acc * step % prime
        self._rows = rows

    def power(self, exponent: int) -> int:
        """``base^exponent mod prime`` — exact, falls back out of range."""
        if exponent < 0 or exponent.bit_length() > self.coverage_bits:
            return pow(self.base, exponent, self.prime)
        prime = self.prime
        mask = (1 << self.window) - 1
        result = 1
        row = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = result * self._rows[row][digit] % prime
            exponent >>= self.window
            row += 1
        return result


_TABLES: dict[tuple[int, int], FixedBaseTable] = {}
_USE_COUNTS: dict[tuple[int, int], int] = {}


def register_base(prime: int, base: int) -> FixedBaseTable | None:
    """Eagerly build (or fetch) the table for a known-hot base.

    Returns ``None`` for primes too small to profit or when the table
    budget is exhausted — callers never need to care, :func:`fixed_power`
    stays correct either way.
    """
    key = (prime, base)
    table = _TABLES.get(key)
    if table is not None:
        return table
    if prime.bit_length() < MIN_TABLE_PRIME_BITS or len(_TABLES) >= _MAX_TABLES:
        return None
    table = FixedBaseTable(prime, base)
    _TABLES[key] = table
    return table


def fixed_power(prime: int, base: int, exponent: int) -> int:
    """``pow(base, exponent, prime)`` through a fixed-base table when hot.

    Bit-exact with ``pow`` on every input: tables only change *how* the
    product is computed.  Cold bases are counted and earn a table after
    :data:`AUTO_BUILD_THRESHOLD` uses, without any call site declaring
    them.  A negative exponent (a verifier's key term ``y^(−e)``) is
    ``pow``'s inverse-then-ladder and is not counted: a table cannot
    serve it, so it must not earn one.
    """
    if exponent < 0:
        return pow(base, exponent, prime)
    key = (prime, base)
    table = _TABLES.get(key)
    if table is not None:
        return table.power(exponent)
    if prime.bit_length() >= MIN_TABLE_PRIME_BITS and len(_TABLES) < _MAX_TABLES:
        if len(_USE_COUNTS) >= _MAX_USE_COUNTS:
            _USE_COUNTS.clear()
        count = _USE_COUNTS.get(key, 0) + 1
        _USE_COUNTS[key] = count
        if count >= AUTO_BUILD_THRESHOLD:
            table = register_base(prime, base)
            if table is not None:
                _USE_COUNTS.pop(key, None)
                return table.power(exponent)
    return pow(base, exponent, prime)


def reset_tables() -> None:
    """Drop every cached table, use count, and membership memo (tests)."""
    _TABLES.clear()
    _USE_COUNTS.clear()
    _MEMBERS.clear()


# --------------------------------------------------- multi-exponentiation


def multi_power(prime: int, bases, exponents) -> int:
    """``Π bases[i]^exponents[i] mod prime`` via Pippenger's bucket method.

    Exact for any non-negative exponents.  The win over a ``pow`` loop
    comes from sharing one squaring chain across all products — for the
    128-bit scalars of batch verification that is ~3x at 64 bases and
    grows with the batch.
    """
    bases = [int(b) % prime for b in bases]
    exponents = [int(e) for e in exponents]
    if len(bases) != len(exponents):
        raise ValueError("multi_power needs one exponent per base")
    if any(e < 0 for e in exponents):
        raise ValueError("multi_power exponents must be non-negative")
    if not bases:
        return 1 % prime
    if len(bases) == 1:
        return pow(bases[0], exponents[0], prime)
    max_bits = max(e.bit_length() for e in exponents)
    if max_bits == 0:
        return 1 % prime
    window = 6 if len(bases) >= 16 else 4
    mask = (1 << window) - 1
    num_windows = -(-max_bits // window)
    result = 1
    for w in range(num_windows - 1, -1, -1):
        if result != 1:
            for _ in range(window):
                result = result * result % prime
        shift = w * window
        buckets = [1] * (mask + 1)
        for base, exponent in zip(bases, exponents):
            digit = (exponent >> shift) & mask
            if digit:
                buckets[digit] = buckets[digit] * base % prime
        # Σ d·bucket[d] via the running-product trick: suffix products
        # accumulate each bucket once per unit of its digit value.
        acc = 1
        windowed = 1
        for digit in range(mask, 0, -1):
            acc = acc * buckets[digit] % prime
            windowed = windowed * acc % prime
        result = result * windowed % prime
    return result


def jacobi(a: int, n: int) -> int:
    """The Jacobi symbol ``(a|n)`` for odd ``n`` (standard binary algorithm).

    For a safe prime ``p = 2q+1`` the order-``q`` subgroup is exactly the
    quadratic residues and ``x^q ≡ (x|p)`` (Euler's criterion), so
    ``jacobi(x, p) == 1`` *is* the membership predicate at no
    exponentiation: :meth:`repro.crypto.dh.DHGroup.is_valid_element` uses
    it for every enrolment, and the batch verifiers use it to keep
    full-group forgeries out of subgroup-soundness arguments.
    """
    if n <= 0 or n & 1 == 0:
        raise ValueError("jacobi is defined for positive odd n")
    a %= n
    result = 1
    while a:
        # (2|n)^twos: strip every trailing zero bit in one shift.
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def batch_scalars(transcript: bytes, count: int) -> list[int]:
    """Deterministic random weights for batch verification.

    Drawn from a DRBG seeded by the batch transcript, so the scalars are
    unpredictable to whoever produced the signatures/openings (they are
    fixed only after the batch is), yet reproducible for the replay
    suites.  Each is a nonzero :data:`BATCH_SCALAR_BITS`-bit value.
    """
    rng = HmacDrbg(transcript, personalization="batch-verify-scalars")
    width = BATCH_SCALAR_BITS // 8
    return [
        int.from_bytes(rng.generate(width), "big") or 1 for _ in range(count)
    ]


# ------------------------------------------------------ membership memoizing

_MEMBERS: set[tuple[int, int]] = set()


def is_known_member(prime: int, element: int) -> bool:
    """Has this element already passed the full subgroup-membership check?

    Only ``True`` results are ever cached (:func:`remember_member`), so a
    hit can never turn an invalid element valid — invalid elements always
    pay the full check and always fail it.
    """
    if (prime, element) in _MEMBERS:
        bump("membership_checks_skipped")
        return True
    return False


def remember_member(prime: int, element: int) -> None:
    """Record a full-check success for :func:`is_known_member`."""
    if len(_MEMBERS) >= _MAX_MEMBERS:
        _MEMBERS.clear()
    _MEMBERS.add((prime, element))
