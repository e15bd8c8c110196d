"""Unit tests for the public-key hot path (:mod:`repro.crypto.group_ops`).

Parity against the frozen naive twins lives in
``tests/perf/test_pk_parity.py``; this file covers the machinery itself —
table lifecycle, membership memoization, batch scalars and the fast-path
counters — and the delivery sessions that keep the DH leg off every round
but a device's first, on the default deployment.
"""

from __future__ import annotations

import pytest

from repro.core.glimmer import BLINDING_MASK_CONTEXT, session_round_key
from repro.crypto import group_ops
from repro.crypto.dh import OAKLEY_GROUP_1, TEST_GROUP
from repro.crypto.drbg import HmacDrbg
from repro.errors import AttestationError
from repro.experiments.common import Deployment


@pytest.fixture(autouse=True)
def _clean_group_ops_state():
    """Each test sees fresh tables/memos and leaves none behind."""
    group_ops.reset_tables()
    yield
    group_ops.reset_tables()


# -------------------------------------------------------------- fixed base


def test_fixed_base_table_matches_pow():
    group = OAKLEY_GROUP_1
    h = group.subgroup_generator()
    table = group_ops.FixedBaseTable(group.prime, h)
    rng = HmacDrbg(b"table-parity")
    for exponent in (0, 1, 2, group.subgroup_order - 1):
        assert table.power(exponent) == pow(h, exponent, group.prime)
    for _ in range(8):
        exponent = group.random_exponent(rng)
        assert table.power(exponent) == pow(h, exponent, group.prime)


def test_fixed_base_table_falls_back_outside_coverage():
    group = OAKLEY_GROUP_1
    h = group.subgroup_generator()
    table = group_ops.FixedBaseTable(group.prime, h)
    oversized = group.prime * group.prime  # more bits than the table covers
    assert table.power(oversized) == pow(h, oversized, group.prime)
    assert table.power(-3) == pow(h, -3, group.prime)


def test_register_base_skips_small_primes():
    assert group_ops.register_base(TEST_GROUP.prime, TEST_GROUP.generator) is None
    # fixed_power stays correct without a table
    assert group_ops.fixed_power(TEST_GROUP.prime, 3, 5) == pow(
        3, 5, TEST_GROUP.prime
    )


def test_fixed_power_auto_builds_after_threshold():
    group = OAKLEY_GROUP_1
    base = pow(group.subgroup_generator(), 7, group.prime)
    key = (group.prime, base)
    for _ in range(group_ops.AUTO_BUILD_THRESHOLD + 1):
        assert group_ops.fixed_power(group.prime, base, 12345) == pow(
            base, 12345, group.prime
        )
    assert key in group_ops._TABLES
    # and the table keeps answering correctly
    assert group_ops.fixed_power(group.prime, base, 54321) == pow(
        base, 54321, group.prime
    )


def test_negative_exponent_is_pow_and_earns_no_table():
    """A verifier's key term ``y^(−e)``: exact, uncounted, table-free —
    also when the base already has a table."""
    group = OAKLEY_GROUP_1
    base = pow(group.subgroup_generator(), 7, group.prime)
    key = (group.prime, base)
    for _ in range(group_ops.AUTO_BUILD_THRESHOLD + 1):
        assert group_ops.fixed_power(group.prime, base, -12345) == pow(
            base, -12345, group.prime
        )
    assert key not in group_ops._TABLES
    assert key not in group_ops._USE_COUNTS
    group_ops.register_base(group.prime, base)
    assert group_ops.fixed_power(group.prime, base, -12345) == pow(
        base, -12345, group.prime
    )


# ------------------------------------------------------------- membership


def test_membership_memo_only_caches_positives():
    group = OAKLEY_GROUP_1
    valid = group.power(group.subgroup_generator(), 12345)
    assert group.is_valid_element(valid)
    assert group_ops.is_known_member(group.prime, valid)
    # warm cache must not leak acceptance to other elements
    invalid = group.prime - 1
    assert not group_ops.is_known_member(group.prime, invalid)
    assert not group.is_valid_element(invalid)


def test_invalid_element_rejected_after_warm_cache():
    """Regression: a warmed membership cache must never admit a non-member."""
    group = OAKLEY_GROUP_1
    h = group.subgroup_generator()
    for exponent in range(2, 10):
        assert group.is_valid_element(group.power(h, exponent))
    # a quadratic non-residue (order 2q) and the degenerate elements must
    # still be rejected
    non_residue = next(
        x for x in range(2, 100) if group_ops.jacobi(x, group.prime) == -1
    )
    assert not group.is_valid_element(non_residue)
    assert not group.is_valid_element(0)
    assert not group.is_valid_element(1)
    assert not group.is_valid_element(group.prime - 1)


def test_jacobi_agrees_with_euler_criterion():
    for group in (TEST_GROUP, OAKLEY_GROUP_1):
        prime = group.prime
        rng = HmacDrbg(b"jacobi-" + group.name.encode())
        values = list(range(1, 50))
        values += [rng.randrange(1, prime) for _ in range(40)]
        values += [prime - 1, prime - 2, prime + 3, 1 << 40, 3 << 41, -5]
        for value in values:
            euler = pow(value, (prime - 1) // 2, prime)
            expected = 1 if euler == 1 else -1
            assert group_ops.jacobi(value, prime) == expected
        for multiple in (0, prime, 7 * prime, -prime):
            assert group_ops.jacobi(multiple, prime) == 0


def test_jacobi_of_composite_modulus():
    # (a|15) = (a|3)(a|5); a shared factor gives 0
    assert [group_ops.jacobi(a, 15) for a in range(15)] == [
        0, 1, 1, 0, 1, 0, 0, -1, 1, 0, 0, -1, 0, -1, -1
    ]


@pytest.mark.parametrize("modulus", [0, -7, 2, 10, TEST_GROUP.prime - 1])
def test_jacobi_rejects_even_or_non_positive_modulus(modulus):
    with pytest.raises(ValueError):
        group_ops.jacobi(3, modulus)


# ----------------------------------------------------------- batch scalars


def test_batch_scalars_deterministic_and_nonzero():
    first = group_ops.batch_scalars(b"transcript", 64)
    second = group_ops.batch_scalars(b"transcript", 64)
    assert first == second
    assert all(0 < z < 1 << group_ops.BATCH_SCALAR_BITS for z in first)
    assert group_ops.batch_scalars(b"other", 64) != first


# ---------------------------------------------------------- delivery sessions


def test_session_table_roundtrip_and_counters():
    """Round 1 opens one session per device; round 2 rides them, and the
    report counts exactly those deliveries."""
    deployment = Deployment.build(num_users=3, seed=b"session-table")
    before = group_ops.counters()
    deployment.honest_round(1)
    assert deployment.last_report.handshakes_resumed == 0
    deployment.honest_round(2)
    assert deployment.last_report.handshakes_resumed == 3
    counters = deployment.blinder_provisioner.sessions.counters()
    assert (counters["full_verifications"], counters["resumed"]) == (3, 3)
    assert "handshakes_resumed" not in group_ops.counters_delta(before)


def test_session_round_key_contextual():
    base = b"b" * 32
    key = session_round_key(base, BLINDING_MASK_CONTEXT, 1, 0)
    assert key == session_round_key(base, BLINDING_MASK_CONTEXT, 1, 0)
    assert key != session_round_key(base, BLINDING_MASK_CONTEXT, 2, 0)
    assert key != session_round_key(base, BLINDING_MASK_CONTEXT, 1, 1)
    assert key != session_round_key(base, "other-context", 1, 0)
    assert key != session_round_key(b"c" * 32, BLINDING_MASK_CONTEXT, 1, 0)


def test_session_table_eviction_and_clear():
    """A refused session is gone for good; a blinder that forgets its
    table (a crash) forgets every session."""
    deployment = Deployment.build(num_users=2, seed=b"session-table")
    deployment.honest_round(1)
    sessions = deployment.blinder_provisioner.sessions
    first, second = (client.mask_session for client in deployment.clients.values())
    approved = deployment.image.mrenclave
    with pytest.raises(AttestationError, match="measurement"):
        sessions.session_key(first, b"\x42" * 32)
    with pytest.raises(AttestationError, match="no such session"):
        sessions.session_key(first, approved)
    assert len(sessions.session_key(second, approved)) == 32
    sessions.end_sessions()
    with pytest.raises(AttestationError, match="no such session"):
        sessions.session_key(second, approved)
    assert sessions.counters()["resume_rejected"] == 3


# ---------------------------------------------------------------- counters


def test_counters_delta_is_monotone_snapshot():
    before = group_ops.counters()
    group_ops.bump("batch_verifications")
    group_ops.bump("batch_fallbacks", 2)
    delta = group_ops.counters_delta(before)
    assert delta["batch_verifications"] == 1
    assert delta["batch_fallbacks"] == 2
