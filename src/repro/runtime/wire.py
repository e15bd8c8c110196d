"""Strict wire-message validation for the round bus.

Every inbound payload is checked against its kind's schema *before* any
handler logic runs: field presence, types, and value ranges.  A payload
that fails is a :class:`~repro.errors.ProtocolViolation` attributed to
its sender — honest endpoints built from this codebase never produce
one, so a malformed message is Byzantine evidence, not noise.

Bounds are deliberately generous (they gate absurdity, not policy):
round ids fit in 63 bits, cohorts cap at a million parties, vectors at
ten million entries, ring words at the 64-bit ring modulus, confidences
in [0, 1], floats must be finite.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.glimmer import HANDLE_BYTES, features_digest
from repro.core.signing import SignedContribution
from repro.crypto.schnorr import SchnorrSignature
from repro.errors import ProtocolViolation
from repro.runtime import messages as m
from repro.runtime.protocol import VIOLATION_MALFORMED
from repro.sgx.attestation import Quote

MAX_ROUND_ID = (1 << 63) - 1
MAX_PARTIES = 1_000_000
MAX_VECTOR_LENGTH = 10_000_000
RING_MODULUS = 1 << 64
NONCE_BYTES = 16
DIGEST_BYTES = 32


def _fail(sender: str, round_id: int | None, detail: str) -> ProtocolViolation:
    return ProtocolViolation(
        detail,
        offender=sender,
        kind=VIOLATION_MALFORMED,
        round_id=round_id,
    )


def _check_round_id(sender: str, value: Any) -> int:
    if type(value) is not int or not 0 <= value <= MAX_ROUND_ID:
        raise _fail(sender, None, f"round_id out of range: {value!r}")
    return value


def _check_int(
    sender: str, round_id: int, name: str, value: Any, low: int, high: int
) -> int:
    if type(value) is not int or not low <= value <= high:
        raise _fail(
            sender, round_id, f"{name} out of range [{low}, {high}]: {value!r}"
        )
    return value


def _check_nonce(sender: str, round_id: int, value: Any) -> bytes:
    if not isinstance(value, bytes) or len(value) != NONCE_BYTES:
        raise _fail(sender, round_id, "nonce must be exactly 16 bytes")
    return value


def _check_finite_floats(
    sender: str, round_id: int, name: str, values: Any
) -> None:
    if not isinstance(values, tuple):
        raise _fail(sender, round_id, f"{name} must be a tuple")
    # Judged on the set of types present and one array pass over the
    # values; only a rejection walks the elements, to name the offender.
    for kind in set(map(type, values)):
        if not issubclass(kind, (int, float)) or issubclass(kind, bool):
            stray = next(v for v in values if type(v) is kind)
            raise _fail(sender, round_id, f"{name} holds a non-number: {stray!r}")
    try:
        finite = np.isfinite(np.asarray(values, dtype=np.float64)).all()
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise _fail(sender, round_id, f"{name} holds a non-finite value")


def _check_ring_words(
    sender: str, round_id: int, name: str, values: Any
) -> None:
    if not isinstance(values, tuple):
        raise _fail(sender, round_id, f"{name} must be a tuple")
    if len(values) > MAX_VECTOR_LENGTH:
        raise _fail(sender, round_id, f"{name} exceeds the vector-length cap")
    if set(map(type, values)) - {int} or (
        values and not 0 <= min(values) <= max(values) < RING_MODULUS
    ):
        stray = next(
            v for v in values if type(v) is not int or not 0 <= v < RING_MODULUS
        )
        raise _fail(sender, round_id, f"{name} holds a non-ring word: {stray!r}")


def validate_contribution(
    sender: str, round_id: int, contribution: Any
) -> SignedContribution:
    """Schema-check one signed contribution (not its signature)."""
    if not isinstance(contribution, SignedContribution):
        raise _fail(sender, round_id, "payload is not a SignedContribution")
    _check_round_id(sender, contribution.round_id)
    _check_nonce(sender, round_id, contribution.nonce)
    if not isinstance(contribution.blinded, bool):
        raise _fail(sender, round_id, "blinded flag must be a bool")
    if contribution.blinded:
        if contribution.ring_payload is None or contribution.plain_payload is not None:
            raise _fail(
                sender, round_id, "blinded contribution must carry ring payload only"
            )
        _check_ring_words(
            sender, round_id, "ring_payload", contribution.ring_payload
        )
    else:
        if contribution.plain_payload is None or contribution.ring_payload is not None:
            raise _fail(
                sender, round_id, "plain contribution must carry plain payload only"
            )
        _check_finite_floats(
            sender, round_id, "plain_payload", contribution.plain_payload
        )
        if len(contribution.plain_payload) > MAX_VECTOR_LENGTH:
            raise _fail(
                sender, round_id, "plain_payload exceeds the vector-length cap"
            )
    confidence = contribution.confidence
    if (
        not isinstance(confidence, (int, float))
        or isinstance(confidence, bool)
        # Compared as it is: NaN fails every comparison, and an int too
        # large for a float is out of range, not an OverflowError.
        or not 0.0 <= confidence <= 1.0
    ):
        raise _fail(sender, round_id, f"confidence out of [0, 1]: {confidence!r}")
    signature = contribution.signature
    if not isinstance(signature, SchnorrSignature):
        raise _fail(sender, round_id, "signature is not a SchnorrSignature")
    for part in (signature.challenge, signature.response):
        if type(part) is not int or part < 0:
            raise _fail(sender, round_id, "signature components must be ints")
    return contribution


# --------------------------------------------------------- per-kind validators


def _validate_open_blinder(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.OpenBlinderRound):
        raise _fail(sender, None, "expected OpenBlinderRound payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_int(sender, rid, "num_parties", payload.num_parties, 1, MAX_PARTIES)
    _check_int(
        sender, rid, "vector_length", payload.vector_length, 1, MAX_VECTOR_LENGTH
    )
    _check_int(
        sender, rid, "subgroup_size", payload.subgroup_size, 0, MAX_PARTIES
    )


def _validate_open_service(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.OpenServiceRound):
        raise _fail(sender, None, "expected OpenServiceRound payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_int(
        sender, rid, "expected_parties", payload.expected_parties, 1, MAX_PARTIES
    )
    if not isinstance(payload.blinded, bool):
        raise _fail(sender, rid, "blinded flag must be a bool")
    _check_int(
        sender, rid, "subgroup_size", payload.subgroup_size, 0, MAX_PARTIES
    )


def _validate_provision(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.ProvisionMask):
        raise _fail(sender, None, "expected ProvisionMask payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_int(sender, rid, "party_index", payload.party_index, 0, MAX_PARTIES - 1)


def _check_quote(sender: str, round_id: int, quote: Any) -> None:
    """A :class:`Quote` whose every field has its type: a verifier then
    refuses a bad one with :class:`AttestationError`, never a crash."""
    if not isinstance(quote, Quote):
        raise _fail(sender, round_id, f"quote is not a Quote: {quote!r}")
    fields = (quote.mrenclave, quote.mrsigner, quote.report_data, quote.platform_id)
    if (
        not all(isinstance(field, bytes) for field in fields)
        or type(quote.version) is not int
        or type(quote.debug) is not bool
        or not isinstance(quote.signature, SchnorrSignature)
        or type(quote.signature.challenge) is not int
        or type(quote.signature.response) is not int
    ):
        raise _fail(sender, round_id, "quote holds a mistyped field")


def _validate_mask_request(sender: str, payload: Any) -> None:
    """Exactly two shapes: a full request (a quote, a positive DH value, a
    session id) or an in-session one (a handle, and neither of those)."""
    if not isinstance(payload, m.MaskRequest):
        raise _fail(sender, None, "expected MaskRequest payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_int(sender, rid, "party_index", payload.party_index, 0, MAX_PARTIES - 1)
    if not isinstance(payload.session_id, bytes) or not payload.session_id:
        raise _fail(sender, rid, "session_id must be non-empty bytes")
    if payload.quote is None and payload.dh_public is None:
        if len(payload.session_id) != HANDLE_BYTES:
            raise _fail(
                sender, rid, f"an in-session request names a {HANDLE_BYTES}-byte handle"
            )
        return
    _check_quote(sender, rid, payload.quote)
    if type(payload.dh_public) is not int or payload.dh_public <= 0:
        raise _fail(sender, rid, "dh_public must be a positive int")


def _check_pairs(
    sender: str, round_id: int, name: str, pairs: Any, *, str_values: bool
) -> None:
    """A capped tuple of 2-tuples with ``str`` keys (and values, if asked)."""
    if not isinstance(pairs, tuple) or len(pairs) > MAX_VECTOR_LENGTH:
        raise _fail(sender, round_id, f"{name} must be a tuple within the cap")
    for pair in pairs:
        if (
            not isinstance(pair, tuple)
            or len(pair) != 2
            or not isinstance(pair[0], str)
            or (str_values and not isinstance(pair[1], str))
        ):
            raise _fail(sender, round_id, f"{name} holds a malformed pair: {pair!r}")


def _validate_contribute(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.ContributeCommand):
        raise _fail(sender, None, "expected ContributeCommand payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_finite_floats(sender, rid, "values", payload.values)
    if len(payload.values) > MAX_VECTOR_LENGTH:
        raise _fail(sender, rid, "values exceed the vector-length cap")
    digest = payload.features_digest
    if not isinstance(digest, bytes) or len(digest) != DIGEST_BYTES:
        raise _fail(sender, rid, "features_digest must be exactly 32 bytes")
    _check_pairs(sender, rid, "features", payload.features, str_values=True)
    # A device host keeps the list it receives: one that does not hash to
    # the digest it travels under must never be kept.
    if payload.features and features_digest(payload.features) != digest:
        raise _fail(sender, rid, "features do not hash to features_digest")
    if type(payload.blind) is not bool:
        raise _fail(sender, rid, f"blind must be a bool: {payload.blind!r}")
    _check_pairs(sender, rid, "claims", payload.claims, str_values=False)
    fields = payload.context_fields
    if not isinstance(fields, tuple) or not all(isinstance(f, str) for f in fields):
        raise _fail(sender, rid, "context_fields must be a tuple of str")


def _validate_submit(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.SubmitContribution):
        raise _fail(sender, None, "expected SubmitContribution payload")
    rid = _check_round_id(sender, payload.round_id)
    if payload.slot is not None:
        _check_int(sender, rid, "slot", payload.slot, 0, MAX_PARTIES - 1)
    validate_contribution(sender, rid, payload.contribution)


def _validate_query(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.SubmissionStatusQuery):
        raise _fail(sender, None, "expected SubmissionStatusQuery payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_nonce(sender, rid, payload.nonce)


def _validate_reveal(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.RevealMask):
        raise _fail(sender, None, "expected RevealMask payload")
    rid = _check_round_id(sender, payload.round_id)
    _check_int(sender, rid, "party_index", payload.party_index, 0, MAX_PARTIES - 1)


def _validate_finalize(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.FinalizeRound):
        raise _fail(sender, None, "expected FinalizeRound payload")
    rid = _check_round_id(sender, payload.round_id)
    if not isinstance(payload.dropout_masks, tuple):
        raise _fail(sender, rid, "dropout_masks must be a tuple")
    for mask in payload.dropout_masks:
        _check_ring_words(sender, rid, "dropout mask", mask)


def _validate_close(sender: str, payload: Any) -> None:
    if not isinstance(payload, m.CloseRound):
        raise _fail(sender, None, "expected CloseRound payload")
    _check_round_id(sender, payload.round_id)


VALIDATORS: dict[str, Callable[[str, Any], None]] = {
    m.KIND_OPEN_BLINDER: _validate_open_blinder,
    m.KIND_OPEN_SERVICE: _validate_open_service,
    m.KIND_PROVISION_MASK: _validate_provision,
    m.KIND_MASK_REQUEST: _validate_mask_request,
    m.KIND_CONTRIBUTE: _validate_contribute,
    m.KIND_SUBMIT: _validate_submit,
    m.KIND_QUERY_SUBMISSION: _validate_query,
    m.KIND_REVEAL_MASK: _validate_reveal,
    m.KIND_FINALIZE: _validate_finalize,
    m.KIND_CLOSE_ROUND: _validate_close,
}


def validate_payload(kind: str, sender: str, payload: Any) -> None:
    """Validate one inbound payload; raises :class:`ProtocolViolation`.

    Kinds without a registered validator pass through — new message
    kinds fail open at the schema layer but still hit handler-level
    checks.
    """
    validator = VALIDATORS.get(kind)
    if validator is not None:
        validator(sender, payload)
