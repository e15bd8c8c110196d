"""The class each bus kind carries, and the rules tying its fields together
(each field's own check is declared on its ``@wire`` class)."""

from repro.codec import blamed
from repro.core.glimmer import HANDLE_BYTES, received_features
from repro.core.service import repair_complaint
from repro.core.signing import SignedContribution
from repro.errors import RefusedAtWire
from repro.runtime import messages as m

KINDS = {
    m.KIND_OPEN_BLINDER: m.OpenBlinderRound,
    m.KIND_OPEN_SERVICE: m.OpenServiceRound,
    m.KIND_PROVISION_MASK: m.ProvisionMask,
    m.KIND_MASK_REQUEST: m.MaskRequest,
    m.KIND_CONTRIBUTE: m.ContributeCommand,
    m.KIND_SUBMIT: m.SubmitContribution,
    m.KIND_QUERY_SUBMISSION: m.SubmissionStatusQuery,
    m.KIND_REVEAL_MASK: m.RevealMask,
    m.KIND_FINALIZE: m.FinalizeRound,
    m.KIND_CLOSE_ROUND: m.CloseRound,
}


def _one_payload(contribution: SignedContribution) -> str | None:
    """Blinded carries a ring payload only, plain a plain payload only."""
    shape = (contribution.ring_payload is not None, contribution.plain_payload is not None)
    if shape != (contribution.blinded, not contribution.blinded):
        return "payload does not match blinded"
    return None


def _submitted_payload(request: m.SubmitContribution) -> str | None:
    return _one_payload(request.contribution)


def _two_shapes(request: m.MaskRequest) -> str | None:
    """A full request (a quote and a DH value), or a session handle alone."""
    if (request.quote is None) != (request.dh_public is None):
        return "a full mask request carries both a quote and a DH value"
    if request.quote is None and len(request.session_id) != HANDLE_BYTES:
        return f"an in-session mask request names a {HANDLE_BYTES}-byte handle"
    return None


def _features_hash(command: m.ContributeCommand) -> str | None:
    """A carried list inflates within its bounds, unpacks, and hashes to
    the digest it names."""
    if not command.features:
        return None
    try:
        received_features(command.features, command.features_digest)
    except ValueError as exc:
        return f"{exc}, so the host must not keep it"
    return None


def _counted_repair(request: m.FinalizeRound) -> str | None:
    return repair_complaint(request.repair, request.repaired)


RULES = {  # class -> what is wrong with an object whose fields all hold, if anything
    SignedContribution: _one_payload,
    m.SubmitContribution: _submitted_payload,
    m.MaskRequest: _two_shapes,
    m.ContributeCommand: _features_hash,
    m.FinalizeRound: _counted_repair,
}


def check_rules(kind: str, sender: str, payload) -> None:
    """A decoded payload, its fields checked: its kind's class, then its rule."""
    cls = KINDS.get(kind)
    if cls is None:
        return
    if type(payload) is not cls:
        raise RefusedAtWire(f"expected {cls.__name__} payload", offender=sender)
    rule = RULES.get(cls)
    complaint = rule(payload) if rule is not None else None
    if complaint:
        raise RefusedAtWire(complaint, offender=sender, round_id=payload.round_id)


def validate_payload(kind: str, sender: str, payload) -> None:
    """An in-memory payload: its declared checks, its class and its rule."""
    blamed(KINDS.get(kind))(sender, None, "payload", payload)
    check_rules(kind, sender, payload)


def validate_contribution(sender: str, round_id: int, contribution) -> SignedContribution:
    """An in-memory contribution: its declared checks and its one payload."""
    blamed(SignedContribution)(sender, round_id, "contribution", contribution)
    complaint = _one_payload(contribution)
    if complaint:
        raise RefusedAtWire(complaint, offender=sender, round_id=round_id)
    return contribution
