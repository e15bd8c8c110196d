"""The Validation component: predicate interface and registry.

§2 uses "validation" loosely — "any validity predicate entrusted upon the
trusted third party; different validation predicates may trade off
computational complexity for result accuracy."  The interface reflects
that: a predicate sees the user contribution and the *private context*
(data the Glimmer requested from the host, which never leaves the device)
and returns a :class:`ValidationOutcome` carrying a verdict, a confidence,
and the simulated cycle cost it incurred — the currency of experiment E6's
complexity-vs-adversary-cost trade-off.

Predicates are looked up by name in the :class:`PredicateRegistry` so that
a Glimmer's measured config can name its predicate (e.g.
``range:0.0:1.0``), making the validation semantics part of the enclave's
attested identity — exactly why the service can trust it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.codec import Optional, wire
from repro.errors import ConfigurationError
from repro.workloads.geo import UserGeoContext


@wire(0x810A, geo_context=Optional(UserGeoContext), extra=dict)
@dataclass
class PrivateContext:
    """Private validation data the Glimmer requested from the host.

    Every field is optional; each predicate documents what it needs.  In
    the threat model the *host controls these values* — a malicious client
    can fabricate them — so stronger predicates are those that make
    fabrication expensive, not impossible (§2).
    """

    sentences: list | None = None
    keystroke_trace: object | None = None
    geo_context: object | None = None
    shopping_context: object | None = None
    session_signals: object | None = None
    video_stream: object | None = None
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ValidationOutcome:
    """The verdict the Signing component consumes.

    ``confidence`` is in ``[0, 1]``; boolean predicates report 1.0.  The
    paper allows either "a boolean 'valid'/'invalid', or a confidence
    value".
    """

    passed: bool
    confidence: float
    reason: str
    predicate_name: str
    cycles: int = 0


class ValidationPredicate(Protocol):
    """What the Glimmer's Validation component runs."""

    name: str

    def required_context(self) -> tuple[str, ...]:
        """Names of :class:`PrivateContext` fields this predicate reads."""
        ...

    def evaluate(
        self, values: Sequence[float], context: PrivateContext
    ) -> ValidationOutcome:
        """Judge a contribution against the private context."""
        ...


class PredicateRegistry:
    """Maps predicate spec strings to constructed predicates.

    A spec is ``name`` or ``name:arg1:arg2...``.  Registering a name twice
    is an error — specs appear in measured configs, so their meaning must
    never silently change.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., ValidationPredicate]] = {}

    def register(self, name: str, factory: Callable[..., ValidationPredicate]) -> None:
        if name in self._factories:
            raise ConfigurationError(f"predicate {name!r} already registered")
        self._factories[name] = factory

    def build(self, spec: str) -> ValidationPredicate:
        """Construct a predicate from its spec string."""
        parts = spec.split(":")
        name, args = parts[0], parts[1:]
        factory = self._factories.get(name)
        if factory is None:
            raise ConfigurationError(f"unknown predicate {name!r}")
        return factory(*args)

    def known(self) -> list[str]:
        return sorted(self._factories)


def default_registry() -> PredicateRegistry:
    """The registry with every predicate this library ships."""
    from repro.core import predicates as p

    registry = PredicateRegistry()
    registry.register("accept-all", lambda: p.AcceptAllPredicate())
    registry.register(
        "range", lambda low="0.0", high="1.0": p.RangeCheckPredicate(float(low), float(high))
    )
    registry.register("norm", lambda bound="8.0": p.NormBoundPredicate(float(bound)))
    registry.register(
        "rate", lambda max_per_round="1": p.RateLimitPredicate(int(max_per_round))
    )
    registry.register(
        "keystrokes",
        lambda tolerance="0.15": p.KeystrokeCorroborationPredicate(float(tolerance)),
    )
    registry.register(
        "exec-trace",
        lambda tolerance="0.02": p.ExecutionTracePredicate(float(tolerance)),
    )
    registry.register(
        "geo", lambda radius="25.0": p.GeoCorroborationPredicate(float(radius))
    )
    registry.register("purchase", lambda: p.PurchaseCorroborationPredicate())
    registry.register(
        "silhouette",
        lambda tolerance="0.05": p.SilhouetteCorroborationPredicate(float(tolerance)),
    )
    registry.register("chain", _build_chain(registry))
    return registry


def _build_chain(registry: PredicateRegistry):
    def factory(*specs: str):
        from repro.core.predicates import ChainPredicate

        if not specs:
            raise ConfigurationError("chain predicate needs at least one member")
        # Chain members are separated by '+' inside one spec segment each,
        # e.g. "chain:range,0.0,1.0+keystrokes,0.15".
        members = []
        for member_spec in "+".join(specs).split("+"):
            members.append(registry.build(member_spec.replace(",", ":")))
        return ChainPredicate(members)

    return factory
