"""Simulated network: clock, transport, link weather, adversaries.

The Glimmer protocols (key provisioning, encrypted predicate delivery,
Glimmer-as-a-service) are message exchanges between a client device, the
cloud service, a blinding service, and possibly a remote Glimmer host.  This
package provides the substrate: a deterministic simulated clock, an RPC-style
transport with a latency model, per-device link conditions, and
man-in-the-middle adversaries that experiments interpose to show which
attacks the architecture stops.
"""

from repro.network.adversary import (
    DropAdversary,
    EavesdropAdversary,
    NetworkAdversary,
    ReplayAdversary,
    TamperAdversary,
)
from repro.network.clock import LatencyModel, SimulatedClock
from repro.network.conditions import (
    CELLULAR_EDGE,
    HOSTILE,
    PROFILES,
    URBAN_WIFI,
    ConditionProfile,
    FleetPlan,
    LinkConditions,
    LinkSchedule,
    resolve_profile,
    sample_fleet_plan,
)
from repro.network.message import Message
from repro.network.transport import Endpoint, Network

__all__ = [
    "DropAdversary",
    "EavesdropAdversary",
    "NetworkAdversary",
    "ReplayAdversary",
    "TamperAdversary",
    "LatencyModel",
    "SimulatedClock",
    "ConditionProfile",
    "FleetPlan",
    "LinkConditions",
    "LinkSchedule",
    "PROFILES",
    "URBAN_WIFI",
    "CELLULAR_EDGE",
    "HOSTILE",
    "resolve_profile",
    "sample_fleet_plan",
    "Message",
    "Endpoint",
    "Network",
]
