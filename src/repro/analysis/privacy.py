"""Privacy leakage accounting across the channels the paper compares.

Each deployment option exposes a different *channel* to the service, and
the experiments need the leakage of each on one scale:

* ``raw`` — the service reads the user's data outright (Figure 1a);
* ``per-user-model`` — the service reads an attributed partial model
  (Figure 1b), invertible per [4];
* ``blinded`` — the service reads one ring-masked vector per user
  (Figure 1c), marginally uniform, so attribute inference collapses;
* ``aggregate-only`` — the service reads only the cohort aggregate;
* ``verdict-bit`` — §4.1's audited single bit.

:func:`leakage_for_channel` pairs an empirical attacker accuracy with a
structural bits-exposed bound, which is what the E1/E2/E3/E8 tables report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.federated.metrics import attribute_inference_advantage


@dataclass(frozen=True)
class LeakageReport:
    """One channel's privacy accounting."""

    channel: str
    attacker_accuracy: float
    attacker_advantage: float
    structural_bits: float
    """Upper bound on user-attributable bits the channel carries."""

    def summary(self) -> str:
        return (
            f"{self.channel}: attacker accuracy {self.attacker_accuracy:.3f} "
            f"(advantage {self.attacker_advantage:+.3f}), "
            f"≤ {self.structural_bits:g} attributable bits"
        )


def leakage_for_channel(
    channel: str,
    attacker_accuracy: float,
    structural_bits: float,
    num_classes: int = 2,
) -> LeakageReport:
    """Build a report; validates ranges so tables never carry nonsense."""
    if not 0.0 <= attacker_accuracy <= 1.0:
        raise ConfigurationError("attacker accuracy must be in [0, 1]")
    if structural_bits < 0:
        raise ConfigurationError("structural bits must be non-negative")
    return LeakageReport(
        channel=channel,
        attacker_accuracy=attacker_accuracy,
        attacker_advantage=attribute_inference_advantage(
            attacker_accuracy, num_classes
        ),
        structural_bits=structural_bits,
    )


def bits_of_vector(length: int, bits_per_value: int = 64) -> float:
    """Structural size of an attributed vector channel."""
    if length < 0:
        raise ConfigurationError("length must be non-negative")
    return float(length * bits_per_value)


def gaussian_epsilon(
    l2_sensitivity: float, sigma: float, delta: float = 1e-5
) -> float:
    """The exact (ε, δ)-DP level of the Gaussian mechanism.

    The smallest ε at which adding N(0, σ²) to a query of L2 sensitivity
    Δ₂ is (ε, δ)-DP (Balle and Wang, ICML 2018, Thm. 8).  With μ = Δ₂/σ,
    the mechanism's δ at ε is ``Φ(μ/2 − ε/μ) − e^ε·Φ(−μ/2 − ε/μ)``,
    which falls as ε grows; ε is where it meets ``delta``, found by
    bisection.  It depends on Δ₂ and σ only through μ.  The classic
    calibration ``Δ₂·sqrt(2 ln(1.25/δ))/σ`` is a guarantee only below 1
    and understates ε far above it.  Used by the E14 extension to label
    the aggregate's leakage when Glimmers add distributed noise;
    ``float('inf')`` when ``sigma`` is 0 (no DP).
    """
    if l2_sensitivity < 0:
        raise ConfigurationError("sensitivity must be non-negative")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must be in (0, 1)")
    if sigma < 0:
        raise ConfigurationError("sigma must be non-negative")
    if sigma == 0:
        return float("inf")
    mu = l2_sensitivity / sigma
    if mu == 0:
        return 0.0
    log_delta = math.log(delta)

    def exceeds(epsilon: float) -> bool:
        """Whether the mechanism's δ at ``epsilon`` is above ``delta``."""
        head = _log_normal_cdf(mu / 2 - epsilon / mu)
        tail = epsilon + _log_normal_cdf(-mu / 2 - epsilon / mu)
        if tail >= head:
            return False
        return head + math.log(-math.expm1(tail - head)) > log_delta

    if not exceeds(0.0):
        return 0.0
    low, high = 0.0, 1.0
    while exceeds(high):
        low, high = high, 2 * high
    while high - low > 1e-12 * high:
        middle = (low + high) / 2
        if exceeds(middle):
            low = middle
        else:
            high = middle
    return high


def _log_normal_cdf(x: float) -> float:
    """``log Φ(x)`` for the standard normal, in log space where ``erfc``
    would underflow: below −20 the asymptotic tail
    ``φ(x)/|x|·(1 − x⁻² + 3x⁻⁴ − 15x⁻⁶ + 105x⁻⁸)``, relative error < 1e-10."""
    if x > -20.0:
        return math.log(0.5 * math.erfc(-x / math.sqrt(2.0)))
    z = 1.0 / (x * x)
    series = 1.0 - z * (1.0 - 3.0 * z * (1.0 - 5.0 * z * (1.0 - 7.0 * z)))
    return -0.5 * x * x - math.log(-x * math.sqrt(2.0 * math.pi)) + math.log(series)
