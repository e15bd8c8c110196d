"""Human/bot interaction signals for the §4.1 bot-detection service.

The paper: bot detectors "collect a large set of signals, such as how
faithfully the client executes Javascript, fingerprints of the client's
system software and hardware, and the timing and frequency [of] UI
interactions such as mouse movements and changes in focus" — and those
signals "often contain private information, such as the user's cookies,
browsing history and browsing interests".

:class:`SessionSignals` carries both the *detector features* and the
*private context* (history, cookies) that makes shipping raw signals a
privacy problem — experiment E8 measures exactly how many sensitive bits
the raw-upload baseline exposes versus the Glimmer's single bit.

Bots have a ``sophistication`` level in ``[0, 1]``: at 0 they are naive
scripts (machine timing, no mouse); at 1 they imitate human statistics
almost perfectly, which is what drives detector accuracy down and
adversary cost up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codec import Bool, Real, Str, TupleOf, wire
from repro.crypto.drbg import HmacDrbg
from repro.errors import ConfigurationError


#: A detector feature: finite, and far inside ±10^9 for any session.  A
#: NaN would score every session human.
SIGNAL = Real(1e9)


@wire(
    0x8208, session_id=Str, mouse_moves_per_minute=SIGNAL, mean_event_interval_ms=SIGNAL,
    event_interval_variance=SIGNAL, focus_changes_per_minute=SIGNAL, js_fidelity=SIGNAL,
    scroll_entropy=SIGNAL, browsing_history=TupleOf(Str), cookie_ids=TupleOf(Str),
    interest_profile=Str, is_bot=Bool,
)
@dataclass(frozen=True)
class SessionSignals:
    """One browsing session's detector features plus private context."""

    session_id: str
    # --- detector features ---
    mouse_moves_per_minute: float
    mean_event_interval_ms: float
    event_interval_variance: float
    focus_changes_per_minute: float
    js_fidelity: float  # 0..1, how faithfully client-side JS executed
    scroll_entropy: float  # 0..1, randomness of scroll behaviour
    # --- private context (what a raw-signal upload would leak) ---
    browsing_history: tuple[str, ...]
    cookie_ids: tuple[str, ...]
    interest_profile: str
    # --- ground truth ---
    is_bot: bool

    def feature_vector(self) -> list[float]:
        return [
            self.mouse_moves_per_minute,
            self.mean_event_interval_ms,
            self.event_interval_variance,
            self.focus_changes_per_minute,
            self.js_fidelity,
            self.scroll_entropy,
        ]


_SITES = (
    "news.example", "health.example/condition", "bank.example/loans",
    "jobs.example/search", "dating.example", "politics.example/forum",
    "shopping.example/cart", "travel.example/visa", "support.example/group",
)
_INTERESTS = (
    "health-anxiety", "job-hunting", "debt", "dating", "political-activism",
    "gambling", "relocation",
)


def _human_features(rng: HmacDrbg) -> dict:
    return {
        "mouse_moves_per_minute": 25.0 + rng.uniform() * 60.0,
        "mean_event_interval_ms": 300.0 + rng.uniform() * 900.0,
        "event_interval_variance": 12_000.0 + rng.uniform() * 60_000.0,
        "focus_changes_per_minute": 0.5 + rng.uniform() * 4.0,
        "js_fidelity": 0.97 + rng.uniform() * 0.03,
        "scroll_entropy": 0.55 + rng.uniform() * 0.4,
    }


def _naive_bot_features(rng: HmacDrbg) -> dict:
    return {
        "mouse_moves_per_minute": rng.uniform() * 2.0,
        "mean_event_interval_ms": 5.0 + rng.uniform() * 30.0,
        "event_interval_variance": rng.uniform() * 40.0,
        "focus_changes_per_minute": rng.uniform() * 0.1,
        "js_fidelity": 0.3 + rng.uniform() * 0.4,
        "scroll_entropy": rng.uniform() * 0.1,
    }


@dataclass
class BotnetWorkload:
    """A labeled mix of human and bot sessions."""

    sessions: list[SessionSignals] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        num_sessions: int,
        rng: HmacDrbg,
        bot_fraction: float = 0.4,
        bot_sophistication: float = 0.0,
    ) -> "BotnetWorkload":
        """Generate sessions; bots interpolate toward human statistics."""
        if num_sessions < 1:
            raise ConfigurationError("need at least one session")
        if not 0.0 <= bot_fraction <= 1.0:
            raise ConfigurationError("bot_fraction must be in [0, 1]")
        if not 0.0 <= bot_sophistication <= 1.0:
            raise ConfigurationError("bot_sophistication must be in [0, 1]")
        sessions = []
        num_bots = round(num_sessions * bot_fraction)
        for index in range(num_sessions):
            is_bot = index < num_bots
            session_rng = rng.fork(f"session-{index}")
            human = _human_features(session_rng.fork("human"))
            if is_bot:
                naive = _naive_bot_features(session_rng.fork("bot"))
                s = bot_sophistication
                features = {
                    key: naive[key] * (1.0 - s) + human[key] * s for key in human
                }
            else:
                features = human
            history_size = 3 + session_rng.randint(5)
            sessions.append(
                SessionSignals(
                    session_id=f"session-{index:05d}",
                    browsing_history=tuple(
                        session_rng.choice(_SITES) for __ in range(history_size)
                    ),
                    cookie_ids=tuple(
                        session_rng.generate(8).hex() for __ in range(3)
                    ),
                    interest_profile=session_rng.choice(_INTERESTS),
                    is_bot=is_bot,
                    **features,
                )
            )
        return cls(sessions=sessions)

    def labels(self) -> dict[str, bool]:
        return {s.session_id: s.is_bot for s in self.sessions}


@wire(0x8116, weights=TupleOf(float), bias=float, threshold=float)
@dataclass(frozen=True)
class DetectorWeights:
    """The service's proprietary detector: a linear score over features.

    This is the secret the §4.1 *validation confidentiality* extension
    protects: the service ships these weights encrypted into the Glimmer
    so that neither the user nor on-path observers learn the detection
    logic.
    """

    weights: tuple[float, ...] = (0.035, 0.0018, 0.00003, 0.33, 2.2, 1.6)
    bias: float = -3.1
    threshold: float = 0.0

    def score(self, signals: SessionSignals) -> float:
        features = signals.feature_vector()
        if len(features) != len(self.weights):
            raise ConfigurationError("feature/weight length mismatch")
        return sum(w * f for w, f in zip(self.weights, features)) + self.bias

    def is_human(self, signals: SessionSignals) -> bool:
        return self.score(signals) > self.threshold

    def accuracy(self, workload: BotnetWorkload) -> float:
        if not workload.sessions:
            raise ConfigurationError("empty workload")
        hits = sum(
            1
            for s in workload.sessions
            if self.is_human(s) != s.is_bot
        )
        return hits / len(workload.sessions)
