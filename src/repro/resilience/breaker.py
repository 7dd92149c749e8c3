"""Circuit breaker for side-effecting calls (repair execution).

Repairs touch the monitored database.  When execution starts failing
(instance unreachable, throttle API erroring) the right move is to stop
hammering it: the breaker opens after ``failure_threshold`` consecutive
failures, rejects calls while open, and lets a single probe through
after ``recovery_s`` (half-open).  A probe success closes the circuit;
a probe failure re-opens it.

State is exported as a telemetry gauge (``circuit_breaker_state``:
0 closed / 1 open / 2 half-open) plus transition/rejection counters, so
an operator sees a stuck-open breaker before wondering why repairs
stopped landing.
"""

from __future__ import annotations

import enum
import time
from typing import Any, Callable

from repro.telemetry import MetricsRegistry, get_logger, get_registry

__all__ = ["BreakerState", "CircuitBreaker", "CircuitOpenError"]

_log = get_logger("resilience")


class BreakerState(enum.Enum):
    CLOSED = 0
    OPEN = 1
    HALF_OPEN = 2


class CircuitOpenError(RuntimeError):
    """The breaker rejected the call without attempting it."""

    def __init__(self, name: str, retry_in_s: float) -> None:
        super().__init__(
            f"circuit {name!r} is open; retry in {max(retry_in_s, 0.0):.3f}s"
        )
        self.name = name
        self.retry_in_s = retry_in_s


class CircuitBreaker:
    """Closed → open → half-open breaker with an injectable clock."""

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        recovery_s: float = 60.0,
        clock: Callable[[], float] | None = None,
        registry: MetricsRegistry | None = None,
        **labels: str,
    ) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if recovery_s < 0:
            raise ValueError("recovery_s must be non-negative")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.recovery_s = float(recovery_s)
        self.clock = clock if clock is not None else time.monotonic
        self.registry = registry or get_registry()
        self._labels = {"breaker": name, **labels}
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._g_state = self.registry.gauge(
            "circuit_breaker_state",
            help="Breaker state: 0 closed, 1 open, 2 half-open.",
            **self._labels,
        )
        self._g_state.set(self._state.value)

    # ------------------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        """Current state, promoting open → half-open once recovery_s passed."""
        if self._state is BreakerState.OPEN and self._opened_at is not None:
            if self.clock() - self._opened_at >= self.recovery_s:
                self._transition(BreakerState.HALF_OPEN)
        return self._state

    def _transition(self, state: BreakerState) -> None:
        if state is self._state:
            return
        self._state = state
        self._g_state.set(state.value)
        self.registry.counter(
            "circuit_breaker_transitions_total",
            help="Breaker state transitions.",
            to=state.name.lower(),
            **self._labels,
        ).inc()
        _log.info(
            "circuit breaker transition",
            extra={"breaker": self.name, "state": state.name.lower()},
        )

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether a call may proceed right now (no side effects)."""
        return self.state is not BreakerState.OPEN

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self._opened_at = None
        self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self._opened_at = self.clock()
            self._transition(BreakerState.OPEN)

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` under the breaker.

        Raises :class:`CircuitOpenError` without calling ``fn`` while
        open; otherwise records the outcome and re-raises failures.
        """
        if not self.allow():
            self.registry.counter(
                "circuit_breaker_rejections_total",
                help="Calls rejected by an open breaker.",
                **self._labels,
            ).inc()
            retry_in = self.recovery_s
            if self._opened_at is not None:
                retry_in = self.recovery_s - (self.clock() - self._opened_at)
            raise CircuitOpenError(self.name, retry_in)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.record_failure()
            raise
        self.record_success()
        return result
