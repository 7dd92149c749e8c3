"""Fault plans: the declarative, seedable description of a chaos run.

A plan is JSON-serialisable so CI jobs and the ``repro chaos`` CLI can
pin one to a file; the seed makes every run of the same plan identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultPlan", "single_fault_plan"]

#: Every fault class the injector knows how to apply.  Drop, duplicate,
#: late, corrupt and clock skew are drawn per row of each published
#: block; reorder shuffles whole blocks.
FAULT_KINDS: tuple[str, ...] = (
    "drop",          # rows silently lost at publish
    "duplicate",     # rows delivered again in a second block
    "reorder",       # a window of blocks delivered shuffled
    "late",          # rows held back in a block released after later traffic
    "corrupt",       # rows carved into a damaged block (no dictionary, NaNs, ...)
    "backpressure",  # consumer polls stall (empty batches) for a while
    "clock_skew",    # row timestamps shifted by a constant skew
    "worker_crash",  # a fleet worker raises mid-step
    "worker_hang",   # a fleet worker stalls for several steps
)

#: Default per-kind parameters (merged under explicit ``params``).
_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "drop": {},
    "duplicate": {},
    "reorder": {"window": 6},
    "late": {"hold_messages": 8},
    "corrupt": {},
    "backpressure": {"stall_polls": 3},
    "clock_skew": {"skew_s": 90},
    "worker_crash": {"max_crashes": 2},
    "worker_hang": {"hang_steps": 3},
}

#: Default injection rate per kind (probability per row / block window /
#: poll / worker step).  Worker faults fire rarely but recovery is what
#: is under test, not frequency.
_DEFAULT_RATES: dict[str, float] = {
    "drop": 0.10,
    "duplicate": 0.10,
    "reorder": 0.25,
    "late": 0.05,
    "corrupt": 0.05,
    "backpressure": 0.20,
    "clock_skew": 0.10,
    "worker_crash": 0.25,
    "worker_hang": 0.10,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault class armed against a subset of topics.

    ``rate`` is the injection probability per unit (block row for the
    row faults, flushed window for reorder, poll for backpressure,
    worker step for crash/hang).
    ``topic`` is an ``fnmatch`` pattern over topic names; worker faults
    ignore it.
    """

    kind: str
    rate: float = 0.1
    topic: str = "*"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {', '.join(FAULT_KINDS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be within [0, 1]")
        merged = dict(_DEFAULT_PARAMS.get(self.kind, {}))
        merged.update(self.params)
        object.__setattr__(self, "params", merged)

    def param(self, name: str, default: float = 0.0) -> float:
        return float(self.params.get(name, default))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "rate": self.rate,
            "topic": self.topic,
            "params": {k: float(v) for k, v in self.params.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        return cls(
            kind=data["kind"],
            rate=float(data.get("rate", _DEFAULT_RATES.get(data["kind"], 0.1))),
            topic=data.get("topic", "*"),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs."""

    name: str
    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(s.kind for s in self.specs))

    def spec_for(self, kind: str) -> FaultSpec | None:
        for spec in self.specs:
            if spec.kind == kind:
                return spec
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [s.to_dict() for s in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls(
            name=data.get("name", "plan"),
            seed=int(data.get("seed", 0)),
            specs=tuple(FaultSpec.from_dict(s) for s in data.get("specs", ())),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "FaultPlan":
        """Parse a plan from a JSON string, failing fast with context.

        Every malformation a generated plan can carry — invalid JSON, a
        non-object document, a spec missing its ``kind``, an unknown
        fault kind — raises :class:`ValueError` naming the offending
        spec and the known kinds, so a bad plan is rejected at load
        time instead of surfacing as an injection-time crash.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ValueError(
                f"{source}: fault plan must be a JSON object, "
                f"got {type(data).__name__}"
            )
        specs = data.get("specs", [])
        if not isinstance(specs, (list, tuple)):
            raise ValueError(f"{source}: 'specs' must be a list of objects")
        for i, raw in enumerate(specs):
            if not isinstance(raw, Mapping):
                raise ValueError(
                    f"{source}: specs[{i}] must be an object, "
                    f"got {type(raw).__name__}"
                )
            if "kind" not in raw:
                raise ValueError(
                    f"{source}: specs[{i}] is missing required key 'kind'"
                )
            if raw["kind"] not in FAULT_KINDS:
                raise ValueError(
                    f"{source}: specs[{i}] has unknown fault kind "
                    f"{raw['kind']!r}; known kinds: {', '.join(FAULT_KINDS)}"
                )
        try:
            return cls.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source}: malformed fault plan: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan from a JSON file (the ``repro chaos --plan`` format)."""
        p = Path(path)
        return cls.from_json(p.read_text(encoding="utf-8"), source=str(p))


def single_fault_plan(
    kind: str, seed: int = 0, rate: float | None = None, **params: float
) -> FaultPlan:
    """A plan arming exactly one fault class at its default rate."""
    spec = FaultSpec(
        kind=kind,
        rate=_DEFAULT_RATES.get(kind, 0.1) if rate is None else rate,
        params=params,
    )
    return FaultPlan(name=f"single-{kind}", seed=seed, specs=(spec,))
