"""Scenario specs: the fuzzer's strict-JSON genome.

A :class:`ScenarioSpec` captures everything the workload scenario
machinery parameterizes — population shape, anomaly injection
(:func:`~repro.workload.inject_anomaly`), planted lint/advisory baits,
and an optional chaos :class:`~repro.chaos.FaultPlan` — as one frozen,
validated, JSON-round-trippable value.  Specs are the unit the mutator
registry perturbs and the regression corpus persists, so the contract
mirrors :class:`~repro.chaos.FaultPlan`: ``to_dict``/``from_dict`` are
exact inverses, unknown keys are rejected loudly, and every numeric
field is bounds-checked at construction (a mutated spec that violates
the simulator's assumptions must die here, not minutes into a run).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.chaos import FaultPlan, single_fault_plan
from repro.workload import AnomalyCategory

__all__ = [
    "AnomalySpec",
    "CATEGORY_PARAMS",
    "ScenarioSpec",
    "SPEC_VERSION",
    "default_seeds",
]

#: Bump when the serialised shape changes incompatibly; ``from_dict``
#: rejects other versions so stale corpus entries fail loudly.
SPEC_VERSION = 1

_CATEGORIES: tuple[str, ...] = tuple(c.value for c in AnomalyCategory)
_BASE_CATEGORIES: tuple[str, ...] = tuple(
    c.value for c in AnomalyCategory if c is not AnomalyCategory.COMPOSITE
)

#: Per-category injector parameter whitelist: name -> value shape.
#: ``pair`` is an inclusive float range ``(lo, hi)`` the injector draws
#: from; ``int_pair`` likewise but integral; ``float`` a scalar.  The
#: shapes mirror the keyword signatures in
#: :mod:`repro.workload.scenarios` — a spec can only say things the
#: injectors can hear.
CATEGORY_PARAMS: Mapping[str, Mapping[str, str]] = {
    "business_spike": {"volume_lift": "pair", "max_factor": "float"},
    "poor_sql": {"target_rate": "pair", "examined_rows": "pair"},
    "mdl_lock": {
        "ddl_duration_ms": "pair",
        "ddl_interval_s": "int_pair",
        "copy_rate": "pair",
        "activity_bump": "pair",
    },
    "row_lock": {
        "target_rate": "pair",
        "lock_hold_ms": "pair",
        "activity_bump": "pair",
    },
    "composite": {},
}


def _require_keys(data: Mapping[str, Any], allowed: frozenset[str], what: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(
            f"{what}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class AnomalySpec:
    """What to inject: category, window (as run fractions), parameters.

    The window is stored as fractions of the scenario duration so
    duration mutations keep the anomaly inside the run; bounds keep the
    onset late enough for the detector's history requirement
    (``onset >= 90 s`` at the minimum duration) and the window wide
    enough to register (``>= 30 s``, checked by :class:`ScenarioSpec`
    where the duration is known).
    """

    category: str = "row_lock"
    onset_frac: float = 2 / 3
    end_frac: float = 1.0
    params: Mapping[str, tuple[float, float] | float] = field(default_factory=dict)
    #: Composite only: the two sub-categories (``None`` = seeded draw).
    categories: tuple[str, str] | None = None
    #: Composite only: allow both causes on one business/table target.
    same_target: bool = False

    def __post_init__(self) -> None:
        if self.category not in _CATEGORIES:
            raise ValueError(
                f"unknown anomaly category {self.category!r}; "
                f"known: {', '.join(_CATEGORIES)}"
            )
        if not 0.5 <= self.onset_frac <= 0.9:
            raise ValueError("onset_frac must be within [0.5, 0.9]")
        if not self.onset_frac < self.end_frac <= 1.0:
            raise ValueError("end_frac must be within (onset_frac, 1.0]")
        allowed = CATEGORY_PARAMS[self.category]
        normalized: dict[str, tuple[float, float] | float] = {}
        for name in sorted(self.params):
            value = self.params[name]
            if name not in allowed:
                raise ValueError(
                    f"parameter {name!r} is not valid for category "
                    f"{self.category!r}; allowed: {sorted(allowed) or 'none'}"
                )
            if allowed[name] == "float":
                if isinstance(value, (list, tuple)):
                    raise ValueError(f"parameter {name!r} must be a scalar")
                scalar = float(value)
                if not scalar > 0:
                    raise ValueError(f"parameter {name!r} must be positive")
                normalized[name] = scalar
            else:
                if not isinstance(value, (list, tuple)) or len(value) != 2:
                    raise ValueError(f"parameter {name!r} must be a (lo, hi) pair")
                pair = (float(value[0]), float(value[1]))
                if not 0 < pair[0] <= pair[1]:
                    raise ValueError(
                        f"parameter {name!r} must satisfy 0 < lo <= hi"
                    )
                normalized[name] = pair
        object.__setattr__(self, "params", normalized)
        if self.categories is not None:
            if self.category != "composite":
                raise ValueError("categories is only valid for composite anomalies")
            cats = tuple(self.categories)
            if len(cats) != 2 or any(c not in _BASE_CATEGORIES for c in cats):
                raise ValueError(
                    f"categories must be two of {', '.join(_BASE_CATEGORIES)}"
                )
            if cats[0] == cats[1] and not self.same_target:
                raise ValueError(
                    "repeated composite categories require same_target=True"
                )
            object.__setattr__(self, "categories", cats)
        if self.same_target and self.category != "composite":
            raise ValueError("same_target is only valid for composite anomalies")

    def window(self, duration_s: int) -> tuple[int, int]:
        """The concrete ``(start, end)`` seconds for a given duration."""
        start = int(round(duration_s * self.onset_frac))
        end = min(int(round(duration_s * self.end_frac)), duration_s)
        return start, end

    def injector_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for :func:`~repro.workload.inject_anomaly`."""
        kwargs: dict[str, Any] = {}
        shapes = CATEGORY_PARAMS[self.category]
        for name, value in self.params.items():
            if shapes[name] == "int_pair" and isinstance(value, tuple):
                kwargs[name] = (int(value[0]), int(value[1]))
            else:
                kwargs[name] = value
        if self.category == "composite":
            if self.categories is not None:
                kwargs["categories"] = tuple(
                    AnomalyCategory(c) for c in self.categories
                )
            if self.same_target:
                kwargs["allow_same_target"] = True
        return kwargs

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "category": self.category,
            "onset_frac": self.onset_frac,
            "end_frac": self.end_frac,
            "params": {
                k: (list(v) if isinstance(v, tuple) else v)
                for k, v in self.params.items()
            },
        }
        if self.categories is not None:
            data["categories"] = list(self.categories)
        if self.same_target:
            data["same_target"] = True
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnomalySpec":
        _require_keys(
            data,
            frozenset(
                {"category", "onset_frac", "end_frac", "params", "categories",
                 "same_target"}
            ),
            "anomaly spec",
        )
        raw_params = data.get("params", {})
        if not isinstance(raw_params, Mapping):
            raise ValueError("anomaly spec: 'params' must be an object")
        params: dict[str, tuple[float, float] | float] = {}
        for name, value in raw_params.items():
            params[name] = tuple(value) if isinstance(value, list) else value
        categories = data.get("categories")
        return cls(
            category=str(data.get("category", "row_lock")),
            onset_frac=float(data.get("onset_frac", 2 / 3)),
            end_frac=float(data.get("end_frac", 1.0)),
            params=params,
            categories=tuple(categories) if categories is not None else None,
            same_target=bool(data.get("same_target", False)),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified fleet scenario, optionally under faults.

    Bounds keep every mutant affordable (the fuzzer evaluates dozens per
    run) and inside the harness's assumptions: the anomaly onset must
    leave the detector at least 30 s of ramp-up history
    (``delta_start_s = min(500, onset - 60)`` in the chaos harness) and
    the window must be >= 30 s wide to register on 1 Hz metrics.
    """

    name: str = "scenario"
    seed: int = 7
    n_instances: int = 2
    anomalous: int = 1
    duration_s: int = 240
    n_businesses: int = 4
    templates_per_business: tuple[int, int] = (4, 9)
    anomaly: AnomalySpec = field(default_factory=AnomalySpec)
    #: Plant labelled anti-pattern templates (static-analyzer baits).
    antipatterns: bool = False
    #: Plant labelled workload-advisory bait templates.
    advisory_baits: bool = False
    faults: FaultPlan | None = None
    #: Kept in the JSON genome only because :meth:`content_key` hashes
    #: it into corpus entry ids; it selects nothing and must be 1.
    workers: int = 1
    top_k: int = 3

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("name must be non-empty")
        if not 0 <= self.seed < 2**31:
            raise ValueError("seed must be within [0, 2**31)")
        if not 1 <= self.n_instances <= 6:
            raise ValueError("n_instances must be within [1, 6]")
        if not 0 <= self.anomalous <= self.n_instances:
            raise ValueError("anomalous must be within [0, n_instances]")
        if not 180 <= self.duration_s <= 1200:
            raise ValueError("duration_s must be within [180, 1200]")
        if not 2 <= self.n_businesses <= 10:
            raise ValueError("n_businesses must be within [2, 10]")
        lo, hi = (int(v) for v in self.templates_per_business)
        if not 2 <= lo <= hi <= 20:
            raise ValueError("templates_per_business must satisfy 2 <= lo <= hi <= 20")
        object.__setattr__(self, "templates_per_business", (lo, hi))
        if self.workers != 1:
            raise ValueError(
                "workers must be 1: scenarios diagnose in-process; use "
                "run_sharded(processes=N) to diagnose in parallel"
            )
        if not 1 <= self.top_k <= 10:
            raise ValueError("top_k must be within [1, 10]")
        start, end = self.anomaly.window(self.duration_s)
        if start < 90:
            raise ValueError(
                f"anomaly onset {start}s leaves no detector history "
                "(onset_frac * duration_s must be >= 90)"
            )
        if end - start < 30:
            raise ValueError(
                f"anomaly window {end - start}s is too narrow (need >= 30 s)"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "seed": self.seed,
            "n_instances": self.n_instances,
            "anomalous": self.anomalous,
            "duration_s": self.duration_s,
            "n_businesses": self.n_businesses,
            "templates_per_business": list(self.templates_per_business),
            "anomaly": self.anomaly.to_dict(),
            "antipatterns": self.antipatterns,
            "advisory_baits": self.advisory_baits,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "workers": self.workers,
            "top_k": self.top_k,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _require_keys(
            data,
            frozenset(
                {"version", "name", "seed", "n_instances", "anomalous",
                 "duration_s", "n_businesses", "templates_per_business",
                 "anomaly", "antipatterns", "advisory_baits", "faults",
                 "workers", "top_k"}
            ),
            "scenario spec",
        )
        version = int(data.get("version", SPEC_VERSION))
        if version != SPEC_VERSION:
            raise ValueError(
                f"scenario spec version {version} is not supported "
                f"(this build reads version {SPEC_VERSION})"
            )
        raw_faults = data.get("faults")
        faults: FaultPlan | None = None
        if raw_faults is not None:
            # Route through the strict parser so unknown fault kinds and
            # missing keys fail with the same contextual errors the CLI
            # gives for standalone plan files.
            faults = FaultPlan.from_json(
                json.dumps(raw_faults), source="scenario spec faults"
            )
        raw_anomaly = data.get("anomaly", {})
        if not isinstance(raw_anomaly, Mapping):
            raise ValueError("scenario spec: 'anomaly' must be an object")
        tpb = data.get("templates_per_business", (4, 9))
        return cls(
            name=str(data.get("name", "scenario")),
            seed=int(data.get("seed", 7)),
            n_instances=int(data.get("n_instances", 2)),
            anomalous=int(data.get("anomalous", 1)),
            duration_s=int(data.get("duration_s", 240)),
            n_businesses=int(data.get("n_businesses", 4)),
            templates_per_business=(int(tpb[0]), int(tpb[1])),
            anomaly=AnomalySpec.from_dict(raw_anomaly),
            antipatterns=bool(data.get("antipatterns", False)),
            advisory_baits=bool(data.get("advisory_baits", False)),
            faults=faults,
            workers=int(data.get("workers", 1)),
            top_k=int(data.get("top_k", 3)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, *, source: str = "<string>") -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{source}: not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ValueError(
                f"{source}: scenario spec must be a JSON object, "
                f"got {type(data).__name__}"
            )
        try:
            return cls.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{source}: {exc}") from exc

    def content_key(self) -> str:
        """Canonical JSON of everything but the display name.

        Two specs with the same key simulate and diagnose identically,
        so the fuzzer's caches, dedup sets and corpus entry ids all key
        on this.
        """
        data = self.to_dict()
        del data["name"]
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def workload_key(self) -> str:
        """Canonical JSON of the fields the simulated fixture depends on.

        Fault-plan/worker/top-k mutations leave the key unchanged, so
        the runner reuses the (expensive) simulated fixture and clean
        baseline across such mutants.
        """
        data = self.to_dict()
        for irrelevant in ("name", "faults", "workers", "top_k"):
            del data[irrelevant]
        return json.dumps(data, sort_keys=True, separators=(",", ":"))

    def with_name(self, name: str) -> "ScenarioSpec":
        return replace(self, name=name)


def default_seeds() -> tuple[ScenarioSpec, ...]:
    """The seed population of a fuzz run: one spec per broad regime.

    A hard row-lock storm (the fleet-demo scenario, known to diagnose
    cleanly), a business spike replayed under message drop (fault path
    live from the first generation), and a poor-SQL rollout with planted
    advisory baits (advisory/static-analysis outcome combos reachable).
    """
    return (
        ScenarioSpec(
            name="rowlock-storm",
            seed=7,
            anomaly=AnomalySpec(
                category="row_lock",
                params={
                    "target_rate": (20.0, 30.0),
                    "lock_hold_ms": (300.0, 400.0),
                },
            ),
        ),
        ScenarioSpec(
            name="spike-under-drop",
            seed=11,
            anomaly=AnomalySpec(category="business_spike"),
            faults=single_fault_plan("drop", seed=11),
        ),
        ScenarioSpec(
            name="poorsql-baited",
            seed=3,
            anomaly=AnomalySpec(category="poor_sql"),
            advisory_baits=True,
        ),
    )
