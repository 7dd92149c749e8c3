"""The one simulated fleet under chaos, fuzz, lead time and fleet-demo."""

import re

import pytest

import repro.workload
from repro.cli import main
from repro.evaluation.chaos import ChaosHarnessConfig, simulate_fleet
from repro.fleet import FleetConfig
from repro.fuzz import AnomalySpec, ScenarioSpec, build_fixture, fixture_digest


@pytest.mark.parametrize("config", [FleetConfig, ChaosHarnessConfig, ScenarioSpec])
def test_workers_other_than_one_is_rejected(config):
    """``workers`` survives only for callers and corpus ids that still
    carry it; parallel diagnosis is worker processes, never threads."""
    assert config(workers=1).workers == 1
    with pytest.raises(ValueError, match=r"run_sharded\(processes=N\)"):
        config(workers=2)


def test_chaos_and_fuzz_build_the_same_fleet():
    """The fleet-demo storm, written as a fuzz spec, is the same fixture."""
    cfg = ChaosHarnessConfig(seed=7, n_instances=2, anomalous=1, duration_s=240)
    spec = ScenarioSpec(
        seed=7,
        n_instances=2,
        anomalous=1,
        duration_s=240,
        n_businesses=5,
        templates_per_business=(5, 18),
        anomaly=AnomalySpec(
            category="row_lock",
            onset_frac=2 / 3,
            params={"target_rate": (25.0, 35.0), "lock_hold_ms": (300.0, 400.0)},
        ),
    )
    assert fixture_digest(simulate_fleet(cfg)) == fixture_digest(build_fixture(spec))


def test_chaos_fleet_reads_the_population_shape_at_call_time(monkeypatch):
    """perfbench pins the chaos workload's shape by swapping
    ``repro.workload.build_population`` for a partial; that only works
    while ``simulate_fleet`` resolves it per call and leaves every shape
    argument but ``n_businesses`` to it."""
    original = repro.workload.build_population
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.workload, "build_population", spy)
    simulate_fleet(
        ChaosHarnessConfig(seed=3, n_instances=2, anomalous=1, duration_s=180)
    )
    assert calls == [{"n_businesses": 5}, {"n_businesses": 5}]


@pytest.mark.parametrize(
    "extra", [[], ["--processes", "2"]], ids=["threads", "processes"]
)
def test_fleet_demo_prints_one_row_per_instance(extra, capsys):
    argv = ["fleet-demo", "--instances", "2", "--anomalous", "1", "--duration", "420"]
    assert main(argv + extra) == 0
    rows = re.findall(r"^(db-\d\d) ", capsys.readouterr().out, re.MULTILINE)
    assert rows == ["db-00", "db-01"]
