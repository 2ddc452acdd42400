"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench import run
from perfbench.reference import NOMINAL_REFERENCE_S
from perfbench.run import Tally, import_program

import_program()

from repro.scenario import Inf, Scenario, TaskSpec, run_scenario  # noqa: E402

from perfbench.cells import Digest, run_cell  # noqa: E402
from perfbench.tracer import LAYERS, LayerTracer  # noqa: E402
from perfbench.workloads import WORKLOADS, round_cells  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def small_cell(**changes) -> Scenario:
    """The first audited-churn cell of seed 0, with ``changes`` applied."""
    return dataclasses.replace(round_cells("audited-churn", 0, 0)[0], **changes)


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        assert round_cells(workload, 7, 3) == round_cells(workload, 7, 3)


def test_different_seeds_and_rounds_give_different_cells():
    for workload in WORKLOADS:
        first = round_cells(workload, 1, 0)
        assert first != round_cells(workload, 2, 0)
        assert first != round_cells(workload, 1, 1)


def test_random_cells_stay_within_their_ranges():
    for seed in range(20):
        for scenario in round_cells("audited-churn", seed, 0):
            assert 2 <= len(scenario.tasks) <= 12
            assert len(scenario.events) <= 6
            assert 1 <= scenario.cpus <= 4
            assert 0.01 <= scenario.quantum <= 0.2
            assert scenario.audit and scenario.duration == 10.0
            for spec in scenario.tasks:
                assert 1e-3 <= spec.weight <= 1e3


def test_a_cell_that_raises_counts_as_failed():
    broken = small_cell(scheduler="no-such-policy")
    tally = Tally()
    tally.add_round([run_cell(broken), run_cell(small_cell())])
    assert tally.attempted == 2
    assert tally.failed == 1


def test_a_cell_that_breaks_conservation_counts_as_failed():
    def tampered(scenario):
        result = run_scenario(scenario)
        next(iter(result.tasks.values())).service = -1.0
        return result

    outcome = run_cell(small_cell(), runner=tampered)
    assert outcome.failed
    assert any("negative service" in p for p in outcome.problems)

    def overfull(scenario):
        result = run_scenario(scenario)
        for task in result.tasks.values():
            task.service += result.capacity()
        return result

    outcome = run_cell(small_cell(), runner=overfull)
    assert any("exceeds capacity" in p for p in outcome.problems)


def test_too_few_events_counts_as_failed():
    idle = Scenario(
        name="idle",
        duration=1.0,
        tasks=(TaskSpec("late", behavior=Inf(), at=5.0),),
    )
    assert run_cell(idle).failed


def test_audit_violations_flag_a_cell_without_failing_it():
    outcome = run_cell(small_cell())
    outcome.violations = {"bounded_lag": 1}
    tally = Tally()
    tally.add_round([outcome])
    assert (tally.failed, tally.flagged) == (0, 1)


def test_host_times_are_rescaled_to_the_nominal_host(monkeypatch):
    monkeypatch.setattr(
        run, "reference_samples", lambda n: [2.0 * NOMINAL_REFERENCE_S] * n
    )
    first = round_cells("audited-churn", 4, 0)
    measured = run.measure("audited-churn", 4, 0.0, first)
    tally, metrics = measured["tally"], measured["metrics"]
    wall = statistics.fmean(tally.raw_round_walls)
    assert math.isclose(metrics["wall_s"][0], wall / 2.0)
    rate = statistics.median(tally.raw_round_rates)
    assert math.isclose(metrics["events_per_s"][0], rate * 2.0)


def test_traced_split_adds_up_to_its_wall_and_simulates_the_same():
    tracer = LayerTracer()
    cells = round_cells("audited-churn", 3, 0)[:3] + round_cells("lag-report", 3, 0)
    for scenario in cells:
        plain = run_cell(scenario)
        traced = run_cell(scenario, tracer.run_cell)
        assert (plain.events, plain.services) == (traced.events, traced.services)
        assert plain.context_switches == traced.context_switches
    parts = [tracer.layers[name][0] for name in LAYERS]
    assert all(part >= 0.0 for part in parts)
    # the wrappers' own cost: positive, and less than the layers' work
    unattributed = tracer.unattributed_s()
    assert 0.0 < unattributed < 0.5 * tracer.wall_s
    assert math.isclose(sum(parts) + unattributed, tracer.wall_s)
    for layer in ("sim.engine", "sim.machine", "sim.scheduler.pick",
                  "analysis.audit.stream", "scenario.result"):
        assert tracer.layers[layer][0] > 0.0, layer
    counts = tracer.counters()
    assert counts["sim.engine.events_fired"] == sum(
        run_cell(s).events for s in cells
    )
    assert counts["scenario.result.gms_advances"] > 0


def test_the_wrappers_cost_stays_out_of_the_engine_layer():
    # an overload population is almost all per-event work, where the
    # wrappers cost most; untraced and traced runs alternate, and the
    # median over pairs damps the host's speed changes
    population = round_cells("overload-cheap", 2, 0)[0]
    tasks = population.tasks[:1000]
    cell = dataclasses.replace(
        population, tasks=tasks, duration=tasks[-1].at * 1.5
    )
    excess = []
    for _ in range(15):
        tracer = LayerTracer()
        plain = run_cell(cell).wall_s
        run_cell(cell, tracer.run_cell)
        engine = tracer.layers["sim.engine"][0]
        others = sum(acc[0] for acc in tracer.layers.values()) - engine
        excess.append((engine - (plain - others)) / plain)
    assert statistics.median(excess) < 0.25


def test_calibrated_constants_are_small_and_positive():
    constants = LayerTracer().constants
    assert set(constants) == {"call", "fire", "schedule"}
    for leak, inner in constants.values():
        assert 0.0 < leak < 5e-6
        assert -1e-6 < inner < 5e-6


def test_digest_tells_simulations_apart():
    a, b = Digest(), Digest()
    a.add(run_cell(small_cell()))
    b.add(run_cell(small_cell(quantum=0.123)))
    assert a.hexdigest() != b.hexdigest()


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_cli_prints_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(
            [str(RUN), "--workload", "audited-churn", "--seed", "5",
             "--seconds", "0.1", "--trace", str(trace)],
            ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["attempted"] >= 30
        declared = {m["name"]: m["unit"] for m in spec[key]}
        measured = {n: m["unit"] for n, m in result["metrics"].items()}
        assert measured == declared


def test_cli_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(
        ["perfbench/run.py", "--workload", "overload-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        tmp_path,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
