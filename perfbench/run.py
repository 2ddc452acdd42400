#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload overload-exact --seed 1 \\
        --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits
in, with whichever engine a plain checkout imports. ``--trace 0``
measures the end-to-end metrics with tracing off, with host times
rescaled to a nominal host speed (see :mod:`perfbench.reference`).
``--trace 1`` runs every cell twice, untraced and traced, checks that
both simulate the same thing, and reports the per-layer split of the
traced runs, rescaled the same way.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.reference import (  # noqa: E402
    NOMINAL_REFERENCE_S,
    reference_samples,
)

#: host-speed samples: at least this many kernel passes between rounds,
#: and about this share of the previous round's wall
REFERENCE_MIN_REPEATS = 3
REFERENCE_SHARE = 0.02

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60

clock = time.perf_counter


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between order statistics."""
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import the program.

    Exits with an error, before any result is printed, when the
    checkout holds no program to benchmark.
    """
    src = ROOT / "src"
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program: {exc}")
    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(
            f"perfbench: imported the program from {origin}, not from {src}"
        )


def setup(workload: str, seed: int) -> list:
    """Imports plus spec generation: everything before the first run."""
    import_program()
    # imported here so that setup_s covers every module a run loads
    from perfbench import cells, tracer  # noqa: F401
    from perfbench.workloads import round_cells

    return round_cells(workload, seed, 0)


def probe_setup_s(workload: str, seed: int) -> list[float]:
    """Time :func:`setup` in fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload,
                "--seed",
                str(seed),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed: {proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Cell outcomes of one run, by round."""

    def __init__(self) -> None:
        # host times of each round, multiplied by the round's scale
        self.round_walls: list[float] = []
        self.round_rates: list[float] = []
        self.cell_walls: list[float] = []
        self.raw_round_walls: list[float] = []
        self.raw_round_rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.flagged = 0
        self.violations: dict[str, int] = {}
        self.sojourns: list[float] = []
        self.max_lags: list[float] = []

    def add_round(self, outcomes: list, scale: float = 1.0) -> None:
        """Record a round whose host times are to be multiplied by ``scale``."""
        wall = sum(o.wall_s for o in outcomes)
        events = sum(o.events for o in outcomes)
        self.raw_round_walls.append(wall)
        self.raw_round_rates.append(events / wall)
        self.round_walls.append(wall * scale)
        self.round_rates.append(events / (wall * scale))
        for o in outcomes:
            self.cell_walls.append(o.wall_s * scale)
            self.attempted += 1
            self.failed += o.failed
            self.flagged += o.flagged
            for check, count in o.violations.items():
                self.violations[check] = self.violations.get(check, 0) + count
            if o.failed:
                print(f"FAILED {o.name}: {'; '.join(o.problems)}")
            if o.sojourn_p95_s is not None:
                self.sojourns.append(o.sojourn_p95_s)
            if o.max_lag_s is not None:
                self.max_lags.append(o.max_lag_s)

    def report(self) -> None:
        """Print the run's counts and simulated results."""
        bad = self.failed + self.flagged
        print(
            f"failed_ratio = {bad}/{self.attempted} = "
            f"{bad / self.attempted:.4f} (raised or broke conservation: "
            f"{self.failed}; audit-flagged: {self.flagged}"
            + (f", violations by check: {self.violations}" if self.violations else "")
            + ")"
        )
        for label, values in (
            ("sim_sojourn_p95_s", self.sojourns),
            ("sim_max_lag_s", self.max_lags),
        ):
            if values:
                print(
                    f"{label} = {statistics.median(values):.6f} s "
                    f"(simulated; median over {len(values)} cells)"
                )


class HostSpeed:
    """Per-round factors that rescale host times to the nominal host."""

    def __init__(self) -> None:
        self.previous = reference_samples(REFERENCE_MIN_REPEATS)
        #: median kernel pass around each round, in seconds
        self.references: list[float] = []

    def scale(self, wall: float) -> float:
        """The factor for a round of ``wall`` host seconds just run.

        Samples the kernel for about 2% of the round; the round is
        scaled by the passes just before and just after it.
        """
        repeats = round(REFERENCE_SHARE * wall / NOMINAL_REFERENCE_S)
        samples = reference_samples(max(REFERENCE_MIN_REPEATS, repeats))
        self.references.append(statistics.median(self.previous + samples))
        self.previous = samples
        return NOMINAL_REFERENCE_S / self.references[-1]


def measure(workload: str, seed: int, seconds: float, first: list) -> dict:
    """The untraced run: end-to-end metrics."""
    from perfbench.cells import Digest, run_cell
    from perfbench.workloads import round_cells

    tally = Tally()
    digest = Digest()
    cells = first
    deadline = clock() + seconds
    round_index = 0
    host = HostSpeed()
    while True:
        outcomes = [run_cell(scenario) for scenario in cells]
        scale = host.scale(sum(o.wall_s for o in outcomes))
        if round_index == 0:
            for outcome in outcomes:
                digest.add(outcome)
        tally.add_round(outcomes, scale)
        round_index += 1
        if clock() >= deadline:
            break
        cells = round_cells(workload, seed, round_index)
    print(f"digest round 0: {digest.line()}")
    print(
        f"rounds = {round_index}, cells = {tally.attempted} "
        f"(cell percentiles over {tally.attempted} samples)"
    )
    tally.report()
    print(
        f"reference kernel = {statistics.median(host.references) * 1e3:.4f} ms, "
        f"median over rounds (nominal {NOMINAL_REFERENCE_S * 1e3:g} ms); "
        f"unscaled: events_per_s = "
        f"{statistics.median(tally.raw_round_rates):.6g} 1/s, "
        f"wall_s = {statistics.fmean(tally.raw_round_walls):.6g} s"
    )
    # wall_s is a mean: the median of round sums moves with how a seed
    # happens to group its slow cells into rounds
    return {
        "tally": tally,
        "metrics": {
            "events_per_s": (statistics.median(tally.round_rates), "1/s"),
            "wall_s": (statistics.fmean(tally.round_walls), "s"),
            "cell_p50_ms": (percentile(tally.cell_walls, 50) * 1e3, "ms"),
            "cell_p90_ms": (percentile(tally.cell_walls, 90) * 1e3, "ms"),
        },
    }


#: what a traced cell must reproduce from its untraced run
FINGERPRINT = ("events", "context_switches", "services", "problems")


def measure_traced(workload: str, seed: int, seconds: float, first: list) -> dict:
    """The traced run: each cell untraced, then traced; per-layer split.

    Each round gets a fresh tracer, so its span constants are
    calibrated at the host speed of that round. Layer times are
    rescaled round by round, as in :func:`measure`.
    """
    from perfbench.cells import Digest, run_cell
    from perfbench.tracer import LayerTracer
    from perfbench.workloads import round_cells

    tally = Tally()
    digests = (Digest(), Digest())
    mismatches = []
    #: name -> rescaled seconds, from :meth:`LayerTracer.times`
    scaled: Counter = Counter()
    counts: Counter = Counter()
    constants = []
    untraced_wall = 0.0
    cells = first
    deadline = clock() + seconds
    round_index = 0
    host = HostSpeed()
    while True:
        tracer = LayerTracer()
        constants.append(tracer.constants)
        outcomes = []
        plain_wall = 0.0
        for scenario in cells:
            plain = run_cell(scenario)
            traced = run_cell(scenario, tracer.run_cell)
            plain_wall += plain.wall_s
            if round_index == 0:
                digests[0].add(plain)
                digests[1].add(traced)
            if any(getattr(plain, k) != getattr(traced, k) for k in FINGERPRINT):
                mismatches.append(scenario.name)
                print(f"MISMATCH {scenario.name}: traced run simulated differently")
            outcomes.append(traced)
        times = tracer.times()
        scale = host.scale(plain_wall + times["wall"])
        for name, value in times.items():
            scaled[name] += value * scale
        counts.update(tracer.counters())
        untraced_wall += plain_wall * scale
        tally.add_round(outcomes, scale)
        round_index += 1
        if clock() >= deadline:
            break
        cells = round_cells(workload, seed, round_index)
    print(f"digest round 0 untraced: {digests[0].line()}")
    print(f"digest round 0 traced:   {digests[1].line()}")
    print(
        f"rounds = {round_index}, traced cells = {tally.attempted}"
    )
    for kind in constants[0]:
        leak = statistics.median(c[kind][0] for c in constants)
        inner = statistics.median(c[kind][1] for c in constants)
        print(
            f"span constants {kind}: leak {leak * 1e9:.1f} ns, "
            f"inner {inner * 1e9:.1f} ns (median over rounds)"
        )
    tally.report()
    return {
        "tally": tally,
        "mismatches": mismatches,
        "metrics": layer_metrics(scaled, counts, untraced_wall, tally),
    }


#: canned metrics the workloads ask ``summarize`` for
RESULT_METRICS = ("sojourn_p95_censored", "max_lag", "jains", "shares")


def layer_metrics(
    scaled: Counter, counts: Counter, untraced_wall: float, tally: Tally
) -> dict:
    """Per-layer metrics of a traced run, as ``name -> (value, unit)``.

    ``scaled`` holds the tracers' times rescaled to the nominal host,
    ``counts`` their summed :meth:`~perfbench.tracer.LayerTracer.counters`.
    """
    from perfbench.tracer import LAYERS, SCHEDULER_COUNTERS

    picks = counts["sim.scheduler.pick.calls"]
    scheduled = counts["sim.engine.events_scheduled"]
    metrics = {
        "scenario.build_s": (scaled["scenario.build"], "s"),
        "scenario.tasks_built": (counts["scenario.tasks_built"], "count"),
        "sim.engine.self_s": (scaled["sim.engine"], "s"),
        "sim.engine.events_scheduled": (scheduled, "count"),
        "sim.engine.events_fired": (counts["sim.engine.events_fired"], "count"),
        "sim.engine.fired_ratio": (
            counts["sim.engine.events_fired"] / scheduled if scheduled else 0.0,
            "ratio",
        ),
        "sim.engine.batches": (counts["sim.engine.batches"], "count"),
        "sim.machine.self_s": (scaled["sim.machine"], "s"),
        "sim.machine.dispatches": (counts["sim.machine.dispatches"], "count"),
        "sim.machine.context_switches": (
            counts["sim.machine.context_switches"],
            "count",
        ),
        "sim.machine.preemptions": (counts["sim.machine.preemptions"], "count"),
        "sim.scheduler.pick.calls": (picks, "count"),
        "sim.scheduler.pick.self_s": (scaled["sim.scheduler.pick"], "s"),
        "sim.scheduler.pick.runnable_mean": (
            counts["sim.scheduler.pick.runnable_total"] / picks if picks else 0.0,
            "tasks",
        ),
        "sim.scheduler.update.calls": (counts["sim.scheduler.update.calls"], "count"),
        "sim.scheduler.update.self_s": (scaled["sim.scheduler.update"], "s"),
        "sim.scheduler.weight.calls": (counts["sim.scheduler.weight.calls"], "count"),
        "sim.scheduler.weight.self_s": (scaled["sim.scheduler.weight"], "s"),
    }
    for name in SCHEDULER_COUNTERS:
        metrics[name] = (counts[name], "count")
    metrics.update(
        {
            "analysis.audit.stream_s": (scaled["analysis.audit.stream"], "s"),
            "analysis.audit.finalize_s": (scaled["analysis.audit.finalize"], "s"),
            "analysis.audit.events_replayed": (
                counts["analysis.audit.events_replayed"],
                "count",
            ),
            "analysis.audit.violations": (
                counts["analysis.audit.violations"],
                "count",
            ),
            "analysis.audit.flagged_cells": (tally.flagged, "count"),
            "scenario.result.finalize_s": (scaled["scenario.result"], "s"),
        }
    )
    for name in RESULT_METRICS:
        metrics[f"scenario.result.{name}_s"] = (scaled[f"metric.{name}"], "s")
    wall = scaled["wall"]
    metrics.update(
        {
            "scenario.result.gms_advances": (
                counts["scenario.result.gms_advances"],
                "count",
            ),
            "trace.wall_s": (wall, "s"),
            "trace.unattributed_s": (
                wall - sum(scaled[layer] for layer in LAYERS),
                "s",
            ),
            "trace.overhead_ratio": (wall / untraced_wall - 1.0, "ratio"),
            "trace.layer_excess_ratio": (
                sum(scaled[layer] for layer in LAYERS) / untraced_wall - 1.0,
                "ratio",
            ),
        }
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        start = clock()
        setup(args.workload, args.seed)
        elapsed = clock() - start
        reference = statistics.median(reference_samples(REFERENCE_MIN_REPEATS))
        print(elapsed * NOMINAL_REFERENCE_S / reference)
        return 0

    first = setup(args.workload, args.seed)
    from repro.sim.engine import build_info
    from perfbench.workloads import WORKLOADS

    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"engine={build_info()['engine']} round=({WORKLOADS[args.workload]})"
    )
    if args.trace:
        run = measure_traced(args.workload, args.seed, args.seconds, first)
        failed = run["tally"].failed + len(run["mismatches"])
    else:
        setup_samples = probe_setup_s(args.workload, args.seed)
        run = measure(args.workload, args.seed, args.seconds, first)
        run["metrics"]["setup_s"] = (statistics.median(setup_samples), "s")
        run["metrics"]["peak_rss_mb"] = (peak_rss_mb(), "MB")
        failed = run["tally"].failed
    metrics = run["metrics"]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run["tally"].attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
