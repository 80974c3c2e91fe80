"""Closed-loop measurement of one workload: one process, one thread, one
client.  The next bundle starts when the previous one ends.

``measure`` times untraced bundles and gives the end-to-end metrics;
``measure_traced`` alternates untraced and traced bundles and gives the
per-layer metrics, the tracing overhead and the spans.

The end-to-end timings are scaled to a fixed host speed.  On a shared host
the speed of a core swings by half or more, over spans from a few
milliseconds to minutes, and Python code of every kind slows down by about
the same factor.  So while ``measure`` times a command (or a set-up), a
SIGALRM handler runs a fixed calibration kernel every
``SAMPLE_INTERVAL_S``, and the kernel also runs just before and just after.
The command's wall time, less the time spent in the handler, is scaled by
``REFERENCE_CALIBRATION_S`` over the mean kernel time: the time the
command would take on a host where the kernel takes
``REFERENCE_CALIBRATION_S``.  The kernel is benchmark code, so no change to
``ordist`` moves it.
"""

from __future__ import annotations

import math
import resource
import signal
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from ordist import cli

from tracing import Tracer, per_bundle, per_layer_metrics
from workloads import Command

Setup = Callable[[Path, int, dict], list[Command]]

SETUP_REPS = 3
WARMUP_BUNDLES = 2
SAMPLE_INTERVAL_S = 0.02
# About what host_calibration() takes at the fast level of the 2-vCPU host the
# baseline in README.md was measured on.
REFERENCE_CALIBRATION_S = 0.001


def host_calibration() -> float:
    """Seconds a fixed mix of Fraction, int and list work takes now."""
    start = perf_counter()
    total = Fraction(0)
    rows = []
    for i in range(1, 430):
        total += Fraction(i % 17 + 1, i % 13 + 2)
        rows.append(total.numerator * i // (total.denominator + 1))
    rows.sort()
    return perf_counter() - start


def timed(fn: Callable[[], object], scaled: bool) -> tuple[object, float]:
    """``fn()`` and its wall time in seconds, or with ``scaled`` its time at
    the reference host speed, sampled as the module docstring says."""
    if not scaled:
        start = perf_counter()
        result = fn()
        return result, perf_counter() - start
    samples = [host_calibration()]
    in_handler = 0.0

    def sample(signum, frame) -> None:
        nonlocal in_handler
        took = host_calibration()
        samples.append(took)
        in_handler += took

    previous = signal.signal(signal.SIGALRM, sample)
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        took = perf_counter() - start - in_handler
        signal.signal(signal.SIGALRM, previous)
    samples.append(host_calibration())
    return result, took * REFERENCE_CALIBRATION_S / statistics.fmean(samples)


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def run_bundle(
    commands: list[Command], out: Outcome, tracer: Tracer | None = None, scaled: bool = False,
) -> float:
    """Run each command once through ``cli.run``, check it, and count the
    attempts and failures in ``out``.

    Returns the summed command time in seconds, checks and replays
    excluded; with ``scaled``, at the reference host speed.  With a tracer,
    each command's replay runs after it under its own span.
    """
    elapsed = 0.0
    failures = out.failures
    for command in commands:
        out.attempted += 1
        if command.output is not None:
            command.output.unlink(missing_ok=True)

        def attempt(argv=list(command.argv)):
            try:
                return cli.run(argv), None
            except Exception as exc:  # a crash is a failed command; keep measuring
                return None, f"{type(exc).__name__}: {exc}"

        (outcome, reason), took = timed(attempt, scaled)
        elapsed += took
        if outcome is not None:
            reason = command.check(outcome)
        if reason is not None:
            failures.append(f"{' '.join(command.argv[:2])}: {reason}")
        if tracer is not None and command.replay is not None:
            out.attempted += 1
            try:
                with tracer.span(f"replay.{command.argv[0]}_probe"):
                    reason = command.replay()
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append(f"{command.argv[0]} {reason}")
    return elapsed


def tail_percentile(samples: list[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), its value and the number of samples beyond it.  Below
    eleven samples no percentile qualifies and the median stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(50, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def _setup(setup: Setup, work: Path, seed: int, size: dict, scaled: bool) -> tuple[list[Command], float]:
    work.mkdir(parents=True)
    return timed(lambda: setup(work, seed, size), scaled)


def measure(setup: Setup, seed: int, seconds: float, size: dict, work_root: Path) -> Outcome:
    setup_times = []
    for rep in range(SETUP_REPS):
        commands, took = _setup(setup, work_root / f"setup{rep}", seed, size, scaled=True)
        setup_times.append(took)
    out = Outcome()
    for _ in range(WARMUP_BUNDLES):
        run_bundle(commands, out)
    latencies = []
    t0 = perf_counter()
    while not latencies or perf_counter() - t0 < seconds:
        latencies.append(run_bundle(commands, out, scaled=True))
    window = perf_counter() - t0
    pct, tail, beyond = tail_percentile(latencies)
    out.metrics = {
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    out.notes = [
        f"timings scaled to a host where the calibration kernel takes "
        f"{REFERENCE_CALIBRATION_S * 1e3:g} ms; unscaled: {len(latencies)} bundles "
        f"in {window:.3f} s of wall clock, checks and calibrations included",
        f"latency_tail_ms is p{pct}: {len(latencies)} bundles, {beyond} beyond it",
        f"setup_s is the median of {SETUP_REPS} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"warm-up: {WARMUP_BUNDLES} bundles of {len(commands)} commands, untimed",
    ]
    return out


def measure_traced(setup: Setup, seed: int, seconds: float, size: dict, work_root: Path) -> Outcome:
    tracer = Tracer()
    tracer.install()
    try:
        commands, _ = _setup(setup, work_root / "setup0", seed, size, scaled=False)
    finally:
        tracer.remove()
    setup = per_bundle(tracer, range(len(tracer.spans)))
    tracer.kept.clear()
    out = Outcome(tracer=tracer)
    for _ in range(WARMUP_BUNDLES):
        run_bundle(commands, out)
    untraced_ms, traced_ms, bundles = [], [], []
    t0 = perf_counter()
    while not bundles or perf_counter() - t0 < seconds:
        untraced_ms.append(run_bundle(commands, out) * 1e3)
        tracer.bundle += 1
        first = len(tracer.spans)
        tracer.install()
        try:
            traced_ms.append(run_bundle(commands, out, tracer) * 1e3)
        finally:
            tracer.remove()
        # aggregate now and drop the kept results, so the heap (and the
        # garbage collector's work) does not grow from bundle to bundle
        bundles.append(per_bundle(tracer, range(first, len(tracer.spans))))
        tracer.kept.clear()
    out.metrics = per_layer_metrics(bundles, setup, traced_ms, untraced_ms)
    out.notes = breakdown(bundles, traced_ms, untraced_ms)
    return out


def breakdown(bundles: list[dict[str, float]], traced_ms: list[float], untraced_ms: list[float]) -> list[str]:
    """Per-span table of the traced bundles (means per bundle), the derived
    rows with the parents they come from, and the check that self times
    under ``cli.run`` add up to it."""

    def mean(key: str) -> float:
        return statistics.fmean(b.get(key, 0.0) for b in bundles)

    names = sorted({k[:-len(".incl_ms")] for b in bundles for k in b if k.endswith(".incl_ms")},
                   key=lambda name: -mean(f"{name}.self_ms"))
    lines = [f"{'span (mean per traced bundle)':36} {'calls':>7} {'incl_ms':>10} {'self_ms':>10}"]
    for name in names:
        lines.append(f"{name:36} {mean(name + '.calls'):7.1f} "
                     f"{mean(name + '.incl_ms'):10.3f} {mean(name + '.self_ms'):10.3f}")
    eq1 = mean("order.order_distance_eq1.incl_ms")
    circ = mean("circular.order_distance_circular.incl_ms")
    orderly = mean("flatlab.orderly_test.incl_ms")
    probes = mean("flatlab.per_probe.calls")
    lines += [
        f"derived order.eq1_accumulate {mean('order.eq1_accumulate.self_ms'):.3f} ms"
        f" = order_distance_eq1 {eq1:.3f} - its midpath_split_system children",
        f"derived circular.arcs_table {mean('circular.arcs_table.self_ms'):.3f} ms"
        f" = order_distance_circular {circ:.3f} - its recovery and comparison_rows children",
        f"derived flatlab.per_probe {mean('flatlab.per_probe.self_ms'):.3f} ms x {probes:.0f} probes"
        f" = orderly_test {orderly:.3f} - replayed is_linearly_independent"
        f" {mean('flatlab.solver_setup_ms'):.3f}",
        f"self times under cli.run sum to {mean('cli.run.tree_self_ms'):.3f} ms;"
        f" cli.run inclusive {mean('cli.run.incl_ms'):.3f} ms",
    ]
    traced, untraced = statistics.median(traced_ms), statistics.median(untraced_ms)
    lines.append(f"traced bundle p50 {traced:.3f} ms against untraced {untraced:.3f} ms:"
                 f" tracing overhead {(traced / untraced - 1) * 100:+.2f}%")
    return lines
