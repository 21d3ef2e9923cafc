"""Injection-campaign benchmark: one workload, one run, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload seu-memsys --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  The last line
of standard output is the result object; the lines before it are the
same numbers for a person, with units and sample counts.  Times are
scaled to a reference host speed by calibration probes taken next to
them (``spans.calibrate``).  The exit code is 0 only when every
correctness check passed.

``--seed`` is the workload seed: it sets the order the cells of each
pass after the first run in.  The campaign itself -- the experiment
specs, hence the injections -- comes from ``--campaign-seed`` (default
2015, the seed whose per-cell digests ``digests.json`` records);
README.md says why.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: cold platform builds in set-up; ``setup_s`` is their median
SETUP_BUILDS = 9
#: calibration probes before, and again after, each set-up build (and
#: each pass of the traced run)
SETUP_PROBES = 20
#: the tail latency is the highest one with this many injections beyond it
TAIL_BEYOND = 10
#: the traced run fails below this share of campaign wall time
MIN_COVERAGE = 0.95


def _import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import repro from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not this checkout")


class Clock:
    """Sums the host time spent inside :meth:`timing` blocks."""

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextmanager
    def timing(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds += time.perf_counter() - t0


def more_passes(pass_seconds: list[float], min_passes: int, seconds: float) -> bool:
    """Whether to start another pass: until ``min_passes`` are done, then
    while one more pass of median length still ends within ``seconds``."""
    if len(pass_seconds) < min_passes:
        return True
    return sum(pass_seconds) + statistics.median(pass_seconds) <= seconds


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (``VmHWM``) for this process."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak RSS since the last :func:`reset_peak_rss`, in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def set_up(campaign_seed: int):
    """Build the ``fft`` platform ``SETUP_BUILDS`` times, cold.

    Returns ``(seconds, speed factor)`` per build -- the factor from
    calibration probes taken just before and after it -- and the session holding
    the last build.  The discarded builds are collected before
    returning, so their garbage does not linger into the measured
    passes.
    """
    from repro.api import Session
    from spans import calibrate, speed_factor
    from suite import setup_spec

    spec = setup_spec(campaign_seed)
    builds = []
    for _ in range(SETUP_BUILDS):
        probes = [calibrate() for _ in range(SETUP_PROBES)]
        session = Session()
        t0 = time.perf_counter()
        session.platform(spec)
        seconds = time.perf_counter() - t0
        probes += [calibrate() for _ in range(SETUP_PROBES)]
        builds.append((seconds, speed_factor(probes)))
    gc.collect()
    return builds, session


def warm_up(workload, session, cells) -> None:
    """Fill lazy per-component caches before anything is timed."""
    if workload.kind == "warm":
        for spec in {(s.component, s.fault): s for s in cells}.values():
            session.run(spec.with_(n=1))


def one_pass(workload, session, order, gate, out_dir, clock):
    import suite

    if workload.kind == "warm":
        suite.run_warm_pass(session, order, gate, clock.timing)
    else:
        suite.run_sweep_pass(order, gate, str(out_dir), clock.timing)


def measure(args, workload, gate, out_dir) -> tuple[dict, list[str]]:
    """The untraced run: end-to-end metrics."""
    import suite
    from spans import LatencyProbe, speed_factor

    cells = workload.cells(args.campaign_seed)
    builds, session = set_up(args.campaign_seed)
    warm_up(workload, session, cells)
    rng = random.Random(args.seed)
    pass_seconds: list[float] = []
    probe = LatencyProbe()
    reset_peak_rss()
    with probe.installed():
        while more_passes(pass_seconds, workload.min_passes, args.seconds):
            order = suite.pass_order(cells, rng, len(pass_seconds))
            clock = Clock()
            probe.next_pass()
            one_pass(workload, session, order, gate, out_dir, clock)
            if not pass_seconds:
                first_pass_rss = peak_rss_mb()
            pass_seconds.append(clock.seconds)
    # every time is scaled to the reference host by the calibration
    # probes taken next to it; rates are then medians over passes, and
    # each injection's latency is the median of its repeats
    per_pass = sum(s.n for s in cells)
    scaled_passes = [
        (seconds - sum(probes)) * speed_factor(probes)
        for seconds, probes in zip(pass_seconds, probe.probes)
    ]
    pass_s = statistics.median(scaled_passes)
    latencies = sorted(probe.latencies())
    tail = latencies[-TAIL_BEYOND - 1]
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in builds), "s"),
        "inj_per_s": (per_pass / pass_s, "1/s"),
        "inj_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "inj_tail_ms": (tail * 1000.0, "ms"),
        "cells_per_s": (len(cells) / pass_s, "1/s"),
        "peak_rss_mb": (first_pass_rss, "MB"),
    }
    n = len(latencies)
    passes = f"median of {len(pass_seconds)} passes"
    unscaled = per_pass / statistics.median(
        seconds - sum(probes) for seconds, probes in zip(pass_seconds, probe.probes)
    )
    factors = [speed_factor(p) for p in probe.probes]
    notes = {
        "setup_s": f"median of {len(builds)} cold builds; unscaled "
                   f"{statistics.median(t for t, _ in builds):.4f}",
        "inj_per_s": f"{per_pass} runs a pass, {passes}; unscaled {unscaled:.4f}",
        "inj_p50_ms": f"N={n} injections, each the median of {len(pass_seconds)} repeats",
        "inj_tail_ms": f"p{100 * (n - TAIL_BEYOND) / n:.1f}, N={n}, {TAIL_BEYOND} beyond",
        "cells_per_s": f"{len(cells)} cells a pass, {passes}",
        "peak_rss_mb": "VmHWM over the first pass",
    }
    lines = [f"  {k:<12} {v:>12.4f} {u:<4} ({notes[k]})" for k, (v, u) in metrics.items()]
    lines.append(
        f"  host speed factor per pass {min(factors):.3f}-{max(factors):.3f} "
        f"(times are scaled to the reference host by it)"
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def measure_traced(args, workload, gate, out_dir) -> tuple[dict, list[str]]:
    """The traced run: the untraced set-up, one traced cold build, then
    one traced pass with untraced passes around it for the tracing
    overhead.  Each pass time is scaled by calibration probes taken just
    before and after it; the unscaled set-up and injection rate are
    reported too, as ``host.*``."""
    import suite
    from repro.api import Session
    from spans import Tracer, calibrate, layer_metrics, self_times, speed_factor

    cells = workload.cells(args.campaign_seed)
    builds, session = set_up(args.campaign_seed)
    tracer = Tracer()
    with tracer.installed():
        Session().platform(suite.setup_spec(args.campaign_seed))
    gc.collect()
    warm_up(workload, session, cells)
    rng = random.Random(args.seed)
    untraced: list[float] = []
    raw: list[float] = []
    factors: list[float] = []
    traced = 0.0
    passes = 0
    while passes < 2 or more_passes(untraced + [traced], 2, args.seconds):
        order = suite.pass_order(cells, rng, passes)
        passes += 1
        clock = Clock()
        probes = [calibrate() for _ in range(SETUP_PROBES)]
        if passes == 2:
            with tracer.installed():
                one_pass(workload, session, order, gate, out_dir, clock)
        else:
            one_pass(workload, session, order, gate, out_dir, clock)
        probes += [calibrate() for _ in range(SETUP_PROBES)]
        factors.append(speed_factor(probes))
        scaled = clock.seconds * factors[-1]
        if passes == 2:
            traced = scaled
        else:
            untraced.append(scaled)
            raw.append(clock.seconds)
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead"] = traced / statistics.median(untraced) - 1.0
    metrics["host.setup_raw_s"] = statistics.median(t for t, _ in builds)
    metrics["host.inj_per_s_raw"] = sum(s.n for s in cells) / statistics.median(raw)
    metrics["host.speed_factor"] = statistics.median(factors)
    if workload.kind == "warm":
        gate.check_run(
            metrics["mixedmode.coverage"] >= MIN_COVERAGE,
            f"phases cover {metrics['mixedmode.coverage']:.1%} of campaign "
            f"time (< {MIN_COVERAGE:.0%})",
        )
    tracer.write(out_dir / f"spans-{workload.name}-{args.seed}.jsonl")
    units = _per_layer_units()
    lines = [
        f"  {k:<30} {v:>14.4f} {units.get(k, '')}"
        f"{'' if k in units else '(printed only: 0 on every workload)'}"
        for k, v in metrics.items()
    ]
    lines.append("  self time by span (s):")
    for name, seconds in sorted(self_times(tracer.spans).items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:<28} {seconds:>10.4f}")
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, lines


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def record(workload_name: str, seen: dict[str, str]) -> None:
    """Store the per-cell digests of the default campaign seed."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload_name] = dict(sorted(seen.items()))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--campaign-seed", type=int, default=None,
        help="experiment-spec seed (default 2015; 7 is the held-out seed)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="write this run's per-cell digests to digests.json "
             "(default campaign seed only)",
    )
    args = parser.parse_args(argv)
    _import_program()
    import spans
    import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(suite.WORKLOADS)}")
    if args.campaign_seed is None:
        args.campaign_seed = suite.DEFAULT_CAMPAIGN_SEED
    default_seed = args.campaign_seed == suite.DEFAULT_CAMPAIGN_SEED
    if args.record and not default_seed:
        parser.error("--record only records the default campaign seed")
    workload = suite.WORKLOADS[args.workload]
    recorded = None
    if default_seed and not args.record:
        recorded = json.loads(DIGESTS.read_text()).get(workload.name)
        if recorded is None:
            raise SystemExit(f"perfbench: no recorded digests for {workload.name}")
    gate = suite.Gate(recorded)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    run = measure_traced if args.trace else measure
    metrics, lines = run(args, workload, gate, out_dir)
    gate.check_run(
        not spans.PROBE_PROBLEMS,
        "host-speed probes not trustworthy: " + "; ".join(sorted(spans.PROBE_PROBLEMS)),
    )
    correct = gate.failed == 0
    print(
        f"workload {workload.name}  campaign-seed {args.campaign_seed}  "
        f"seed {args.seed}  trace {args.trace}"
        f"{'' if recorded else '  (no recorded digests for this campaign seed)'}"
    )
    for line in lines:
        print(line)
    for (component, benchmark), why in suite.KNOWN_QRR_DEFECTS.items():
        recovered, runs = gate.known_defects.get((component, benchmark), (0, 0))
        here = f"recovered {recovered}/{runs} runs" if runs else "not in this workload"
        print(
            f"  known defect, recovery not gated: qrr {component} {benchmark} "
            f"{here} -- {why}"
        )
    print(
        f"  fail_rate    {gate.failed / gate.attempted:>12.4f}      "
        f"({gate.failed}/{gate.attempted} cells)"
    )
    for message in gate.messages:
        print(f"  FAIL {message}")
    if args.record and correct:
        record(workload.name, gate.seen)
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
