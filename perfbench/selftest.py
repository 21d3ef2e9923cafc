"""Tiny-size self-test of the benchmark.

Usage (from the root of a checkout; a few seconds)::

    python3 perfbench/selftest.py

Runs every workload's cells at a 2-core geometry and a tiny scale, and
checks that the gate passes good results and fails each kind of bad
one (known-defect QRR cells are counted, not gated on recovery), that
the tracer accounts for an injection's time and puts every patched entry
point back, that a host-speed probe taken beside a second thread is
flagged, and that ``run.py`` exits non-zero without a result line in a
directory holding only the benchmark's own files.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import tempfile
import threading
from contextlib import nullcontext
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.api import DEFAULT_MACHINE, ExperimentResult, Session  # noqa: E402
from repro.mixedmode.platform import MixedModePlatform  # noqa: E402
from repro.system.machine import Machine  # noqa: E402

import run  # noqa: E402
import suite  # noqa: E402
import spans  # noqa: E402
from spans import LatencyProbe, Tracer, layer_metrics  # noqa: E402

TINY = dataclasses.replace(DEFAULT_MACHINE, cores=2, threads_per_core=2)
SCALE = 2e-5


def tiny(specs):
    return [s.with_(machine=TINY, scale=SCALE, n=2) for s in specs]


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def test_warm_pass_and_gate() -> None:
    cells = tiny(suite.WORKLOADS["seu-memsys"].cells(2015))
    session = Session()
    gate = suite.Gate(None)
    for _ in range(2):
        suite.run_warm_pass(session, cells, gate, nullcontext)
    check(gate.failed == 0 and gate.attempted == 4, "warm passes repeat byte-identically")

    recorded = dict(gate.seen)
    bad_label = cells[0].label()
    recorded[bad_label] = "0" * 64
    strict = suite.Gate(recorded)
    suite.run_warm_pass(session, cells, strict, nullcontext)
    check(
        strict.failed == 1 and strict.messages[0].startswith(bad_label),
        "a digest differing from the recorded one fails its cell",
    )

    result = session.run(cells[1])
    short = ExperimentResult(result.spec, result.records[:-1], result.golden_cycles)
    check(not suite.Gate(None).check_result(short), "a missing record fails the cell")
    unclassified = ExperimentResult.from_dict(result.to_dict())
    unclassified.records[0].outcome = None
    unclassified.records[0].persistent = False
    check(
        not suite.Gate(None).check_result(unclassified),
        "an injection run with no outcome fails the cell",
    )


def test_sweep_pass() -> None:
    specs = suite.WORKLOADS["fig3-sweep"].cells(2015)
    # one cell per (mode, component): l2c/mcu/ccx/pcie and both QRR kinds
    picked = {}
    for spec in specs:
        if spec.component == "pcie" or spec.benchmark == "fft":
            picked.setdefault((spec.mode, spec.component), spec)
    cells = tiny(picked.values())
    gate = suite.Gate(None)
    scratch = tempfile.mkdtemp(dir=HERE / "out")
    try:
        suite.run_sweep_pass(cells, gate, scratch, nullcontext)
    finally:
        shutil.rmtree(scratch)
    check(
        gate.failed == 0 and gate.attempted == len(cells) == 6,
        "cold sweep and warm re-run from the bus agree, QRR runs recover",
    )
    qrr = Session().run(next(c for c in cells if c.mode == "qrr"))
    qrr.records[0].recovered = False
    check(not suite.Gate(None).check_result(qrr), "an unrecovered QRR run fails the cell")
    component, benchmark = next(iter(suite.KNOWN_QRR_DEFECTS))
    known = Session().run(qrr.spec.with_(component=component, benchmark=benchmark))
    known.records[0].recovered = False
    gate = suite.Gate(None)
    check(
        gate.check_result(known) and gate.known_defects[component, benchmark] == (1, 2),
        "a known-defect QRR cell is counted, not gated on recovery",
    )
    gate.check_identical("x", "a", "b")
    check(gate.failed == 1, "a warm re-run that differs fails the cell")


def test_tracer() -> None:
    originals = (MixedModePlatform.run_injection, Machine.run, _make_adapter())
    cells = tiny(suite.WORKLOADS["sram-handover"].cells(2015)) + tiny(
        suite.WORKLOADS["seu-memsys"].cells(2015)
    )
    session = Session()
    tracer = Tracer()
    with tracer.installed():
        gate = suite.Gate(None)
        suite.run_warm_pass(session, cells, gate, nullcontext)
    metrics = layer_metrics(tracer.spans)
    ended = sum(v for k, v in metrics.items() if k.startswith("cosim.ended."))
    check(
        gate.failed == 0 and gate.attempted == len(cells) and ended == 6,
        "every traced injection is gated and classified once",
    )
    check(metrics["mixedmode.coverage"] >= run.MIN_COVERAGE, "phases cover the campaign time")
    check(metrics["workloads.build_s"] > 0 and metrics["system.golden_s"] > 0,
          "the platform build is traced")
    check(
        (MixedModePlatform.run_injection, Machine.run, _make_adapter()) == originals,
        "the tracer puts every entry point back",
    )
    probe = LatencyProbe()
    with probe.installed():
        for _ in range(3):
            probe.next_pass()
            session.run(cells[-1])
    check(
        len(probe.latencies()) == 2
        and [len(p) for p in probe.probes] == [4 * LatencyProbe.PROBES] * 3,
        "the latency probe keys each injection and probes around each run",
    )


def test_probe_conditions() -> None:
    spans.PROBE_PROBLEMS.clear()
    spans.calibrate()
    check(not spans.PROBE_PROBLEMS, "a single-threaded, hook-free probe is trusted")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        spans.calibrate()
    finally:
        stop.set()
        thread.join()
    check(bool(spans.PROBE_PROBLEMS), "a probe taken beside a second thread is flagged")
    spans.PROBE_PROBLEMS.clear()


def _make_adapter():
    """What ``platform.py`` currently resolves ``make_adapter`` to."""
    from repro.mixedmode import platform

    return platform.make_adapter


def test_bare_directory() -> None:
    bare = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "seu-memsys",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    check(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        "without the program, run.py fails and prints no result",
    )


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    test_warm_pass_and_gate()
    test_sweep_pass()
    test_tracer()
    test_probe_conditions()
    test_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
