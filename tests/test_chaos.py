"""Chaos scenarios against the execution fabric: real process kills,
frozen workers, corrupted bus bytes, and lossy protocol transports.

Every scenario ends on the same two assertions the resilience layer
exists to defend: the surviving (or resumed) sweep is byte-identical to
an uninterrupted serial run, and the progress/journal accounting stays
coherent.  See :mod:`repro.resilience.chaos` for the fault toolkit.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import (
    CachingExecutor,
    Grid,
    ParallelExecutor,
    SerialExecutor,
    dumps_canonical,
    result_cache_path,
)
from repro.cli import main
from repro.cluster import ClusterExecutor, LocalLauncher
from repro.obs import ProgressState
from repro.resilience import RetryPolicy, SweepJournal
from repro.resilience.chaos import (
    ChaosLauncher,
    LineChaos,
    corrupt_entry,
    sigcont,
    sigkill,
    sigstop,
    truncate_entry,
    wait_for,
)
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8)

#: Enough per-cell wall time (~0.3s at n=8) that a fault injected at
#: ``cell_start`` always lands while the cell is still running.
GRID = Grid(
    components=("l2c", "mcu", "ccx"),
    benchmarks=("fft", "radi"),
    seeds=(2015,),
    mode="injection",
    n=8,
    machine=CFG,
    scale=5e-6,
)

#: per-cell deadline as a multiple of the slowest cell's cold serial time
DEADLINE_FACTOR = 5


def _blobs(results):
    return [dumps_canonical(r.to_dict()) for r in results]


@pytest.fixture(scope="module")
def serial_run():
    """Each GRID cell through a fresh serial executor, as a worker runs
    it cold: the canonical bytes, and the slowest cell's wall time."""
    blobs, slowest = [], 0.0
    for spec in GRID.specs():
        t0 = time.perf_counter()
        blobs += _blobs(SerialExecutor().run([spec]))
        slowest = max(slowest, time.perf_counter() - t0)
    return blobs, slowest


@pytest.fixture(scope="module")
def serial_baseline(serial_run):
    return serial_run[0]


@pytest.fixture(scope="module")
def deadline_retry(serial_run):
    """Zero backoff so recovery paths never sleep.  The deadline is
    measured on this host, under its current load, so healthy cells
    never trip it however loaded the host is."""
    return RetryPolicy(
        max_attempts=5,
        backoff_base=0.0,
        cell_timeout=round(DEADLINE_FACTOR * serial_run[1], 3),
    )


# ----------------------------------------------------------------------
# coordinator SIGKILL -> --resume (the full CLI journal loop)
# ----------------------------------------------------------------------
SWEEP_ARGS = [
    "sweep",
    "--components", "l2c", "mcu", "ccx",
    "--benchmarks", "fft", "radi",
    "--n", "8",
    "--cores", "2", "--threads-per-core", "2", "--scale", "5e-6",
]


def test_coordinator_sigkill_then_resume_is_byte_identical(
    tmp_path, capsys
):
    baseline_file = tmp_path / "baseline.json"
    assert main([*SWEEP_ARGS, "--json", str(baseline_file)]) == 0
    baseline = json.loads(baseline_file.read_text())
    total = len(baseline["results"])
    capsys.readouterr()

    journal_dir = tmp_path / "journal"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", *SWEEP_ARGS,
            "--journal", str(journal_dir),
            "--json", str(tmp_path / "never-written.json"),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )

    def landed() -> int:
        try:
            return SweepJournal.load(journal_dir).counts()["landed"]
        except (FileNotFoundError, ValueError):
            return 0

    try:
        # journal flushes are atomic renames, so polling reads are
        # always whole manifests; kill as soon as real progress landed
        assert wait_for(
            lambda: landed() >= 1 and proc.poll() is None, timeout=60.0
        ), "the journaled sweep never landed a cell"
        sigkill(proc.pid)
        proc.wait(timeout=30)
    finally:
        proc.kill()
    assert proc.returncode == -signal.SIGKILL

    survived = SweepJournal.load(journal_dir)
    landed_at_kill = survived.counts()["landed"]
    assert 1 <= landed_at_kill < total, "kill landed outside the window"
    assert survived.unlanded()  # the resume has real work to do

    resumed_file = tmp_path / "resumed.json"
    assert main(
        ["sweep", "--resume", str(journal_dir), "--json", str(resumed_file)]
    ) == 0
    out = capsys.readouterr().out
    resumed = json.loads(resumed_file.read_text())
    # byte-identity: the interrupted+resumed sweep equals the clean run
    assert resumed["results"] == baseline["results"]
    assert resumed["grid"] == baseline["grid"]
    # only unlanded cells recomputed: every landed cell replayed as a
    # bus hit (reconcile may flip cells the journal missed at kill time)
    assert "resuming journal" in out
    hits_line = next(
        line for line in out.splitlines() if "result cache" in line
    )
    hits = int(hits_line.split(":")[-1].split("hits")[0].strip())
    misses = int(hits_line.split(",")[-1].split("misses")[0].strip())
    assert hits >= landed_at_kill
    assert hits + misses == total
    assert misses == total - hits
    assert f"{total}/{total} cells landed" in out
    assert SweepJournal.load(journal_dir).unlanded() == []


# ----------------------------------------------------------------------
# frozen (SIGSTOPped) workers vs the per-cell deadline
# ----------------------------------------------------------------------
def _freeze_first_cell_start(events, frozen):
    """SIGSTOP the worker hosting the first observed cell_start: the
    'hung worker' fault -- alive, unresponsive, cell never finishing."""

    def on_event(event):
        events.append(event)
        if (
            event.get("type") == "cell_start"
            and not frozen
            and event.get("worker")
        ):
            frozen.append(event["worker"])
            sigstop(event["worker"])

    return on_event


def test_parallel_sigstopped_worker_hits_deadline_and_recovers(
    serial_baseline, deadline_retry
):
    specs = GRID.specs()
    events, frozen = [], []
    state = ProgressState(total=len(specs))
    hook = _freeze_first_cell_start(events, frozen)

    def on_event(event):
        hook(event)
        state.handle(event)

    executor = ParallelExecutor(workers=2, retry=deadline_retry)
    try:
        results = executor.run(specs, on_event=on_event)
    finally:
        for pid in frozen:
            sigcont(pid)  # no-op once the deadline SIGKILLed it
    assert frozen, "no cell_start ever reported a worker pid"
    assert _blobs(results) == serial_baseline
    timeouts = [e for e in events if e["type"] == "cell_timeout"]
    assert timeouts, "the frozen cell never tripped its deadline"
    assert timeouts[0]["worker"] == frozen[0]
    assert timeouts[0]["timeout"] == deadline_retry.cell_timeout
    report = state.report()
    assert report["done"] == len(specs)
    assert report["malformed_events"] == 0
    assert report["timeouts"] >= 1


def test_cluster_sigstopped_worker_hits_deadline_and_recovers(
    tmp_path, serial_baseline, deadline_retry
):
    specs = GRID.specs()
    events, frozen = [], []
    state = ProgressState(total=len(specs))
    hook = _freeze_first_cell_start(events, frozen)

    def on_event(event):
        hook(event)
        state.handle(event)

    executor = ClusterExecutor(
        workers=2,
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        # a frozen worker also stops heartbeating; park that detector so
        # the *deadline* path is provably what recovers the cell
        heartbeat_timeout=60.0,
        retry=deadline_retry,
    )
    try:
        results = executor.run(specs, on_event=on_event)
    finally:
        for pid in frozen:
            sigcont(pid)
    assert frozen, "no cell_start ever reported a worker pid"
    assert _blobs(results) == serial_baseline
    assert executor.last_timeouts >= 1
    timeouts = [e for e in events if e["type"] == "cell_timeout"]
    assert timeouts and timeouts[0]["worker"] == frozen[0]
    # the killed worker's cells were re-queued, not lost
    assert any(e["type"] == "cell_retry" for e in events)
    report = state.report()
    assert report["done"] == len(specs)
    assert report["malformed_events"] == 0


def test_cluster_sigkilled_worker_with_journal_stays_coherent(
    tmp_path, serial_baseline
):
    specs = GRID.specs()
    journal = SweepJournal.create(
        tmp_path / "journal",
        {"note": "cluster chaos"},  # grid dict unused by handle_event
        specs,
        bus=tmp_path / "bus",
    )
    killed = []

    def on_event(event):
        journal.handle_event(event)
        if (
            event.get("type") == "cell_done"
            and not killed
            and event.get("worker")
        ):
            killed.append(event["worker"])
            sigkill(event["worker"])

    executor = ClusterExecutor(
        workers=2,
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
    )
    results = executor.run(specs, on_event=on_event)
    assert killed
    assert executor.last_worker_deaths == 1
    assert _blobs(results) == serial_baseline
    journal.reconcile(specs)
    assert journal.unlanded() == []
    assert SweepJournal.load(journal.directory).counts()["landed"] == len(
        specs
    )


# ----------------------------------------------------------------------
# bus damage: corrupt / truncated entries recompute byte-identically
# ----------------------------------------------------------------------
def test_damaged_bus_entries_recompute_byte_identically(
    tmp_path, serial_baseline
):
    specs = GRID.specs()
    cache = tmp_path / "cache"
    first = CachingExecutor(cache, SerialExecutor()).run(specs)
    assert _blobs(first) == serial_baseline
    corrupt_entry(result_cache_path(cache, specs[0]))
    truncate_entry(result_cache_path(cache, specs[1]))

    events = []
    executor = CachingExecutor(cache, SerialExecutor())
    again = executor.run(specs, on_event=events.append)
    assert _blobs(again) == serial_baseline
    stale = [e["index"] for e in events if e["type"] == "cache_stale"]
    assert stale == [0, 1]
    assert executor.last_hits == len(specs) - 2
    # the recompute re-landed valid entries under the same digests
    from repro.resilience import fsck_cache

    assert fsck_cache(cache).issues == 0


# ----------------------------------------------------------------------
# lossy protocol transports
# ----------------------------------------------------------------------
class _DropFirstLanding:
    """Targeted line chaos: on a single worker stream, swallow one
    cell's ``cell_done`` event *and* its ``cell_result`` ack.

    That is the nastiest protocol loss: the result is durable on the
    bus, the coordinator's running-cell shadow still holds the cell
    (its ``cell_done`` never arrived), but the landing ack is gone --
    only the per-cell deadline can recover it.
    """

    def __init__(self) -> None:
        self.claimed = None  # the one stream we damage
        self.dropped = 0
        self._lock = threading.Lock()

    def for_worker(self, worker_id: int) -> int:
        return worker_id

    def apply(self, worker_id: int, line: str) -> "str | None":
        with self._lock:
            if '"type":"cell_done"' in line and self.claimed is None:
                self.claimed = worker_id
                self.dropped += 1
                return None
            if (
                worker_id == self.claimed
                and self.dropped == 1
                and '"type":"cell_result"' in line
            ):
                self.dropped += 1
                return None
        return line


def test_dropped_landing_ack_recovers_via_deadline(
    tmp_path, serial_baseline, deadline_retry
):
    specs = GRID.specs()
    chaos = _DropFirstLanding()
    launcher = ChaosLauncher(LocalLauncher(), chaos)
    events = []
    executor = ClusterExecutor(
        workers=2,
        launcher=launcher,
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        heartbeat_timeout=60.0,
        retry=deadline_retry,
    )
    results = executor.run(specs, on_event=events.append)
    assert chaos.dropped == 2, "no landing was ever swallowed"
    assert _blobs(results) == serial_baseline
    # the silent cell tripped its deadline and re-queued; the retry
    # resolved as a free bus hit (the first attempt's rename landed)
    assert executor.last_timeouts >= 1
    assert any(e["type"] == "cell_timeout" for e in events)
    assert any(e["type"] == "cell_retry" for e in events)


def test_randomly_lossy_garbled_transport_stays_byte_identical(
    tmp_path, serial_baseline
):
    specs = GRID.specs()
    # protect the landing acks (livelock-free by construction: a lost
    # ack is the *deadline's* job, proven above) and the handshake;
    # everything else -- telemetry, heartbeats -- is fair game
    chaos = LineChaos(
        drop=0.2, garble=0.2, seed=7, protect=("ready", "cell_result")
    )
    launcher = ChaosLauncher(LocalLauncher(), chaos)
    state = ProgressState(total=len(specs))
    executor = ClusterExecutor(
        workers=2,
        launcher=launcher,
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
    )
    results = executor.run(specs, on_event=state.handle)
    assert launcher.dropped + launcher.garbled > 0, (
        "chaos never touched a line; the scenario tested nothing"
    )
    assert _blobs(results) == serial_baseline
    # garbled lines die in parse_line, never in the event stream
    assert state.report()["malformed_events"] == 0


# ----------------------------------------------------------------------
# pooled worker agents (repro worker --workers N)
# ----------------------------------------------------------------------
def test_cluster_with_pooled_workers_is_byte_identical(
    tmp_path, serial_baseline
):
    specs = GRID.specs()
    state = ProgressState(total=len(specs))
    executor = ClusterExecutor(
        workers=2,
        worker_procs=2,  # 2 agents x 2 pool processes each
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
    )
    results = executor.run(specs, on_event=state.handle)
    assert _blobs(results) == serial_baseline
    report = state.report()
    assert report["done"] == len(specs)
    assert report["malformed_events"] == 0


# ----------------------------------------------------------------------
# the serve daemon: SIGKILL mid-sweep -> restart -> resubmit, overload
# ----------------------------------------------------------------------
def _serve_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _start_daemon(state_dir, *extra):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", str(state_dir), "--port", "0", *extra,
        ],
        env=_serve_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _endpoint(state_dir, proc, timeout=30.0):
    from repro.serve import endpoint_path

    path = endpoint_path(state_dir)
    pid = proc.pid
    assert wait_for(
        lambda: proc.poll() is None
        and path.is_file()
        and json.loads(path.read_text()).get("pid") == pid,
        timeout=timeout,
    ), "the daemon never advertised its endpoint"
    return json.loads(path.read_text())["url"]


def test_daemon_sigkill_restart_resubmit_is_byte_identical(tmp_path):
    """The tentpole chaos scenario: SIGKILL the daemon mid-sweep, start
    a fresh daemon on the same state dir, resubmit the identical
    campaign -- the result is byte-identical to a clean serial run and
    only the unlanded cells recompute."""
    from repro.api.result import SCHEMA_VERSION
    from repro.serve import ServeClient

    baseline = (
        dumps_canonical(
            {
                "schema_version": SCHEMA_VERSION,
                "grid": GRID.to_dict(),
                "results": [
                    r.to_dict() for r in SerialExecutor().run(GRID.specs())
                ],
            }
        )
        + "\n"
    ).encode("utf-8")
    total = len(GRID.specs())
    state_dir = tmp_path / "state"
    request = {"grid": GRID.to_dict()}

    proc = _start_daemon(state_dir)
    try:
        client = ServeClient(_endpoint(state_dir, proc), client_id="chaos")
        job_id = client.submit(request)["id"]

        def landed() -> int:
            view = client.job(job_id)
            return view["landed"] or 0

        # kill as soon as real progress landed but before completion
        assert wait_for(
            lambda: 1 <= landed() < total
            or client.job(job_id)["status"] == "done",
            timeout=120.0,
        ), "the daemon never landed a cell"
        landed_at_kill = landed()
        assert landed_at_kill < total, (
            "the sweep finished before the kill window; shrink n"
        )
        sigkill(proc.pid)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
    finally:
        proc.kill()

    # the journal survived the kill with real unfinished work
    journal = SweepJournal.load(state_dir / "jobs" / job_id)
    assert journal.unlanded(), "nothing left to resume; kill came too late"

    proc = _start_daemon(state_dir)
    try:
        client = ServeClient(_endpoint(state_dir, proc), client_id="chaos")
        # the restarted daemon recovered the interrupted job; the
        # resubmission dedupes onto it rather than spawning a twin
        view = client.submit(request)
        assert view["id"] == job_id and view["created"] is False
        raw = client.result_bytes(job_id, wait=True, timeout=180.0)
        assert raw == baseline
        final = client.job(job_id)
        assert final["resumes"] >= 1
        # only unlanded cells recomputed: every cell landed pre-kill
        # replayed as a bus hit on the resumed run
        assert final["hits"] >= landed_at_kill
        assert final["hits"] + final["misses"] + final["stale"] == total
    finally:
        sigkill(proc.pid)
        proc.wait(timeout=30)


def test_daemon_overload_sheds_load_with_retry_after(tmp_path):
    """Admission control under pressure: a saturated daemon answers
    429 (client cap) and 503 (queue full) with Retry-After instead of
    accepting unbounded work, and every admitted job still lands."""
    from repro.serve import (
        CampaignService,
        ClientBusy,
        QueueFull,
        make_server,
        ServeClient,
    )

    gate = threading.Event()
    service = CampaignService(
        tmp_path / "state",
        queue_limit=1,
        per_client_limit=1,
        before_job=lambda job: gate.wait(timeout=60.0),
    )
    service.start()
    server = make_server(service, host="127.0.0.1", port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_address[1]}"

    spec = GRID.specs()[0]

    def request(i):
        return {"spec": dict(spec.to_dict(), n=i + 1)}

    from repro.serve import ServeError

    try:
        alice = ServeClient(url, client_id="alice")
        bob = ServeClient(url, client_id="bob")
        carol = ServeClient(url, client_id="carol")
        first = alice.submit(request(0))  # claimed by the parked runner
        assert wait_for(
            lambda: alice.job(first["id"])["status"] == "running",
            timeout=30.0,
        )
        # alice is at her in-flight cap -> 429 + Retry-After
        with pytest.raises(ServeError) as busy:
            alice.submit(request(1), retry=False)
        assert busy.value.status == 429
        assert busy.value.body["retry_after"] >= 1
        second = bob.submit(request(2))  # fills the queue (limit 1)
        # the queue is full -> 503 + Retry-After for anyone else
        with pytest.raises(ServeError) as full:
            carol.submit(request(3), retry=False)
        assert full.value.status == 503
        assert full.value.body["retry_after"] >= 1
        stats = carol.stats()
        assert stats["counters"]["rejected_busy"] >= 1
        assert stats["counters"]["rejected_full"] >= 1
        # release the gate: every admitted job completes, none lost
        gate.set()
        for client, view in ((alice, first), (bob, second)):
            raw = client.result_bytes(
                view["id"], wait=True, timeout=120.0
            )
            assert raw.endswith(b"\n")
        assert carol.stats()["jobs"] == {"done": 2}
    finally:
        gate.set()
        server.shutdown()
        server.server_close()
        service.close(timeout=30.0)
