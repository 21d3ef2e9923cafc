"""Tests for the observability layer (repro.obs).

Covers the digest-neutrality contract (obs on/off never changes
canonical result bytes), the metrics registry's null-object discipline,
trace-file well-formedness, executor event streams (serial and parallel
must agree), and progress accounting when workers die mid-sweep.
"""

import json

import pytest

from repro import obs
from repro.api import (
    CachingExecutor,
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    Session,
    dumps_canonical,
)
from repro.obs.registry import spread
from repro.obs.trace import read_trace
from repro.system.machine import MachineConfig

SMALL = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8, l2_ways=4)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        benchmark="fft", component="l2c", mode="injection",
        machine=SMALL, scale=5e-6, seed=7, n=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture
def obs_enabled():
    """Enable the obs layer for one test, restoring prior state after."""
    was = obs.enabled()
    obs.REGISTRY.clear()
    obs.enable()
    try:
        yield
    finally:
        if not was:
            obs.disable()
        obs.REGISTRY.clear()


class TestRegistry:
    def test_disabled_layer_returns_null_singletons(self):
        obs.REGISTRY.clear()
        assert not obs.enabled()
        assert obs.counter("x") is obs.NULL_COUNTER
        assert obs.gauge("x") is obs.NULL_GAUGE
        assert obs.timer("x") is obs.NULL_TIMER
        assert obs.histogram("x") is obs.NULL_HISTOGRAM
        # null mutators are no-ops, not errors
        obs.counter("x").inc()
        obs.gauge("x").set(3)
        with obs.timer("x").time():
            pass
        obs.histogram("x").observe(0.5)
        assert obs.REGISTRY.to_dict() == {}

    def test_enabled_layer_registers_real_metrics(self, obs_enabled):
        c = obs.counter("cells")
        c.inc()
        c.inc(2)
        obs.gauge("rate").set(1.5)
        with obs.timer("phase").time():
            pass
        obs.histogram("lat").observe(0.02)
        doc = obs.REGISTRY.to_dict()
        assert doc["cells"] == {"kind": "counter", "value": 3}
        assert doc["rate"]["value"] == 1.5
        assert doc["phase"]["count"] == 1
        assert doc["lat"]["count"] == 1

    def test_labels_create_distinct_series(self, obs_enabled):
        obs.counter("hits", labels={"model": "a"}).inc()
        obs.counter("hits", labels={"model": "b"}).inc(4)
        doc = obs.REGISTRY.to_dict()
        assert doc["hits[model=a]"]["value"] == 1
        assert doc["hits[model=b]"]["value"] == 4

    def test_same_name_returns_same_object(self, obs_enabled):
        assert obs.counter("one") is obs.counter("one")

    def test_spread_summary(self):
        got = spread([3.0, 1.0, 2.0])
        assert got["min"] == 1.0
        assert got["median"] == 2.0
        assert got["max"] == 3.0
        assert got["stdev"] == pytest.approx(0.816497, rel=1e-3)


class TestTrace:
    def test_spans_serialize_as_valid_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = obs.TraceWriter(path)
        with writer.span("golden_chunk", "golden", start_cycle=0):
            pass
        writer.instant("cache_hit", "cache", index=3)
        writer.close()
        assert obs.validate_trace(path) == []
        events = read_trace(path)
        assert [e["name"] for e in events] == ["golden_chunk", "cache_hit"]
        span = events[0]
        assert span["ph"] == "X"
        assert span["dur"] >= 0
        assert span["cpu_dur"] >= 0
        assert "rss_kb" in span
        # canonical serialization: sorted keys, no spaces
        first = path.read_text().splitlines()[0]
        assert first == json.dumps(
            json.loads(first), sort_keys=True, separators=(",", ":")
        )

    def test_span_records_errors(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = obs.TraceWriter(path)
        with pytest.raises(RuntimeError):
            with writer.span("boom", "test"):
                raise RuntimeError("no")
        writer.close()
        (event,) = read_trace(path)
        assert event["error"] == "RuntimeError"

    def test_validate_trace_flags_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ph":"X"}\nnot json\n')
        errors = obs.validate_trace(path)
        assert errors  # missing keys + unparsable line

    def test_chrome_conversion(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = obs.TraceWriter(path)
        with writer.span("work", "golden"):
            pass
        writer.close()
        chrome = obs.to_chrome(path)
        (event,) = chrome["traceEvents"]
        assert event["ph"] == "X"
        assert isinstance(event["ts"], int)  # microseconds


class TestExecutorEvents:
    def _collect(self, executor, specs):
        events = []
        results = executor.run(specs, on_event=events.append)
        return results, events

    def test_serial_and_parallel_streams_agree(self):
        specs = [small_spec(seed=s) for s in (1, 2, 3, 4)]
        serial_results, serial_events = self._collect(SerialExecutor(), specs)
        parallel_results, parallel_events = self._collect(
            ParallelExecutor(workers=2), specs
        )
        # events never perturb results, and both executors agree
        assert [r.to_dict() for r in serial_results] == [
            r.to_dict() for r in parallel_results
        ]

        def summarize(events):
            starts = sorted(e["index"] for e in events if e["type"] == "cell_start")
            dones = sorted(e["index"] for e in events if e["type"] == "cell_done")
            return starts, dones

        assert summarize(serial_events) == summarize(parallel_events)
        assert summarize(serial_events)[0] == [0, 1, 2, 3]

    def test_event_payloads_are_well_formed(self):
        specs = [small_spec(seed=s) for s in (1, 2)]
        _, events = self._collect(ParallelExecutor(workers=2), specs)
        for event in events:
            assert event["total"] == 2
            assert isinstance(event["digest"], str)
            assert isinstance(event["worker"], int)
        for done in (e for e in events if e["type"] == "cell_done"):
            assert done["seconds"] >= 0
            assert done["cpu_seconds"] >= 0
            assert done["records"] == 2
            assert done["rss_kb"] >= 0

    def test_events_off_by_default(self):
        # the no-callback path must stay the original zero-overhead one
        specs = [small_spec(seed=9)]
        assert SerialExecutor().run(specs)[0].records

    def test_callback_errors_never_kill_the_sweep(self):
        def boom(event):
            raise RuntimeError("observer crashed")

        results = SerialExecutor().run([small_spec(seed=5)], on_event=boom)
        assert len(results) == 1

    def test_caching_executor_emits_hit_miss_events(self, tmp_path):
        specs = [small_spec(seed=s) for s in (1, 2)]
        first_events, second_events = [], []
        cold = CachingExecutor(tmp_path, SerialExecutor())
        cold.run(specs, on_event=first_events.append)
        assert cold.last_hits == 0 and cold.last_misses == 2
        warm = CachingExecutor(tmp_path, SerialExecutor())
        warm.run(specs, on_event=second_events.append)
        assert warm.last_hits == 2 and warm.last_misses == 0
        assert warm.last_stale == 0
        assert sum(e["type"] == "cache_miss" for e in first_events) == 2
        assert sum(e["type"] == "cache_hit" for e in second_events) == 2
        # hits are terminal: no cell_start/cell_done on the warm pass
        assert not any(e["type"] == "cell_start" for e in second_events)


class TestProgressState:
    def _start(self, index, worker=100):
        return {"type": "cell_start", "index": index, "total": 4,
                "digest": "d", "label": f"cell{index}", "worker": worker,
                "t": 0.0}

    def _done(self, index, worker=100):
        return {**self._start(index, worker), "type": "cell_done",
                "seconds": 0.5, "cpu_seconds": 0.4, "rss_kb": 1024,
                "records": 3}

    def test_counts_and_rates(self):
        state = obs.ProgressState(total=4)
        for event in (self._start(0), self._done(0), self._start(1)):
            state.handle(event)
        assert len(state.started) == 2
        assert len(state.done) == 1
        assert state.incomplete() == {1}
        report = state.report()
        assert report["records"] == 3
        assert report["cache"] == {"hits": 0, "misses": 0, "stale": 0}
        assert report["workers"] == 1

    def test_killed_worker_yields_coherent_report(self):
        """A worker that dies after cell_start leaves its cells listed as
        incomplete -- started, done and incomplete always reconcile."""
        state = obs.ProgressState(total=4)
        for event in (
            self._start(0, worker=100), self._done(0, worker=100),
            self._start(1, worker=200),   # worker 200 is killed here
            self._start(2, worker=100), self._done(2, worker=100),
        ):
            state.handle(event)
        report = state.report()
        assert report["done"] == 2
        assert report["incomplete"] == [1]
        assert len(state.started) == report["done"] + len(report["incomplete"])

    def test_malformed_events_are_tallied_not_raised(self):
        state = obs.ProgressState()
        state.handle({"type": "martian_event"})
        state.handle({"no": "type"})
        assert state.malformed == 2

    def test_cache_hits_are_terminal_cells(self):
        state = obs.ProgressState(total=2)
        state.handle({"type": "cache_hit", "index": 0, "total": 2,
                      "digest": "d", "label": "x", "worker": 1, "t": 0.0})
        assert len(state.done) == 1
        assert state.report()["cache"]["hits"] == 1
        assert state.cache_hit_rate() == 1.0


class TestReport:
    def test_snapshot_and_table(self, obs_enabled):
        obs.counter("cells").inc(5)
        doc = obs.snapshot()
        assert doc["metrics"]["cells"]["value"] == 5
        table = obs.render_table(doc)
        assert "cells" in table and "counter" in table

    def test_prometheus_rendering(self, obs_enabled):
        obs.counter("cache.hits").inc(2)
        obs.gauge("worker.rss_kb", labels={"worker": "1"}).set(100)
        obs.gauge("worker.rss_kb", labels={"worker": "2"}).set(200)
        obs.histogram("lat").observe(0.02)
        text = obs.render_prometheus(obs.snapshot())
        assert "repro_cache_hits 2" in text
        assert 'repro_worker_rss_kb{worker="1"} 100' in text
        # one TYPE declaration per metric family, even with many series
        assert text.count("# TYPE repro_worker_rss_kb gauge") == 1
        assert 'le="+Inf"' in text

    def test_snapshot_file_round_trip(self, tmp_path, obs_enabled):
        obs.counter("cells").inc()
        path = tmp_path / "obs" / "snap.json"
        obs.write_snapshot(path)
        from repro.obs.report import read_snapshot

        assert read_snapshot(path)["metrics"]["cells"]["value"] == 1

    def test_concurrent_snapshot_writers(self, tmp_path, monkeypatch):
        """A second writer that starts while the first is renaming its
        temp file into place must not clobber or steal it."""
        import pathlib

        path = tmp_path / "snap.json"
        real_replace = pathlib.Path.replace
        calls = []

        def replace(self, target):
            calls.append(self.name)
            if len(calls) == 1:
                obs.write_snapshot(path)
            return real_replace(self, target)

        monkeypatch.setattr(pathlib.Path, "replace", replace)
        obs.write_snapshot(path)
        assert len(calls) == 2 and calls[0] != calls[1]
        from repro.obs.report import read_snapshot

        assert read_snapshot(path)["snapshot_version"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]


class TestDigestNeutrality:
    def test_bit_identity_with_obs_and_tracer_on(self, tmp_path, obs_enabled):
        """Instrumentation must never consume campaign RNG or touch
        simulated state: canonical result bytes are identical with the
        full obs stack (metrics + tracer) active."""
        spec = small_spec(seed=2015, n=3)
        writer = obs.TraceWriter(tmp_path / "trace.jsonl")
        previous = obs.set_tracer(writer)
        try:
            with_obs = dumps_canonical(Session().run(spec).to_dict())
        finally:
            obs.set_tracer(previous)
            writer.close()
        obs.disable()
        obs.REGISTRY.clear()
        without_obs = dumps_canonical(Session().run(spec).to_dict())
        assert with_obs == without_obs
        # the instrumented run actually produced metrics and spans
        assert obs.validate_trace(tmp_path / "trace.jsonl") == []

    def test_obs_state_not_in_spec_digest(self):
        spec = small_spec()
        before = spec.digest()
        obs.enable()
        try:
            assert small_spec().digest() == before
        finally:
            obs.disable()
