"""Tests for the process-local structured recorder."""

import threading

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    get_recorder,
    set_recorder,
    use_recorder,
)


class TestRecorder:
    def test_event_shape(self):
        rec = Recorder()
        rec.event("hello", cat="test", detail=42)
        assert len(rec.events) == 1
        event = rec.events[0]
        assert event["name"] == "hello"
        assert event["cat"] == "test"
        assert event["ph"] == "i"
        assert event["severity"] == "info"
        assert event["args"] == {"detail": 42}
        assert event["ts"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)

    def test_warning_bumps_default_counter(self):
        rec = Recorder()
        rec.warning("things.went_sideways", where="here")
        assert rec.counter("things.went_sideways") == 1
        assert rec.events[0]["severity"] == "warning"
        assert rec.events[0]["cat"] == "warning"

    def test_warning_bumps_named_counter(self):
        rec = Recorder()
        rec.warning("cache.corrupt_entry", counter="cache.corrupt_entries")
        assert rec.counter("cache.corrupt_entries") == 1
        assert rec.counter("cache.corrupt_entry") == 0

    def test_counters_accumulate(self):
        rec = Recorder()
        rec.incr("n")
        rec.incr("n", 4)
        assert rec.counter("n") == 5
        assert rec.counter("never") == 0

    def test_gauge_last_write_wins(self):
        rec = Recorder()
        rec.gauge("g", 1.0)
        rec.gauge("g", 2.5)
        assert rec.gauges["g"] == 2.5

    def test_span_records_complete_event(self):
        rec = Recorder()
        with rec.span("work", cat="test", item="x"):
            pass
        assert len(rec.events) == 1
        event = rec.events[0]
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["dur"] >= 0
        assert event["args"] == {"item": "x"}

    def test_span_tags_exception_and_reraises(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert rec.events[0]["args"]["error"] == "RuntimeError"

    def test_nested_spans_both_recorded(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        names = [e["name"] for e in rec.events]
        # inner completes (appends) before outer
        assert names == ["inner", "outer"]

    def test_clock_is_monotonic(self):
        rec = Recorder()
        a = rec.now_us()
        b = rec.now_us()
        assert 0 <= a <= b

    def test_elapsed_reports_wall_and_cpu(self):
        rec = Recorder()
        elapsed = rec.elapsed()
        assert elapsed["wall_seconds"] >= 0
        assert elapsed["cpu_seconds"] >= 0

    def test_snapshot_is_a_copy(self):
        rec = Recorder()
        rec.event("e")
        rec.incr("c")
        snap = rec.snapshot()
        snap["events"].clear()
        snap["counters"]["c"] = 99
        assert len(rec.events) == 1
        assert rec.counter("c") == 1

    def test_thread_safety_no_lost_updates(self):
        rec = Recorder()

        def hammer():
            for _ in range(500):
                rec.incr("hits")
                rec.event("tick")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counter("hits") == 2000
        assert len(rec.events) == 2000


class TestNullRecorder:
    def test_everything_is_a_noop(self):
        rec = NullRecorder()
        assert rec.enabled is False
        rec.event("e")
        rec.warning("w")
        rec.incr("c")
        rec.gauge("g", 1.0)
        rec.complete_event("x", 0.0, 1.0)
        assert rec.counter("c") == 0
        assert rec.now_us() == 0.0
        assert rec.snapshot()["events"] == []

    def test_span_is_shared_noop(self):
        rec = NullRecorder()
        span = rec.span("anything", whatever=1)
        with span:
            pass
        assert rec.span("again") is span  # one shared instance


class TestActiveRecorder:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_set_and_restore(self):
        rec = Recorder()
        previous = set_recorder(rec)
        try:
            assert get_recorder() is rec
        finally:
            set_recorder(previous)
        assert get_recorder() is previous

    def test_use_recorder_restores_on_exit(self):
        rec = Recorder()
        with use_recorder(rec) as active:
            assert active is rec
            assert get_recorder() is rec
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_restores_on_exception(self):
        rec = Recorder()
        with pytest.raises(ValueError):
            with use_recorder(rec):
                raise ValueError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_set_none_installs_null(self):
        previous = set_recorder(None)
        try:
            assert get_recorder() is NULL_RECORDER
        finally:
            set_recorder(previous)


def _child_run_id(conn):
    conn.send(Recorder().run_id)
    conn.close()


class TestRunIdUniqueness:
    def test_same_process_same_millisecond_ids_differ(self):
        """Regression: pid + wall-clock ms alone collide for recorders
        constructed back to back; the random suffix must not."""
        ids = {Recorder().run_id for _ in range(200)}
        assert len(ids) == 200

    def test_forked_children_never_share_the_parent_id(self):
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("requires fork start method")
        parent = Recorder()
        procs, conns = [], []
        for _ in range(4):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child_run_id, args=(send,))
            proc.start()
            send.close()
            procs.append(proc)
            conns.append(recv)
        child_ids = [conn.recv() for conn in conns]
        for proc in procs:
            proc.join(timeout=30.0)
        for conn in conns:
            conn.close()
        assert parent.run_id not in child_ids
        assert len(set(child_ids)) == len(child_ids)
