"""Tests for trace/manifest structural validation."""

import json

from repro.obs import (
    Recorder,
    check_run,
    validate_manifest,
    validate_trace,
    write_run,
)


def event(name="e", ph="i", ts=0.0, **over):
    base = {"name": name, "ph": ph, "ts": ts, "pid": 1, "tid": 1}
    base.update(over)
    return base


class TestValidateTrace:
    def test_real_recorder_trace_is_valid(self):
        from repro.obs import build_trace

        rec = Recorder()
        with rec.span("outer"):
            rec.event("tick")
            with rec.span("inner"):
                pass
        assert validate_trace(build_trace(rec)) == []

    def test_not_an_object(self):
        assert validate_trace([1, 2]) != []
        assert validate_trace({"events": []}) != []

    def test_empty_events_flagged(self):
        problems = validate_trace({"traceEvents": []})
        assert any("empty" in p for p in problems)

    def test_missing_keys_flagged(self):
        problems = validate_trace({"traceEvents": [{"name": "x"}]})
        assert any("missing keys" in p for p in problems)

    def test_negative_ts_flagged(self):
        problems = validate_trace({"traceEvents": [event(ts=-1.0)]})
        assert any("non-negative" in p for p in problems)

    def test_non_monotonic_flagged(self):
        problems = validate_trace({
            "traceEvents": [event(ts=5.0), event(ts=1.0)],
        })
        assert any("monotonic" in p for p in problems)

    def test_complete_event_needs_dur(self):
        problems = validate_trace({
            "traceEvents": [event(ph="X")],  # no dur
        })
        assert any("dur" in p for p in problems)

    def test_balanced_begin_end_ok(self):
        problems = validate_trace({
            "traceEvents": [event(ph="B"), event(ph="E", ts=1.0)],
        })
        assert problems == []

    def test_unbalanced_begin_flagged(self):
        problems = validate_trace({"traceEvents": [event(ph="B")]})
        assert any("unbalanced" in p.lower() for p in problems)

    def test_stray_end_flagged(self):
        problems = validate_trace({"traceEvents": [event(ph="E")]})
        assert any("no matching" in p for p in problems)

    def test_unknown_phase_flagged(self):
        problems = validate_trace({"traceEvents": [event(ph="?")]})
        assert any("unknown phase" in p for p in problems)


class TestValidateManifest:
    def good(self):
        return {
            "schema": 1, "run_id": "r", "command": "c",
            "counters": {}, "wall_seconds": 0.1,
        }

    def test_good_manifest(self):
        assert validate_manifest(self.good()) == []

    def test_missing_key_flagged(self):
        manifest = self.good()
        del manifest["run_id"]
        assert any("run_id" in p for p in validate_manifest(manifest))

    def test_null_error_is_clean(self):
        manifest = self.good()
        manifest["error"] = None
        assert validate_manifest(manifest) == []

    def test_error_fails(self):
        manifest = self.good()
        manifest["error"] = "RuntimeError"
        assert validate_manifest(manifest) == ["run failed: RuntimeError"]


class TestCheckRun:
    def write(self, tmp_path, error=None):
        rec = Recorder()
        with rec.span("s"):
            rec.event("e")
        return write_run(rec, str(tmp_path / "run.json"),
                         command="test", error=error)

    def test_clean_run_checks_out(self, tmp_path):
        paths = self.write(tmp_path)
        assert check_run(paths["trace"]) == []

    def test_missing_trace_reported(self, tmp_path):
        problems = check_run(str(tmp_path / "nope.json"))
        assert any("not found" in p for p in problems)

    def test_corrupt_trace_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        problems = check_run(str(path))
        assert any("not valid JSON" in p for p in problems)

    def test_failed_run_fails_the_check(self, tmp_path):
        paths = self.write(tmp_path, error="KeyError")
        assert check_run(paths["trace"]) == ["run failed: KeyError"]

    def test_missing_manifest_reported(self, tmp_path):
        paths = self.write(tmp_path)
        import os

        os.remove(paths["manifest"])
        problems = check_run(paths["trace"])
        assert any("manifest not found" in p for p in problems)
