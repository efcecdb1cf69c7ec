"""Tests for the --trace CLI glue and the trace validator command."""

import json

import pytest

from repro.obs import (
    NULL_RECORDER,
    check_run,
    get_recorder,
    trace_main,
    trace_session,
)


class TestTraceSession:
    def test_no_path_yields_null_recorder(self):
        with trace_session(None, "cmd") as rec:
            assert rec is NULL_RECORDER
            assert get_recorder() is NULL_RECORDER

    def test_session_installs_and_exports(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        with trace_session(str(target), "cmd", argv=["--x"]) as rec:
            assert get_recorder() is rec
            rec.event("inside")
        assert get_recorder() is NULL_RECORDER
        assert check_run(str(target)) == []
        trace = json.loads(target.read_text())
        names = [e["name"] for e in trace["traceEvents"]]
        assert "inside" in names
        assert "cli.cmd" in names           # the wrapping span
        manifest = json.loads(
            (tmp_path / "run.manifest.json").read_text()
        )
        assert manifest["command"] == "cmd"
        assert manifest["argv"] == ["--x"]
        assert manifest["error"] is None
        assert "trace written to" in capsys.readouterr().err

    def test_extra_filled_late_is_exported(self, tmp_path):
        target = tmp_path / "run.json"
        extra = {}
        with trace_session(str(target), "cmd", extra=extra):
            extra["coverage"] = 0.5
        manifest = json.loads(
            (tmp_path / "run.manifest.json").read_text()
        )
        assert manifest["extra"] == {"coverage": 0.5}

    def test_trace_written_even_when_body_raises(self, tmp_path):
        target = tmp_path / "run.json"
        with pytest.raises(RuntimeError):
            with trace_session(str(target), "cmd") as rec:
                rec.event("before-crash")
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER
        trace = json.loads(target.read_text())
        names = [e["name"] for e in trace["traceEvents"]]
        assert "before-crash" in names
        # the cli span is tagged with the error
        cli = next(e for e in trace["traceEvents"]
                   if e["name"] == "cli.cmd")
        assert cli["args"]["error"] == "RuntimeError"
        manifest = json.loads(
            (tmp_path / "run.manifest.json").read_text()
        )
        assert manifest["error"] == "RuntimeError"
        assert check_run(str(target)) == ["run failed: RuntimeError"]

    def test_env_default(self, tmp_path, monkeypatch):
        import argparse

        from repro.obs import add_trace_argument

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env.json"))
        parser = argparse.ArgumentParser()
        add_trace_argument(parser)
        args = parser.parse_args([])
        assert args.trace == str(tmp_path / "env.json")
        args = parser.parse_args(["--trace", "explicit.json"])
        assert args.trace == "explicit.json"

    def test_no_env_defaults_to_none(self, monkeypatch):
        import argparse

        from repro.obs import add_trace_argument

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        parser = argparse.ArgumentParser()
        add_trace_argument(parser)
        assert parser.parse_args([]).trace is None


class TestTraceMain:
    def write_run(self, tmp_path, error=None):
        from repro.obs import Recorder, write_run

        rec = Recorder()
        with rec.span("s"):
            pass
        return write_run(rec, str(tmp_path / "run.json"),
                         command="test", error=error)

    def test_valid_run_passes(self, tmp_path, capsys):
        paths = self.write_run(tmp_path)
        assert trace_main([paths["trace"]]) == 0
        assert "ok" in capsys.readouterr().out

    def test_failed_run_fails(self, tmp_path, capsys):
        paths = self.write_run(tmp_path, error="RuntimeError")
        assert trace_main([paths["trace"]]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "run failed: RuntimeError" in out

    def test_missing_file_fails(self, tmp_path):
        assert trace_main([str(tmp_path / "nope.json")]) == 1


class TestTracedCliRuns:
    """End-to-end: the real CLIs emit valid, meaningful artifacts."""

    def test_atpg_trace(self, tmp_path, capsys):
        from repro.fault.atpg_flow import atpg_main

        target = tmp_path / "atpg.json"
        assert atpg_main(["s27", "--trace", str(target)]) == 0
        assert check_run(str(target)) == []
        trace = json.loads(target.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"cli.atpg", "atpg.run", "atpg.phase1_random",
                "atpg.phase2_podem",
                "atpg.phase_boundary"} <= names
        counters = trace["otherData"]["counters"]
        assert counters.get("atpg.random_patterns", 0) > 0
        manifest = json.loads(
            (tmp_path / "atpg.manifest.json").read_text()
        )
        assert "s27" in manifest["extra"]["circuits"]
        summary = manifest["extra"]["circuits"]["s27"]
        assert 0.0 <= summary["coverage"] <= 1.0

    def test_fsim_trace(self, tmp_path, capsys):
        from repro.fault.fsim import fsim_main

        target = tmp_path / "fsim.json"
        assert fsim_main(["s27", "--trace", str(target)]) == 0
        assert check_run(str(target)) == []
        trace = json.loads(target.read_text())
        names = {e["name"] for e in trace["traceEvents"]}
        assert {"cli.fsim", "fsim.stuck_packed"} <= names

    def test_untraced_run_records_nothing(self, capsys):
        from repro.fault.atpg_flow import atpg_main

        assert atpg_main(["s27"]) == 0
        assert get_recorder() is NULL_RECORDER
        assert "trace written" not in capsys.readouterr().err
