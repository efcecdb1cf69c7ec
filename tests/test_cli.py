"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.experiments import table2_delay
from repro.obs import trace_main


def test_fig5_runs(capsys):
    assert main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "== fig5 ==" in out
    assert "Figure 5(b)" in out


def test_multiple_experiments(capsys):
    assert main(["fig5", "fig5"]) == 0
    out = capsys.readouterr().out
    assert out.count("== fig5 ==") == 2


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["table99"])


def test_no_arguments_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_all_expands_to_every_experiment():
    assert set(EXPERIMENTS) >= {
        "table1", "table2", "table3", "table4",
        "fig2", "fig4", "fig5", "coverage", "shift", "ablation",
        "partial", "variation",
    }


@pytest.mark.parametrize("verb, flag, value", [
    pytest.param("table2", "--processes", "0", id="--processes-0"),
    pytest.param("table2", "--processes", "-1", id="--processes--1"),
    pytest.param("table2", "--processes", "2", id="--processes-2"),
    pytest.param("table2", "--task-timeout", "0", id="--task-timeout-0"),
    pytest.param("table2", "--task-timeout", "-1", id="--task-timeout--1"),
    pytest.param("table2", "--task-timeout", "5", id="--task-timeout-5"),
    pytest.param("atpg", "--processes", "2", id="atpg---processes-2"),
    pytest.param("atpg", "--speculate", "4", id="atpg---speculate-4"),
    pytest.param("atpg", "--check-serial", None, id="atpg---check-serial"),
    pytest.param("fsim", "--processes", "2", id="fsim---processes-2"),
])
def test_bad_knobs_are_usage_errors(capsys, verb, flag, value):
    """Every verb runs in one process with no pool knobs: any value of
    one exits 2 before anything prints."""
    argv = [verb, flag] + ([value] if value is not None else [])
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""


def test_quick_is_not_a_verb(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["quick"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "quick" in captured.err
    assert captured.out == ""


def test_failing_circuit_fails_the_verb(capsys, monkeypatch, tmp_path):
    """One circuit that raises ends ``repro table2`` with that exception
    and no partial table, and its trace fails ``repro trace``."""
    real = table2_delay._circuit_result

    def circuit_result(name):
        if name == "s344":
            raise RuntimeError("boom in s344")
        return real(name)

    monkeypatch.setattr(table2_delay, "_circuit_result", circuit_result)
    trace = str(tmp_path / "fail.json")
    with pytest.raises(RuntimeError, match="boom in s344"):
        main(["table2", "--trace", trace])
    assert "Table II" not in capsys.readouterr().out
    assert trace_main([trace]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "run failed: RuntimeError" in out


def test_bench_help_available(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--help"])
    assert excinfo.value.code == 0
    flags = re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out)
    assert set(flags) == {"-h", "--help", "--output", "--trace"}
