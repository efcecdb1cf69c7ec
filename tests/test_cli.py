"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import EXPERIMENTS, main
from repro.experiments import table2_delay


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


@pytest.mark.parametrize("flag, value", [
    ("--processes", "0"),
    ("--processes", "-1"),
    ("--processes", "2"),
    ("--task-timeout", "0"),
    ("--task-timeout", "-1"),
    ("--task-timeout", "5"),
])
def test_bad_knobs_are_usage_errors(capsys, flag, value):
    """Studies run in-process with no per-circuit knobs: any value of
    one exits 2 before a study prints."""
    with pytest.raises(SystemExit) as excinfo:
        main(["table2", flag, value])
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


def test_failing_circuit_fails_the_verb(capsys, monkeypatch):
    """One circuit that raises ends ``repro table2`` with that exception
    and no partial table."""
    real = table2_delay._circuit_result

    def circuit_result(name):
        if name == "s344":
            raise RuntimeError("boom in s344")
        return real(name)

    monkeypatch.setattr(table2_delay, "_circuit_result", circuit_result)
    with pytest.raises(RuntimeError, match="boom in s344"):
        main(["table2"])
    assert "Table II" not in capsys.readouterr().out


def test_bench_help_available(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--help"])
    assert excinfo.value.code == 0
    flags = re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out)
    assert set(flags) == {"-h", "--help", "--output", "--trace"}
