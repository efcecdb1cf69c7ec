"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import EXPERIMENTS, QUICK, main


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


def test_quick_subset_runs():
    # The quick bundle must at least include the fast protocol check.
    # Entries take (processes, task_timeout) and return the result;
    # fig5 ignores both.
    assert "fig5" in QUICK
    assert "Figure 5(b)" in QUICK["fig5"](1, None).render()


@pytest.mark.parametrize("flag, value", [
    ("--processes", "0"),
    ("--processes", "-1"),
    ("--task-timeout", "0"),
    ("--task-timeout", "-1"),
])
def test_bad_knobs_are_usage_errors(capsys, flag, value):
    """A zero or negative knob exits 2 before any study runs, instead of
    a traceback or a table of "timed out" rows."""
    with pytest.raises(SystemExit) as excinfo:
        main(["table2", "--processes", "2", flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "Table II" not in captured.out


def test_bench_help_available(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--help"])
    assert excinfo.value.code == 0
    flags = re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out)
    assert set(flags) == {"-h", "--help", "--output", "--trace"}
