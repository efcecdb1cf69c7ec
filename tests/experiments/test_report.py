"""Tests for the text table renderer."""

from repro.experiments import format_table, summary_line


def test_format_basic():
    rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
    text = format_table(rows, title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "a" in lines[1] and "b" in lines[1]
    assert "22" in text


def test_format_aligns_columns():
    rows = [{"col": "short"}, {"col": "a-much-longer-value"}]
    text = format_table(rows)
    lines = text.splitlines()
    assert len(lines[2]) >= len("a-much-longer-value")


def test_format_empty():
    assert "(no rows)" in format_table([], title="empty")


def test_format_floats_rounded():
    text = format_table([{"x": 3.14159}])
    assert "3.14" in text
    assert "3.14159" not in text


def test_format_none_rendered_as_dash():
    assert "-" in format_table([{"x": None}])


def test_explicit_columns_subset():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "a" not in text.splitlines()[0]


def test_summary_line():
    assert summary_line("avg", [1.0, 2.0, 3.0]) == "avg: 2.0"
    assert summary_line("avg", []) == "avg: n/a"


def test_mean_basic():
    from repro.experiments.report import mean

    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_mean_empty_defaults_to_zero():
    from repro.experiments.report import mean

    assert mean([]) == 0.0
    assert mean((), empty=-1.0) == -1.0


def test_table_averages_survive_empty_comparisons():
    """Results with no comparisons must render, not divide by 0."""
    from repro.experiments.table1_area import Table1Result
    from repro.experiments.table2_delay import Table2Result
    from repro.experiments.table3_power import Table3Result
    from repro.experiments.table4_fanout import Table4Result

    t1 = Table1Result(rows=[], comparisons=[])
    assert t1.average_improvement_vs_enhanced == 0.0
    assert t1.average_improvement_vs_mux == 0.0
    t2 = Table2Result(rows=[], comparisons=[])
    assert t2.average_improvement_vs_enhanced == 0.0
    t3 = Table3Result(rows=[], comparisons=[])
    assert t3.average_improvement_vs_enhanced == 0.0
    assert t3.circuits_below_original == []
    t4 = Table4Result(rows=[], results=[])
    assert t4.average_improvement == 0.0
    assert t4.best_improvement == 0.0
