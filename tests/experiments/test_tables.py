"""Tests for the table experiment drivers (small circuit subsets)."""

import pytest

from repro.experiments import (
    table1_area,
    table2_delay,
    table3_power,
    table4_fanout,
)
from repro.obs import Recorder, use_recorder

SUBSET = ("s298", "s344")


@pytest.fixture(scope="module")
def t1():
    return table1_area.run(circuits=SUBSET)


@pytest.fixture(scope="module")
def t2():
    return table2_delay.run(circuits=SUBSET)


@pytest.fixture(scope="module")
def t3():
    return table3_power.run(circuits=SUBSET, n_vectors=40)


class TestTable1:
    def test_row_per_circuit(self, t1):
        assert [r["circuit"] for r in t1.rows] == list(SUBSET)

    def test_structural_columns(self, t1):
        for row in t1.rows:
            assert row["FF"] > 0
            assert row["unique_fanouts"] <= row["total_fanouts"]

    def test_flh_wins_on_normal_circuits(self, t1):
        for cmp in t1.comparisons:
            assert cmp.flh_pct < cmp.enhanced_pct

    def test_average_in_paper_band(self, t1):
        assert 10.0 < t1.average_improvement_vs_enhanced < 60.0

    def test_render(self, t1):
        text = t1.render()
        assert "Table I" in text
        assert "s298" in text
        assert "average FLH improvement" in text


class TestTable2:
    def test_mux_worst_flh_best(self, t2):
        for cmp in t2.comparisons:
            assert cmp.mux_pct > cmp.enhanced_pct > cmp.flh_pct

    def test_levels_reported(self, t2):
        for row in t2.rows:
            assert row["crit_levels"] >= 5

    def test_average_improvement_band(self, t2):
        assert t2.average_improvement_vs_enhanced > 40.0

    def test_render(self, t2):
        assert "Table II" in t2.render()


class TestTable3:
    def test_flh_near_zero(self, t3):
        for cmp in t3.comparisons:
            assert abs(cmp.flh_pct) < 4.0

    def test_enhanced_has_real_overhead(self, t3):
        for cmp in t3.comparisons:
            assert cmp.enhanced_pct > 3.0

    def test_average_improvement_band(self, t3):
        assert t3.average_improvement_vs_enhanced > 70.0

    def test_render(self, t3):
        text = t3.render()
        assert "Table III" in text
        assert "FLH below original power" in text


class TestTable4:
    def test_small_run(self):
        result = table4_fanout.run(
            circuits=("s838",), n_vectors=20, max_candidates=10
        )
        row = result.rows[0]
        assert row["fanout_after"] <= row["fanout_before"]
        assert result.average_improvement >= 0.0
        assert "Table IV" in result.render()


def test_bad_circuit_fails_the_table():
    """A circuit that raises fails the whole table, and its
    ``experiment.circuit`` span records the error."""
    rec = Recorder()
    with use_recorder(rec), pytest.raises(KeyError, match="sBOGUS"):
        table1_area.run(circuits=("s27", "sBOGUS"))
    spans = [e["args"] for e in rec.events
             if e["name"] == "experiment.circuit"]
    assert spans == [{"circuit": "s27"},
                     {"circuit": "sBOGUS", "error": "KeyError"}]
