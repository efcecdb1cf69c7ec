"""Tests for the figure experiment drivers and the coverage study."""

import pytest

pytest.importorskip("numpy", reason="figure experiments run the spice solver")

from repro import units
from repro.experiments import (
    ablation_sizing,
    coverage_study,
    fig2_decay,
    fig4_hold,
    fig5_timing,
)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2_decay.run(t_stop=25 * units.NS, samples=6)

    def test_decay_within_deadline(self, result):
        assert result.report.decays_within_deadline

    def test_waveforms_sampled(self, result):
        assert len(result.waveform_rows) >= 5
        assert all("OUT1_V" in row for row in result.waveform_rows)

    def test_render(self, result):
        text = result.render()
        assert "Figure 2" in text
        assert "MET" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4_hold.run(t_stop=25 * units.NS, samples=6)

    def test_holds(self, result):
        assert result.report.holds()

    def test_render(self, result):
        text = result.render()
        assert "Figure 4" in text
        assert "state held: YES" in text


class TestFig5:
    def test_s27(self):
        result = fig5_timing.run("s27")
        assert result.matches_canonical
        assert result.isolated
        assert "Figure 5(b)" in result.render()


class TestCoverageStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return coverage_study.run("s298", n_random_pairs=24, n_check_tests=5)

    def test_ordering(self, result):
        assert result.ordering_holds

    def test_responses_identical(self, result):
        assert result.responses_identical

    def test_render(self, result):
        text = result.render()
        assert "responses identical: YES" in text


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation_sizing.run(
            "s298", factors=(1.0, 2.0, 4.0, 8.0), n_vectors=20
        )

    def test_tradeoff_directions(self, result):
        assert result.delay_monotonic_down
        assert result.area_monotonic_up

    def test_power_insensitive_to_sizing(self, result):
        """Paper: upsizing "does not affect the switching power"."""
        powers = [row["power_ovh_%"] for row in result.rows]
        assert max(powers) - min(powers) < 0.5

    def test_render(self, result):
        assert "sizing ablation" in result.render()
