"""Tests for the partial-enhanced, variation-quality and shift-power
studies."""

import pytest

from repro.experiments import partial_study, shift_power, variation_quality


class TestPartialStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return partial_study.run(
            "s298", fractions=(0.5, 1.0), n_random_pairs=16
        )

    def test_rows_shape(self, result):
        assert len(result.rows) == 3  # two fractions + FLH
        assert result.flh_row["held_fraction"] == "FLH"

    def test_area_monotone(self, result):
        areas = [r["area_ovh_%"] for r in result.partial_rows]
        assert areas == sorted(areas)

    def test_flh_dominates(self, result):
        assert result.flh_dominates

    def test_render(self, result):
        text = result.render()
        assert "partial enhanced scan vs FLH" in text
        assert "FLH dominates full enhanced scan: YES" in text


class TestVariationQuality:
    @pytest.fixture(scope="class")
    def result(self):
        return variation_quality.run(
            "s298", n_samples=60, n_defects=30, n_random_pairs=24
        )

    def test_spread_positive(self, result):
        assert result.variation.std > 0.0
        assert 0.0 <= result.failure_probability <= 1.0

    def test_ordering(self, result):
        assert result.ordering_holds

    def test_render(self, result):
        text = result.render()
        assert "Monte-Carlo critical delay" in text
        assert "escape" in text


class TestShiftPower:
    @pytest.fixture(scope="class")
    def result(self):
        return shift_power.run(("s298",), n_patterns=3)

    def test_shift_saving(self, result):
        (row,) = result.rows
        assert 0.0 < row["saving_flh_%"] < 100.0
        assert row["saving_flh_%"] == row["saving_enh_%"]

    def test_render(self, result):
        text = result.render()
        assert text.startswith("scan-shift energy saved by isolation")
        assert "s298" in text
