"""Tests for technology constants and unit helpers."""

import pytest

from repro import units


def test_prefixes():
    assert units.UM == 1e-6
    assert units.NM == 1e-9
    assert units.FF == 1e-15
    assert units.PS == 1e-12


def test_node_constants_sane():
    assert 0.0 < units.VTH_70NM < units.VDD_70NM
    assert units.LMIN_70NM == pytest.approx(70e-9)
    assert units.WMIN_70NM >= units.LMIN_70NM
    assert units.PN_RATIO > 1.0


def test_active_area():
    assert units.active_area(1e-6) == pytest.approx(1e-6 * units.LMIN_70NM)
    assert units.active_area(2e-6, 1e-7) == pytest.approx(2e-13)


def test_um2_conversion():
    assert units.um2(1e-12) == pytest.approx(1.0)


def test_stacking_and_hvt_in_unit_range():
    assert 0.0 < units.STACKING_FACTOR < 1.0
    assert 0.0 < units.HVT_LEAKAGE_RATIO < 1.0


def test_scan_faster_than_functional_clock():
    # The floating-node argument assumes a fast scan clock.
    assert units.FCLK_SCAN >= units.FCLK_NORMAL
