"""Tests for the transistor primitive."""

import pytest

from repro import units
from repro.cells import Transistor, nmos, pmos, total_area, total_width
from repro.errors import LibraryError


class TestConstruction:
    def test_nmos_helper(self):
        t = nmos(2.0)
        assert t.kind == "n"
        assert t.width == pytest.approx(2 * units.WMIN_70NM)
        assert t.length == pytest.approx(units.LMIN_70NM)

    def test_pmos_helper(self):
        t = pmos(1.0)
        assert t.kind == "p"

    def test_bad_kind_rejected(self):
        with pytest.raises(LibraryError):
            Transistor("x", 1e-7)

    def test_bad_width_rejected(self):
        with pytest.raises(LibraryError):
            Transistor("n", -1e-7)

    def test_bad_vt_rejected(self):
        with pytest.raises(LibraryError):
            Transistor("n", 1e-7, vt="mvt")


class TestElectrical:
    def test_area_is_w_times_l(self):
        t = nmos(1.0)
        assert t.area == pytest.approx(units.WMIN_70NM * units.LMIN_70NM)

    def test_gate_cap_scales_with_width(self):
        assert nmos(2.0).gate_cap == pytest.approx(2 * nmos(1.0).gate_cap)

    def test_on_resistance_inverse_width(self):
        assert nmos(2.0).on_resistance == pytest.approx(
            nmos(1.0).on_resistance / 2
        )

    def test_pmos_resistance_pn_ratio(self):
        n = nmos(1.0)
        p = Transistor("p", n.width)
        assert p.on_resistance == pytest.approx(
            n.on_resistance * units.PN_RATIO
        )

    def test_hvt_leakage_reduced(self):
        svt = nmos(1.0)
        hvt = nmos(1.0, vt="hvt")
        assert hvt.off_leakage == pytest.approx(
            svt.off_leakage * units.HVT_LEAKAGE_RATIO
        )

    def test_leakage_matches_technology_constant(self):
        t = Transistor("n", 1 * units.UM)
        assert t.off_leakage == pytest.approx(
            units.ILEAK_PER_WIDTH * units.UM
        )


class TestAggregates:
    def test_total_width(self):
        ts = [nmos(1.0), pmos(2.0)]
        assert total_width(ts) == pytest.approx(3 * units.WMIN_70NM)
        assert total_width(ts, kind="n") == pytest.approx(units.WMIN_70NM)

    def test_total_area(self):
        ts = [nmos(1.0), nmos(1.0)]
        assert total_area(ts) == pytest.approx(
            2 * units.WMIN_70NM * units.LMIN_70NM
        )
