"""Tests for the standard-cell library."""

import pytest

from repro import units
from repro.cells import (
    Library,
    default_library,
    leda_70nm,
    make_flh_keeper,
    make_gating_pair,
    make_hold_latch,
    make_inverter,
    make_mux2,
    make_nand,
    make_nor,
)
from repro.errors import LibraryError


class TestLibraryContainer:
    def test_default_library_is_shared(self):
        assert default_library() is default_library()

    def test_expected_cells_present(self, library):
        for name in (
            "INV_X1", "INV_X2", "NAND2_X1", "NAND4_X2", "NOR3_X1",
            "AOI21_X1", "OAI22_X1", "MUX2_X2", "XOR2_X1",
            "DFF_X1", "SDFF_X1", "HOLD_LATCH_X2", "FLH_KEEPER",
        ):
            assert name in library

    def test_unknown_cell_raises(self, library):
        with pytest.raises(LibraryError):
            library.cell("FOO_X9")

    def test_duplicate_rejected(self):
        inv = make_inverter()
        with pytest.raises(LibraryError):
            Library("dup", [inv, inv])

    def test_for_func_simple(self, library):
        assert library.for_func("NAND", 3).name == "NAND3_X1"
        assert library.for_func("NOT", 1, drive=2.0).name == "INV_X2"
        assert library.for_func("AND", 2).name == "AND2_X1"

    def test_for_func_degenerate_arity(self, library):
        assert library.for_func("NAND", 1).name == "INV_X1"
        assert library.for_func("OR", 1).name == "BUF_X1"

    def test_for_func_complex(self, library):
        assert library.for_func("AOI22", 4).name == "AOI22_X1"

    def test_for_func_unknown_raises(self, library):
        with pytest.raises(LibraryError):
            library.for_func("MAJ", 3)


class TestCellElectrical:
    def test_inverter_drive_resistance_balanced(self):
        inv = make_inverter(1.0)
        r_n = units.RSW_PER_WIDTH / units.WMIN_70NM
        assert inv.drive_resistance == pytest.approx(r_n)

    def test_x2_has_half_resistance(self):
        assert make_inverter(2.0).drive_resistance == pytest.approx(
            make_inverter(1.0).drive_resistance / 2
        )

    def test_nand_stack_sized_for_unit_drive(self):
        nand3 = make_nand(3)
        inv = make_inverter()
        assert nand3.drive_resistance == pytest.approx(
            inv.drive_resistance, rel=0.01
        )

    def test_nor_stack_sized_for_unit_drive(self):
        assert make_nor(4).drive_resistance == pytest.approx(
            make_inverter().drive_resistance, rel=0.01
        )

    def test_wider_gates_have_more_area(self):
        assert make_nand(4).area > make_nand(2).area

    def test_delay_increases_with_load(self):
        inv = make_inverter()
        assert inv.delay(10 * units.FF) > inv.delay(1 * units.FF)

    def test_leakage_positive(self, library):
        for cell in library:
            assert cell.leakage_power > 0.0

    def test_input_cap_positive_for_logic(self, library):
        for cell in library:
            if cell.n_inputs > 0 and cell.func is not None:
                assert cell.input_cap > 0.0


class TestDftCells:
    def test_paper_area_ranking_per_ff(self):
        """Enhanced-scan latch > MUX per flip-flop (Table I ordering)."""
        latch = make_hold_latch(2.0)
        mux = make_mux2(2.0)
        assert latch.area > mux.area

    def test_flh_per_gate_cost_below_latch(self):
        """Keeper + default gating pair beats the hold latch per unit."""
        keeper = make_flh_keeper()
        header, footer = make_gating_pair(2.0)
        flh_per_gate = keeper.area + header.area + footer.area
        assert flh_per_gate < make_hold_latch(2.0).area

    def test_keeper_is_high_vt(self):
        keeper = make_flh_keeper()
        assert all(t.vt == "hvt" for t in keeper.transistors)
        assert all(t.role == "keeper" for t in keeper.transistors)

    def test_mux_is_slowest_element(self):
        """TG in the data path: MUX delay > latch delay (Table II)."""
        load = 5 * units.FF
        assert make_mux2(2.0).delay(load) > make_hold_latch(2.0).delay(load)

    def test_sdff_bigger_than_dff(self, library):
        assert library.cell("SDFF_X1").area > library.cell("DFF_X1").area

    def test_sequential_cells_flagged(self, library):
        for name in ("DFF_X1", "SDFF_X1", "HOLD_LATCH_X1", "FLH_KEEPER"):
            assert library.cell(name).seq

    def test_dff_has_clock_cap(self, library):
        assert library.cell("DFF_X1").clock_cap > 0.0
        assert library.cell("DFF_X1").clock_energy() > 0.0

    def test_gating_pair_widths(self):
        header, footer = make_gating_pair(3.0)
        assert header.kind == "p" and footer.kind == "n"
        assert header.role == "gating"
        assert footer.width == pytest.approx(3 * units.WMIN_70NM)
        assert header.width == pytest.approx(
            3 * units.PN_RATIO * units.WMIN_70NM
        )
