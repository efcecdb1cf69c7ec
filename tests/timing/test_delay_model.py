"""Tests for the load/delay model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.errors import TimingError
from repro.netlist import Netlist
from repro.synth import map_netlist
from repro.timing import (
    DelayOverlay,
    WIRE_CAP_PER_FANOUT,
    gate_delay,
    load_on_net,
)
from repro.timing.delay_model import net_loads
from repro.cells import default_library

from .test_incremental import flh_like_overlay, scan_design


@pytest.fixture
def mapped_chain(library):
    n = Netlist("chain")
    n.add_input("a")
    n.add("g1", "NOT", ("a",))
    n.add("g2", "NOT", ("g1",))
    n.add_output("g2")
    return map_netlist(n, library)


class TestLoad:
    def test_load_counts_sink_pin_caps(self, mapped_chain, library):
        inv = library.cell("INV_X1")
        load = load_on_net(mapped_chain, library, "g1")
        assert load == pytest.approx(inv.input_cap + WIRE_CAP_PER_FANOUT)

    def test_load_of_sinkless_net_zero(self, mapped_chain, library):
        assert load_on_net(mapped_chain, library, "g2") == 0.0

    def test_multiplicity_counted(self, library):
        n = Netlist("dup")
        n.add_input("a")
        n.add("g1", "NOT", ("a",))
        n.add("g2", "AND", ("g1", "g1"))
        n.add_output("g2")
        mapped = map_netlist(n, library)
        single = Netlist("single")
        single.add_input("a")
        single.add("g1", "NOT", ("a",))
        single.add("g2", "AND", ("g1", "a"))
        single.add_output("g2")
        mapped_single = map_netlist(single, library)
        assert load_on_net(mapped, library, "g1") > load_on_net(
            mapped_single, library, "g1"
        )

    def test_overlay_load_added(self, mapped_chain, library):
        overlay = DelayOverlay(extra_load={"g1": 5 * units.FF})
        assert load_on_net(mapped_chain, library, "g1", overlay) == (
            pytest.approx(load_on_net(mapped_chain, library, "g1") + 5 * units.FF)
        )


def assert_sweep_matches(netlist, library, overlay):
    loads = net_loads(netlist, library, overlay)
    assert list(loads) == list(netlist.gate_names())
    for net in netlist.gate_names():
        assert loads[net] == load_on_net(netlist, library, net, overlay)


class TestLoadSweep:
    """``net_loads`` must equal ``load_on_net`` bit for bit."""

    @given(design=scan_design(), with_overlay=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_generated_designs(self, design, with_overlay):
        overlay = flh_like_overlay(design) if with_overlay else None
        assert_sweep_matches(design.netlist, design.library, overlay)

    def test_repeated_pin_and_cell_less_flip_flop(self, library):
        nand = library.for_func("NAND", 2).name
        n = Netlist("pins")
        n.add_input("a")
        n.add_input("b")
        n.add("g", "NAND", ("a", "a"), cell=nand)  # a on two pins
        n.add("h", "NAND", ("b", "a"), cell=nand)
        n.add("q", "DFF", ("g",))  # no cell: 0.5 fF
        n.add("y", "NAND", ("q", "h"), cell=nand)
        n.add_output("y")
        overlay = DelayOverlay(extra_load={"a": 1.0 * units.FF,
                                           "g": 2.0 * units.FF})
        for extra in (None, overlay):
            assert_sweep_matches(n, library, extra)
        assert load_on_net(n, library, "g") == (
            0.5 * units.FF + WIRE_CAP_PER_FANOUT
        )


class TestGateDelay:
    def test_positive(self, mapped_chain, library):
        assert gate_delay(mapped_chain, library, "g1") > 0.0

    def test_input_has_zero_delay(self, mapped_chain, library):
        assert gate_delay(mapped_chain, library, "a") == 0.0

    def test_overlay_resistance_slows(self, mapped_chain, library):
        base = gate_delay(mapped_chain, library, "g1")
        overlay = DelayOverlay(extra_resistance={"g1": 10e3})
        assert gate_delay(mapped_chain, library, "g1", overlay) > base

    def test_unmapped_rejected(self, s27_netlist, library):
        with pytest.raises(TimingError):
            gate_delay(s27_netlist, library, "G14")

    def test_overlay_merge(self):
        a = DelayOverlay({"x": 1.0}, {"x": 2.0})
        b = DelayOverlay({"x": 3.0, "y": 1.0}, {})
        merged = a.merged_with(b)
        assert merged.extra_resistance == {"x": 4.0, "y": 1.0}
        assert merged.extra_load == {"x": 2.0}
