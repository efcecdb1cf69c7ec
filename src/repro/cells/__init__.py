"""Standard-cell library with transistor-level area accounting.

Public surface::

    from repro.cells import Cell, Transistor, Library, default_library
    from repro.cells import make_hold_latch, make_flh_keeper, make_gating_pair
"""

from .cell import Cell
from .library import (
    Library,
    default_library,
    leda_70nm,
    make_aoi21,
    make_aoi22,
    make_and,
    make_buffer,
    make_dff,
    make_flh_keeper,
    make_gating_pair,
    make_hold_latch,
    make_inverter,
    make_mux2,
    make_nand,
    make_nor,
    make_oai21,
    make_oai22,
    make_or,
    make_xor,
)
from .transistor import (
    Transistor,
    inverter_pair,
    nmos,
    pmos,
    total_area,
    total_width,
)

__all__ = [
    "Cell",
    "Library",
    "Transistor",
    "default_library",
    "inverter_pair",
    "leda_70nm",
    "make_aoi21",
    "make_aoi22",
    "make_and",
    "make_buffer",
    "make_dff",
    "make_flh_keeper",
    "make_gating_pair",
    "make_hold_latch",
    "make_inverter",
    "make_mux2",
    "make_nand",
    "make_nor",
    "make_oai21",
    "make_oai22",
    "make_or",
    "make_xor",
    "nmos",
    "pmos",
    "total_area",
    "total_width",
]
