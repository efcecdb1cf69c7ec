"""Reproduction of "A Novel Low-overhead Delay Testing Technique for
Arbitrary Two-Pattern Test Application" (DATE 2005).

The paper's contribution is **First Level Hold (FLH)**: instead of a
hold latch behind every scan flip-flop (enhanced scan), the supply rails
of the *first-level* logic gates are gated so the combinational circuit
holds its own response to the initialization pattern while the launch
pattern is scanned in.  This package implements the technique and every
substrate its evaluation needs.

Quickstart::

    from repro.bench import load_circuit
    from repro.dft import build_all_styles, compare_area

    designs = build_all_styles(load_circuit("s298"))
    print(compare_area(designs).as_row())

Subpackages
-----------
``repro.netlist``      gate-level netlist model and graph algorithms
``repro.bench``        ISCAS89 substrate (format I/O + reconstruction)
``repro.cells``        standard-cell library, transistor-level area
``repro.synth``        technology mapping and resynthesis
``repro.timing``       static timing analysis
``repro.power``        logic simulation, activity, power models
``repro.spice``        transient electrical simulation (Figs. 2/4)
``repro.dft``          scan, enhanced scan, MUX-hold, FLH, fanout opt.
``repro.fault``        stuck-at/transition faults, PODEM, fault sim
``repro.testapp``      scan-chain shifting and two-pattern protocols
``repro.experiments``  one driver per paper table / figure
"""

__version__ = "1.0.0"

from . import units
from .errors import (
    AtpgError,
    DftError,
    LibraryError,
    MappingError,
    NetlistError,
    ParseError,
    ReproError,
    SimulationError,
    TimingError,
)

__all__ = [
    "AtpgError",
    "DftError",
    "LibraryError",
    "MappingError",
    "NetlistError",
    "ParseError",
    "ReproError",
    "SimulationError",
    "TimingError",
    "units",
    "__version__",
]
