"""MUX-based holding transform (Zhang et al. [13], paper Fig. 1(b)).

A 2:1 multiplexer after each scan flip-flop either passes the flip-flop
output (normal mode) or recirculates its own output (hold mode).  It is
smaller than the hold latch but its transmission gate sits in series
with the data path, making it the *slowest* of the three schemes --
Table II's "MUX-based method shows the largest increase".

As with the hold latch, the element is inserted as a ``BUF``-function
gate (transparent in normal mode) bound to the ``MUX2`` cell for its
electrical character.
"""

from __future__ import annotations

from ..errors import DftError
from .styles import DftDesign, _insert_hold_elements


def insert_mux_hold(design: DftDesign, drive: float = 2.0) -> DftDesign:
    """Add a recirculating MUX behind every scan flip-flop.

    Parameters mirror
    :func:`repro.dft.enhanced_scan.insert_enhanced_scan`.
    """
    if design.style != "scan":
        raise DftError(
            f"MUX holding must start from a plain scan design, got "
            f"{design.style!r}"
        )
    cell = design.library.cell(f"MUX2_X{drive:g}")
    return _insert_hold_elements(design, "mux", cell.name, "mux",
                                 design.scan_chain)
