"""Enhanced-scan transform: a hold latch after every scan flip-flop.

The hold latch (paper Fig. 1(b) / Fig. 6(a)) sits in the stimulus path
between the scan flip-flop and the combinational logic.  It stores the
initialization pattern V1 while V2 is scanned in, enabling arbitrary
two-pattern tests -- at the cost of an extra level of logic in every
register-to-logic path during *normal* operation, plus its area and
switching power.  Those three costs are exactly what Tables I-III
charge to this scheme.

Structurally the latch is inserted as a ``BUF``-function gate bound to
the ``HOLD_LATCH`` cell: in normal mode the latch is transparent, so the
buffer function is its exact logical behaviour while the cell's
electrical parameters (delay, area, power) model the real element.
"""

from __future__ import annotations

from ..errors import DftError
from .styles import DftDesign, _insert_hold_elements


def insert_enhanced_scan(design: DftDesign,
                         drive: float = 2.0) -> DftDesign:
    """Add a hold latch behind every scan flip-flop.

    Parameters
    ----------
    design:
        A ``"scan"``-style design from :func:`repro.dft.scan.insert_scan`.
    drive:
        Drive strength of the hold-latch output inverter (X2 default --
        it must drive whatever the flip-flop drove).

    Returns
    -------
    DftDesign
        Style ``"enhanced"``; hold elements listed in chain order.
    """
    if design.style != "scan":
        raise DftError(
            f"enhanced scan must start from a plain scan design, got "
            f"{design.style!r}"
        )
    cell = design.library.cell(f"HOLD_LATCH_X{drive:g}")
    return _insert_hold_elements(design, "enhanced", cell.name, "hold",
                                 design.scan_chain)
