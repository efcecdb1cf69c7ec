"""Partial enhanced scan (Cheng et al. [3] in the paper's references).

A cost/coverage middle ground the paper positions itself against: hold
latches behind only a *subset* of the scan flip-flops.  Two-pattern
tests can then launch transitions from the held flip-flops and the
primary inputs, while the remaining state bits must carry the same
value in V1 and V2 (no transition can be launched from them).

This module provides the transform plus the selection heuristic (hold
the flip-flops whose first-level fanout cones reach the most faults --
approximated by fanout-cone size) and integrates with
:class:`repro.fault.transition.TransitionAtpg` through the
``held_state`` constraint so the coverage/overhead trade-off curve can
be measured (``python -m repro partial``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..errors import DftError
from ..netlist import fanout_cone
from .styles import DftDesign, _insert_hold_elements


def rank_flip_flops(design: DftDesign) -> List[str]:
    """Flip-flops ordered by descending combinational influence.

    Influence is approximated by the size of the flip-flop output's
    fanout cone -- holding the high-influence flip-flops buys the most
    launchable transitions per latch.
    """
    netlist = design.netlist
    return sorted(
        design.scan_chain,
        key=lambda ff: (-len(fanout_cone(netlist, [ff])), ff),
    )


def insert_partial_enhanced(design: DftDesign, fraction: float = 0.5,
                            held: Optional[Sequence[str]] = None,
                            drive: float = 2.0) -> DftDesign:
    """Add hold latches behind a subset of the scan flip-flops.

    Parameters
    ----------
    design:
        A plain ``"scan"`` design.
    fraction:
        Share of flip-flops to enhance (ignored when ``held`` given);
        the highest-influence flip-flops are chosen.
    held:
        Explicit flip-flop names to enhance.

    Returns
    -------
    DftDesign
        Style ``"enhanced"`` with ``hold_elements`` parallel to the
        *held subset* (in chain order); unheld flip-flops keep their
        direct connection to the logic.
    """
    if design.style != "scan":
        raise DftError(
            "partial enhanced scan must start from a plain scan design"
        )
    if held is None:
        if not 0.0 < fraction <= 1.0:
            raise DftError("fraction must be in (0, 1]")
        count = max(1, int(round(fraction * design.n_scan_cells)))
        held = rank_flip_flops(design)[:count]
    held_set = set(held)
    unknown = held_set - set(design.scan_chain)
    if unknown:
        raise DftError(f"not scan flip-flops: {sorted(unknown)}")

    cell = design.library.cell(f"HOLD_LATCH_X{drive:g}")
    return _insert_hold_elements(
        design, "enhanced", cell.name, "hold",
        tuple(ff for ff in design.scan_chain if ff in held_set),
    )
