"""Common data model for design-for-test transformed designs.

A :class:`DftDesign` bundles the (possibly modified) netlist with the
style-specific bookkeeping every analysis needs: which flip-flops form
the scan chain, which holding elements were inserted (enhanced scan /
MUX-hold), or which first-level gates carry supply gating (FLH).

The three holding styles the paper compares:

``enhanced``
    hold latch after every scan flip-flop (classic enhanced scan);
``mux``
    MUX-based holding element after every scan flip-flop ([13]);
``flh``
    First Level Hold: supply gating plus keeper on every unique
    first-level gate -- the paper's contribution.

``scan`` (plain full scan, no holding) is the overhead baseline, and
``none`` denotes the unscanned original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..cells import Library, default_library
from ..netlist import Netlist

#: Recognized style identifiers.
STYLES = ("none", "scan", "enhanced", "mux", "flh")

#: Styles that support arbitrary two-pattern (V1, V2) test application.
ARBITRARY_TWO_PATTERN_STYLES = ("enhanced", "mux", "flh")


@dataclass(frozen=True)
class FlhGating:
    """Supply gating attached to one first-level gate.

    ``width_factor`` sizes the header/footer pair in multiples of the
    minimum width; critical-path gates get a larger factor (paper,
    Section III: sizing "optimized for delay under the given area
    constraint").  ``keeper`` records whether the minimum-sized keeper
    (Fig. 3) backs the gated output -- the transform always adds one,
    but the flag keeps the invariant checkable (lint rule ``FL002``).
    """

    gate: str
    width_factor: float
    critical: bool = False
    keeper: bool = True


@dataclass
class DftDesign:
    """A netlist plus the DFT bookkeeping of one style."""

    netlist: Netlist
    style: str
    library: Library = field(default_factory=default_library)
    #: Flip-flop (gate) names in scan-chain order, scan-in first.
    scan_chain: Tuple[str, ...] = ()
    #: Inserted holding-element gate names, parallel to ``held_flip_flops``
    #: (enhanced / mux styles only).
    hold_elements: Tuple[str, ...] = ()
    #: Flip-flops with a holding element in front of the logic.  Equals
    #: the whole chain for full enhanced scan / MUX-hold; a subset for
    #: partial enhanced scan.
    held_flip_flops: Tuple[str, ...] = ()
    #: FLH gating records keyed by first-level gate name (flh only).
    flh_gating: Dict[str, FlhGating] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.style not in STYLES:
            raise ValueError(f"unknown DFT style {self.style!r}")

    @property
    def name(self) -> str:
        """Design name (delegates to the netlist)."""
        return self.netlist.name

    @property
    def n_scan_cells(self) -> int:
        """Length of the scan chain."""
        return len(self.scan_chain)

    @property
    def supports_arbitrary_two_pattern(self) -> bool:
        """True if any (V1, V2) pair can be applied to the core.

        Partial enhanced scan (a strict subset of held flip-flops) can
        only launch transitions from the held bits.
        """
        if self.style not in ARBITRARY_TWO_PATTERN_STYLES:
            return False
        if self.style == "enhanced" and self.held_flip_flops:
            return set(self.held_flip_flops) >= set(self.scan_chain)
        return True

    def describe(self) -> str:
        """One-line human-readable summary."""
        extras = ""
        if self.hold_elements:
            extras = f", {len(self.hold_elements)} holding elements"
        if self.flh_gating:
            n_crit = sum(1 for g in self.flh_gating.values() if g.critical)
            extras = (
                f", {len(self.flh_gating)} gated first-level gates "
                f"({n_crit} critical-path upsized)"
            )
        return (
            f"{self.name} [{self.style}]: "
            f"{self.n_scan_cells} scan cells{extras}"
        )


def _insert_hold_elements(design: DftDesign, style: str, cell: str,
                          suffix: str, held: Tuple[str, ...]) -> DftDesign:
    """A copy of scan ``design`` with a hold element behind each of ``held``.

    The holding transforms (enhanced scan, MUX-hold, partial enhanced
    scan) differ only in the arguments: ``held`` lists the flip-flops in
    chain order, and each gets a new ``BUF`` gate named
    ``<flip-flop>_<suffix>`` (made unique), bound to ``cell``, whose only
    fanin is that flip-flop and which takes over every gate sink the
    flip-flop had.  A flip-flop output that is also a primary output
    keeps its direct connection; the element only guards the logic
    inputs.  The result passes the DFT lint pack's self-check.

    Invariant: the netlist is a copy of the scan netlist whose only
    edits are these elements and their redirected sinks
    (:meth:`~repro.netlist.Netlist.edits_since`).  An element is
    transparent in normal mode, so it toggles exactly when its
    flip-flop does and every other net keeps its scan-design waveform.
    :func:`~repro.dft.overhead.compare_power` relies on this to give
    each element its flip-flop's switching activity from the one scan
    run, and :func:`~repro.dft.overhead.compare_delay` to re-time the
    copy from the scan timing.
    """
    netlist = design.netlist.copy(design.netlist.name)
    hold_elements: List[str] = []
    for ff in held:
        hold_net = netlist.fresh_net(f"{ff}_{suffix}")
        sinks = netlist.fanout(ff)
        netlist.add(hold_net, "BUF", (ff,), cell=cell)
        netlist.redirect_fanout(ff, hold_net, only=sinks)
        hold_elements.append(hold_net)
    result = DftDesign(
        netlist=netlist,
        style=style,
        library=design.library,
        scan_chain=design.scan_chain,
        hold_elements=tuple(hold_elements),
        held_flip_flops=held,
    )
    # Post-transform self-check: each held flip-flop isolated behind
    # its element, the held subset consistent with the intact chain.
    from ..lint import self_check
    self_check(result)
    return result
