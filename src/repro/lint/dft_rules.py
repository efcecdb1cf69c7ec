"""DFT / FLH rule pack (``DF0xx`` scan-chain, ``FL0xx`` holding).

These rules check the invariants the paper's transforms must establish:

* the scan chain covers every flip-flop exactly once and (when a
  declared order is provided) in the declared order;
* FLH supply-gates *every* unique first-level gate of the scan
  flip-flops, gates *only* first-level gates, and puts a keeper behind
  every gated gate (paper Fig. 3 -- without the keeper, leakage or
  charge sharing can flip the held response during the scan of V2);
* enhanced-scan / MUX-hold designs isolate every held flip-flop behind
  its holding element, and partial enhanced scan's held subset is
  consistent with the chain.

Every rule no-ops when its subject is absent (e.g. on a bare netlist
with no :class:`~repro.dft.styles.DftDesign`), so the two packs can
always run together.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Set

from ..netlist import first_level_gates
from .diagnostics import Diagnostic, Severity
from .rules import LintContext, Rule, register

#: Styles that carry a scan chain at all.
_SCANNED_STYLES = ("scan", "enhanced", "mux", "flh")

#: Styles whose holding element sits behind held flip-flops.
_HOLDING_STYLES = ("enhanced", "mux")


@register
class ChainCoverageRule(Rule):
    """Every flip-flop of a scanned design must be on the scan chain."""

    rule_id = "DF001"
    title = "flip-flop missing from the scan chain"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style not in _SCANNED_STYLES:
            return
        chain = set(design.scan_chain)
        for gate in ctx.netlist.dffs():
            if gate.name not in chain:
                yield self.diag(
                    ctx,
                    f"flip-flop {gate.name!r} is not on the scan chain",
                    gate=gate.name,
                    hint="re-run scan insertion or add it to chain_order",
                )


@register
class ChainMembershipRule(Rule):
    """Every scan-chain entry must name a flip-flop of the netlist."""

    rule_id = "DF002"
    title = "scan-chain entry is not a flip-flop"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style not in _SCANNED_STYLES:
            return
        netlist = ctx.netlist
        for name in design.scan_chain:
            if not netlist.has_net(name):
                yield self.diag(
                    ctx,
                    f"scan chain names {name!r} which is not in the netlist",
                    gate=name,
                )
            elif not netlist.gate(name).is_dff:
                yield self.diag(
                    ctx,
                    f"scan chain entry {name!r} is a "
                    f"{netlist.gate(name).func}, not a flip-flop",
                    gate=name,
                )


@register
class ChainDuplicateRule(Rule):
    """No flip-flop may appear on the scan chain more than once."""

    rule_id = "DF003"
    title = "flip-flop duplicated on the scan chain"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style not in _SCANNED_STYLES:
            return
        for name, count in Counter(design.scan_chain).items():
            if count > 1:
                yield self.diag(
                    ctx,
                    f"flip-flop {name!r} appears {count} times on the "
                    "scan chain",
                    gate=name,
                    hint="each scan cell shifts exactly once per cycle",
                )


@register
class ChainOrderRule(Rule):
    """The scan chain must match the externally declared order."""

    rule_id = "DF004"
    title = "scan-chain order mismatch"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or ctx.expected_chain is None:
            return
        expected = tuple(ctx.expected_chain)
        actual = tuple(design.scan_chain)
        if expected == actual:
            return
        if sorted(expected) != sorted(actual):
            yield self.diag(
                ctx,
                "scan chain and declared order contain different "
                f"flip-flops (chain has {len(actual)}, declared "
                f"{len(expected)})",
            )
            return
        for position, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                yield self.diag(
                    ctx,
                    f"scan chain position {position} holds {got!r} but the "
                    f"declared order expects {want!r}",
                    gate=got,
                    hint="re-stitch the chain or fix the declared order",
                )
                break


@register
class FlhCoverageRule(Rule):
    """FLH must supply-gate every unique first-level gate."""

    rule_id = "FL001"
    title = "first-level gate not supply-gated"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style != "flh":
            return
        gated = set(design.flh_gating)
        for name in first_level_gates(ctx.netlist):
            if name not in gated:
                yield self.diag(
                    ctx,
                    f"first-level gate {name!r} of a scan flip-flop is not "
                    "supply-gated",
                    gate=name,
                    hint="FLH must gate every unique first-level gate, or "
                    "the held response can glitch during the scan of V2",
                )


@register
class FlhKeeperRule(Rule):
    """Every supply-gated gate must carry its keeper."""

    rule_id = "FL002"
    title = "keeper missing on a supply-gated gate"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style != "flh":
            return
        for name, record in design.flh_gating.items():
            if not getattr(record, "keeper", True):
                yield self.diag(
                    ctx,
                    f"supply-gated gate {name!r} has no keeper",
                    gate=name,
                    hint="the keeper (Fig. 3) pins the floating output; "
                    "without it leakage can flip the held value",
                )


@register
class FlhTargetRule(Rule):
    """Only first-level gates may be supply-gated."""

    rule_id = "FL003"
    title = "supply gating on a non-first-level gate"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style != "flh":
            return
        netlist = ctx.netlist
        allowed: Set[str] = set(first_level_gates(netlist))
        for name in design.flh_gating:
            if not netlist.has_net(name):
                yield self.diag(
                    ctx,
                    f"gating record targets {name!r} which is not in the "
                    "netlist",
                    gate=name,
                )
            elif name not in allowed:
                yield self.diag(
                    ctx,
                    f"gate {name!r} is supply-gated but is not a "
                    "first-level gate of any scan flip-flop",
                    gate=name,
                    hint="gating deeper gates adds overhead without "
                    "holding anything; FLH gates the first level only",
                )


@register
class FlhWidthRule(Rule):
    """Gating-pair width factors must be physically sensible."""

    rule_id = "FL004"
    title = "implausible gating-pair width factor"
    severity = Severity.WARNING
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style != "flh":
            return
        for name, record in design.flh_gating.items():
            factor = getattr(record, "width_factor", 1.0)
            if factor <= 0 or factor > 64:
                yield self.diag(
                    ctx,
                    f"gating pair of {name!r} has width factor {factor:g}",
                    gate=name,
                    hint="expected a multiple of the minimum width in "
                    "(0, 64]",
                )


@register
class HoldCoverageRule(Rule):
    """Each held flip-flop must be isolated behind its holding element."""

    rule_id = "FL005"
    title = "held flip-flop not isolated by its holding element"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style not in _HOLDING_STYLES:
            return
        netlist = ctx.netlist
        held = tuple(design.held_flip_flops)
        elements = tuple(design.hold_elements)
        if len(held) != len(elements):
            yield self.diag(
                ctx,
                f"{len(held)} held flip-flops but {len(elements)} holding "
                "elements",
                hint="hold_elements must be parallel to held_flip_flops",
            )
            return
        for ff, element in zip(held, elements):
            if not netlist.has_net(element):
                yield self.diag(
                    ctx,
                    f"holding element {element!r} of flip-flop {ff!r} is "
                    "not in the netlist",
                    gate=element,
                )
                continue
            gate = netlist.gate(element)
            if tuple(gate.fanin) != (ff,):
                yield self.diag(
                    ctx,
                    f"holding element {element!r} is not fed by its "
                    f"flip-flop {ff!r}",
                    gate=element,
                )
                continue
            leaks = sorted(
                sink for sink in netlist.fanout(ff) if sink != element
            )
            if leaks:
                yield self.diag(
                    ctx,
                    f"flip-flop {ff!r} drives logic directly, bypassing "
                    f"its holding element ({', '.join(map(repr, leaks))})",
                    gate=ff,
                    hint="every logic sink must be behind the holding "
                    "element or V1 is lost while V2 scans in",
                )


@register
class PartialSelectionRule(Rule):
    """Partial-enhanced held subset must be consistent with the chain."""

    rule_id = "FL006"
    title = "inconsistent partial-enhanced selection"
    severity = Severity.ERROR
    category = "dft"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        design = ctx.design
        if design is None or design.style not in _HOLDING_STYLES:
            return
        chain = tuple(design.scan_chain)
        held = tuple(design.held_flip_flops)
        chain_set = set(chain)
        for name, count in Counter(held).items():
            if count > 1:
                yield self.diag(
                    ctx,
                    f"flip-flop {name!r} held {count} times",
                    gate=name,
                )
        for name in held:
            if name not in chain_set:
                yield self.diag(
                    ctx,
                    f"held flip-flop {name!r} is not on the scan chain",
                    gate=name,
                    hint="only scan flip-flops can be enhanced",
                )
        in_chain_order = [ff for ff in chain if ff in set(held)]
        if sorted(held) == sorted(in_chain_order) and \
                list(held) != in_chain_order:
            yield self.diag(
                ctx,
                "held flip-flops are not listed in scan-chain order",
                hint="keep held_flip_flops parallel to the chain so "
                "hold_elements line up",
                severity=Severity.WARNING,
            )
