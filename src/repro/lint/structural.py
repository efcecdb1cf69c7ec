"""Structural rule pack (``NL0xx``): netlist wellformedness.

These rules subsume (and extend) the legacy
:func:`repro.netlist.validate.validation_issues` checks: undriven nets,
undriven outputs, driven primary inputs, dangling gates, combinational
loops -- plus duplicate gate definitions and multiply-driven nets (which
the single-driver :class:`~repro.netlist.Netlist` cannot even represent,
so they are checked against the raw ``.bench`` source records), fanout
limits, and unreachable logic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List

from ..netlist import Netlist
from .diagnostics import Diagnostic, Severity
from .rules import LintContext, Rule, register


def _has_combinational_cycle(netlist: Netlist) -> bool:
    """Depth-first search along fanin pins over the combinational core,
    tolerating undriven fanin nets (their absence is NL001's finding,
    not a cycle).  A cycle shows as a pin back to a gate still on the
    search path; each gate record is visited once."""
    gates = {gate.name: gate for gate in netlist.gates()
             if gate.is_combinational}
    done = set()
    for root, gate in gates.items():
        if root in done:
            continue
        path = {root}
        stack = [(root, iter(gate.fanin))]
        while stack:
            name, pins = stack[-1]
            for net in pins:
                driver = gates.get(net)
                if driver is None or net in done:
                    continue
                if net in path:
                    return True
                path.add(net)
                stack.append((net, iter(driver.fanin)))
                break
            else:
                stack.pop()
                path.discard(name)
                done.add(name)
    return False


def _reaches_core_outputs(netlist: Netlist) -> set:
    """Nets in the transitive fanin of any core output, tolerating
    undriven fanin nets."""
    seen = set()
    stack = [net for net in netlist.core_outputs if netlist.has_net(net)]
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        driver = netlist.gate(net)
        if driver.is_combinational:
            stack.extend(
                fanin for fanin in driver.fanin if netlist.has_net(fanin)
            )
    return seen


@register
class UndrivenNetRule(Rule):
    """A gate fanin references a net no gate drives."""

    rule_id = "NL001"
    title = "gate fanin references an undriven net"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        for gate in netlist.gates():
            for net in gate.fanin:
                if not netlist.has_net(net):
                    yield self.diag(
                        ctx,
                        f"gate {gate.name!r} references undriven net {net!r}",
                        gate=gate.name,
                        hint=f"define a driver for {net!r} or rewire the pin",
                    )


@register
class UndrivenOutputRule(Rule):
    """A declared primary output has no driver."""

    rule_id = "NL002"
    title = "primary output is undriven"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        for net in netlist.outputs:
            if not netlist.has_net(net):
                yield self.diag(
                    ctx,
                    f"primary output {net!r} is undriven",
                    net=net,
                    hint="drive the output or drop the OUTPUT declaration",
                )


@register
class DrivenInputRule(Rule):
    """A declared primary input is driven by logic."""

    rule_id = "NL003"
    title = "primary input is driven by a gate"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        for net in netlist.inputs:
            gate = netlist.gate(net)
            if not gate.is_input:
                yield self.diag(
                    ctx,
                    f"primary input {net!r} is driven by a {gate.func}",
                    net=net,
                )


@register
class DanglingGateRule(Rule):
    """A logic gate drives nothing: no sink, not an output."""

    rule_id = "NL004"
    title = "gate output drives nothing"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        pos = set(netlist.outputs)
        state_outs = set(netlist.state_outputs)
        for gate in netlist.gates():
            if gate.is_input or gate.is_dff:
                continue
            if (
                not netlist.fanout_count(gate.name)
                and gate.name not in pos
                and gate.name not in state_outs
            ):
                yield self.diag(
                    ctx,
                    f"gate {gate.name!r} drives nothing",
                    gate=gate.name,
                    hint="remove the gate or connect its output",
                )


@register
class CombinationalLoopRule(Rule):
    """The combinational core contains a cycle."""

    rule_id = "NL005"
    title = "combinational loop"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if _has_combinational_cycle(ctx.netlist):
            yield self.diag(
                ctx,
                "combinational core contains a cycle",
                hint="break the loop with a flip-flop or rewire the feedback",
            )


@register
class DuplicateDefinitionRule(Rule):
    """The same gate name is defined more than once in the source."""

    rule_id = "NL006"
    title = "duplicate gate definition"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if not ctx.records:
            return
        first_line: Dict[str, int] = {}
        for record in ctx.records:
            if record.kind != "gate":
                continue
            if record.name in first_line:
                yield self.diag(
                    ctx,
                    f"gate {record.name!r} defined again "
                    f"(first definition at line {first_line[record.name]})",
                    gate=record.name,
                    line=record.line,
                    hint="delete or rename one of the definitions",
                )
            else:
                first_line[record.name] = record.line


@register
class MultiplyDrivenNetRule(Rule):
    """A net has more than one distinct driver kind (INPUT vs gate)."""

    rule_id = "NL007"
    title = "multiply-driven net"
    severity = Severity.ERROR
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        if not ctx.records:
            return
        drivers: Dict[str, List] = defaultdict(list)
        for record in ctx.records:
            if record.kind in ("input", "gate"):
                drivers[record.name].append(record)
        for net, records in drivers.items():
            kinds = {record.kind for record in records}
            # Duplicate *gate* definitions are NL006's finding; this rule
            # reports nets with conflicting driver kinds or repeated
            # INPUT declarations.
            if len(records) > 1 and (kinds != {"gate"}):
                described = ", ".join(
                    f"{r.kind.upper()} at line {r.line}" for r in records
                )
                yield self.diag(
                    ctx,
                    f"net {net!r} is multiply driven ({described})",
                    net=net,
                    line=records[-1].line,
                    hint="a net must have exactly one driver",
                )


@register
class FanoutLimitRule(Rule):
    """A net drives more sinks than the configured fanout limit."""

    rule_id = "NL008"
    title = "fanout limit exceeded"
    severity = Severity.WARNING
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        limit = ctx.max_fanout
        if limit <= 0:
            return
        for name in netlist.gate_names():
            count = netlist.fanout_count(name)
            if count > limit:
                yield self.diag(
                    ctx,
                    f"net {name!r} drives {count} sinks "
                    f"(limit {limit})",
                    net=name,
                    hint="insert a buffer tree or raise --max-fanout",
                )


@register
class UnreachableGateRule(Rule):
    """A gate drives other logic but never reaches any core output."""

    rule_id = "NL009"
    title = "gate unreachable from any output"
    severity = Severity.WARNING
    category = "structural"

    def check(self, ctx: LintContext) -> Iterator[Diagnostic]:
        netlist = ctx.netlist
        reached = _reaches_core_outputs(netlist)
        for gate in netlist.combinational_gates():
            if gate.name in reached:
                continue
            # Gates with no fanout at all are NL004 (dangling); this
            # rule flags live-looking logic that feeds a dead region.
            if netlist.fanout(gate.name):
                yield self.diag(
                    ctx,
                    f"gate {gate.name!r} drives logic that reaches no "
                    "primary or state output",
                    gate=gate.name,
                    hint="dead logic region; remove it or connect it",
                )
