"""Structural validation of netlists.

Since the lint framework landed this module is a thin compatibility
wrapper: the checks themselves live in the ``NL0xx`` structural rule
pack (:mod:`repro.lint.structural`) so that ad-hoc validation, the
``python -m repro lint`` CLI, and CI all agree on one implementation.

:func:`validation_issues` still returns plain strings (every
error-severity finding, complete rather than fail-fast, because DFT
transforms are easiest to debug with the full list of dangling nets /
floating gates in one shot); use :func:`repro.lint.lint_netlist` when
you want the structured diagnostics instead.
"""

from __future__ import annotations

from typing import List

from ..errors import NetlistError
from .netlist import Netlist


def validation_issues(netlist: Netlist) -> List[str]:
    """Return a list of human-readable structural problems (empty = OK).

    Runs the structural lint pack's error rules and renders their
    findings as bare messages.  Warnings (fanout limits, unreachable
    logic) are advisory and not included -- :func:`validate` must stay
    permissive on designs that are merely suspicious.  No structural
    rule reports at other than its own severity, so the warning rules
    are not run at all.
    """
    from ..lint import LintContext, LintEngine, Severity, rules_by_category

    rules = [rule for rule in rules_by_category("structural")
             if rule.severity is Severity.ERROR]
    report = LintEngine(rules=rules).run(LintContext(netlist=netlist))
    return [diag.message for diag in report.errors]


def validate(netlist: Netlist) -> None:
    """Raise :class:`~repro.errors.NetlistError` if the netlist is broken."""
    issues = validation_issues(netlist)
    if issues:
        summary = "; ".join(issues[:10])
        more = f" (+{len(issues) - 10} more)" if len(issues) > 10 else ""
        raise NetlistError(f"{netlist.name}: {summary}{more}")
