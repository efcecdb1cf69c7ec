"""Each NL rule is seeded with its violation and must fire by ID."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.parser import parse_bench_lenient
from repro.lint import DEFAULT_MAX_FANOUT, LintContext, LintEngine, lint_netlist
from repro.lint.structural import _has_combinational_cycle
from repro.netlist import Netlist


def rule_ids(report):
    return {diag.rule_id for diag in report.diagnostics}


def test_clean_s27_has_no_findings(s27_netlist):
    report = lint_netlist(s27_netlist)
    assert report.diagnostics == []
    assert not report.has_errors
    assert report.summary() == "clean"


def test_nl001_undriven_net():
    n = Netlist("bad")
    n.add_input("a")
    n.add("g", "AND", ("a", "ghost"))
    n.add_output("g")
    report = lint_netlist(n)
    assert "NL001" in rule_ids(report)
    diag = next(d for d in report.errors if d.rule_id == "NL001")
    assert "ghost" in diag.message
    assert diag.location.gate == "g"


def test_nl002_undriven_output():
    n = Netlist("bad")
    n.add_input("a")
    n.add("g", "NOT", ("a",))
    n.add_output("g")
    n.add_output("nowhere")
    report = lint_netlist(n)
    assert "NL002" in rule_ids(report)


def test_nl003_driven_primary_input():
    n = Netlist("bad")
    n.add_input("a")
    n.add_input("b")
    n.add("y", "NOT", ("a",))
    n.add_output("y")
    # The construction API refuses this, so seed the corruption directly
    # (e.g. a hand-built deserializer could produce it).
    from repro.netlist import Gate

    n._gates["b"] = Gate("b", "NOT", ("a",))
    report = lint_netlist(n)
    assert "NL003" in rule_ids(report)


def test_nl004_dangling_gate():
    n = Netlist("bad")
    n.add_input("a")
    n.add("g1", "NOT", ("a",))
    n.add("g2", "NOT", ("a",))
    n.add_output("g1")
    report = lint_netlist(n)
    assert "NL004" in rule_ids(report)
    diag = next(d for d in report.errors if d.rule_id == "NL004")
    assert diag.location.gate == "g2"


def test_nl005_combinational_loop():
    n = Netlist("bad")
    n.add_input("a")
    n.add("g1", "AND", ("a", "g2"))
    n.add("g2", "NOT", ("g1",))
    n.add_output("g2")
    report = lint_netlist(n)
    assert "NL005" in rule_ids(report)


def kahn_has_cycle(netlist):
    """Kahn's algorithm over the combinational core, following the
    fanout index: NL005's former check, kept as its oracle."""
    indegree = {}
    for gate in netlist.combinational_gates():
        indegree[gate.name] = sum(
            1 for net in set(gate.fanin)
            if netlist.has_net(net) and netlist.gate(net).is_combinational
        )
    ready = [name for name, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        name = ready.pop()
        seen += 1
        for sink in netlist.fanout(name):
            if sink in indegree:
                indegree[sink] -= 1
                if indegree[sink] == 0:
                    ready.append(sink)
    return seen != len(indegree)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["AND", "NOT", "DFF"]),
                          st.lists(st.integers(0, 15), min_size=1,
                                   max_size=3)),
                min_size=1, max_size=12))
def test_nl005_verdict_matches_kahn(specs):
    # Random gates over each other, a primary input and an undriven
    # net: loops through logic, loops broken by flip-flops, and none.
    n = Netlist("loops")
    n.add_input("a")
    names = [f"g{k}" for k in range(len(specs))] + ["a", "ghost"]
    for k, (func, pins) in enumerate(specs):
        fanin = [names[p % len(names)] for p in pins]
        if func != "DFF":
            fanin = [net for net in fanin if net != f"g{k}"] or ["a"]
        if func != "AND":
            fanin = fanin[:1]
        n.add(f"g{k}", func, fanin)
    assert _has_combinational_cycle(n) == kahn_has_cycle(n)


def test_nl006_duplicate_definition_from_source():
    netlist, records = parse_bench_lenient(
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", name="dup"
    )
    ctx = LintContext(netlist=netlist, records=records)
    report = LintEngine().run(ctx)
    assert "NL006" in rule_ids(report)
    diag = next(d for d in report.errors if d.rule_id == "NL006")
    assert diag.location.line == 4
    assert "line 3" in diag.message


def test_nl007_multiply_driven_net_from_source():
    netlist, records = parse_bench_lenient(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = NOT(b)\ny = BUF(a)\n",
        name="multi",
    )
    ctx = LintContext(netlist=netlist, records=records)
    report = LintEngine().run(ctx)
    assert "NL007" in rule_ids(report)
    diag = next(d for d in report.errors if d.rule_id == "NL007")
    assert "'a'" in diag.message


def test_nl008_fanout_limit():
    n = Netlist("wide")
    n.add_input("a")
    for i in range(5):
        n.add(f"g{i}", "NOT", ("a",))
        n.add_output(f"g{i}")
    report = lint_netlist(n, max_fanout=3)
    assert "NL008" in rule_ids(report)
    assert not report.has_errors  # warning severity
    assert lint_netlist(n, max_fanout=5).diagnostics == []
    # 0 disables the rule entirely.
    assert lint_netlist(n, max_fanout=0).diagnostics == []


def test_nl009_unreachable_gate():
    n = Netlist("dead")
    n.add_input("a")
    n.add("live", "NOT", ("a",))
    n.add_output("live")
    # dead1 -> dead2 -> (nothing): dead2 is NL004, dead1 is NL009.
    n.add("dead1", "NOT", ("a",))
    n.add("dead2", "NOT", ("dead1",))
    report = lint_netlist(n)
    assert "NL009" in rule_ids(report)
    diag = next(d for d in report.warnings if d.rule_id == "NL009")
    assert diag.location.gate == "dead1"


def test_rules_tolerate_undriven_nets_together():
    # A gate with a missing fanin must not crash the traversal rules or
    # produce a phantom NL005 cycle.
    n = Netlist("bad")
    n.add_input("a")
    n.add("g", "AND", ("a", "ghost"))
    n.add_output("g")
    report = lint_netlist(n)
    assert "NL001" in rule_ids(report)
    assert "NL005" not in rule_ids(report)


def test_source_lines_cited(tmp_path):
    path = tmp_path / "cite.bench"
    path.write_text("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")
    netlist, records = parse_bench_lenient(
        path.read_text(), name="cite", path=str(path)
    )
    report = LintEngine().run(LintContext(netlist=netlist, records=records))
    diag = next(d for d in report.errors if d.rule_id == "NL001")
    assert diag.location.file == str(path)
    assert diag.location.line == 3
    assert f"{path}:3" in diag.render()


def test_legacy_validation_issues_wrap_engine(s27_netlist, monkeypatch):
    from repro.errors import NetlistError
    from repro.lint import REGISTRY
    from repro.netlist import validate, validation_issues

    n = Netlist("bad")
    n.add_input("a")
    n.add("g", "AND", ("a", "ghost"))
    n.add_output("g")
    # ``a`` drives more sinks than the fanout limit (NL008), and
    # ``dead`` feeds only a dangling gate (NL009, with NL004 on it).
    for i in range(DEFAULT_MAX_FANOUT):
        n.add(f"o{i}", "NOT", ("a",))
        n.add_output(f"o{i}")
    n.add("dead", "NOT", ("a",))
    n.add("sink", "NOT", ("dead",))
    report = lint_netlist(n, enable=["structural"])
    assert {"NL001", "NL004", "NL008", "NL009"} <= rule_ids(report)
    issues = validation_issues(n)
    assert any("ghost" in issue for issue in issues)
    assert issues == [diag.message for diag in report.errors]
    with pytest.raises(NetlistError):
        validate(n)

    # The warning rules are not run at all.
    def unexpected(self, ctx):
        raise AssertionError(f"{self.rule_id} ran under validate")

    for rule_id in ("NL008", "NL009"):
        monkeypatch.setattr(type(REGISTRY[rule_id]), "check", unexpected)
    validate(s27_netlist)
