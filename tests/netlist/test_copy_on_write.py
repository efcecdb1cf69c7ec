"""Copies share fanout sets until written, and record what they edit.

A family of netlists -- one built by hand, its copies and copies of
copies -- takes random edits (flip-flops included).  Each netlist is
checked against a plain model of its own records after every step: its
fanout index must equal the index rebuilt from those records, its
flip-flop list must equal a fresh scan, no edit may show up in any other
member of the family, and a direct copy must report every gate whose
record changed since the copy.  The whole family is also pickled in one
call, so members that share fanout sets come back sharing them: each
loaded member must hold its content, and an edit to one must not show
in the others.
"""

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import Gate, Netlist

FUNCS = ["AND", "NAND", "OR", "NOR", "NOT", "DFF"]


def base_netlist():
    n = Netlist("cow")
    for net in ("a", "b"):
        n.add_input(net)
    n.add("q0", "DFF", ("g1",))
    n.add("g0", "NAND", ("a", "q0"))
    n.add("g1", "NOR", ("g0", "b"))
    n.add("g2", "NOT", ("q0",))
    n.add("q1", "DFF", ("g2",))
    n.add_output("g1")
    return n


def model_of(netlist):
    """The records a netlist must hold: gates in order, inputs, outputs."""
    return {"gates": dict(zip(netlist.gate_names(), netlist.gates())),
            "inputs": list(netlist.inputs),
            "outputs": list(netlist.outputs)}


def copied(model):
    return {key: type(value)(value) for key, value in model.items()}


def rebuilt_index(gates):
    index = {}
    for gate in gates.values():
        for net in gate.fanin:
            index.setdefault(net, set()).add(gate.name)
    return index


def edit(netlist, model, kind, pick, fresh):
    """One random edit of ``netlist``, mirrored in ``model``."""
    gates = model["gates"]
    names = sorted(gates)
    outputs = set(model["outputs"])
    index = rebuilt_index(gates)
    if kind == 0:  # add
        func = FUNCS[pick % len(FUNCS)]
        arity = 1 if func in ("NOT", "DFF") else 2
        fanin = tuple(names[(pick >> (4 * i)) % len(names)]
                      for i in range(arity))
        gate = Gate(fresh, func, fanin)
        netlist.add_gate(gate)
        gates[fresh] = gate
    elif kind == 1:  # remove a gate nothing reads
        free = [n for n in names
                if not index.get(n) and n not in outputs]
        if free:
            name = free[pick % len(free)]
            netlist.remove_gate(name)
            del gates[name]
            if name in model["inputs"]:
                model["inputs"].remove(name)
    elif kind == 2:  # replace: new function or new fanin, same name
        logic = [n for n in names if not gates[n].is_input]
        name = logic[pick % len(logic)]
        old = gates[name]
        if old.is_dff:
            gate = Gate(name, "DFF", (names[pick % len(names)],))
        else:
            sources = [n for n in names if n != name]
            fanin = [sources[(pick + i) % len(sources)]
                     for i in range(old.n_inputs)]
            func = old.func if old.n_inputs == 1 else "AND"
            gate = Gate(name, func, fanin)
        netlist.replace_gate(gate)
        gates[name] = gate
    else:  # redirect some sinks of one net onto another
        old_net = names[pick % len(names)]
        new_net = names[(pick // 7) % len(names)]
        sinks = sorted(index.get(old_net, ()))
        only = {s for i, s in enumerate(sinks)
                if (pick >> i) & 1 and s != new_net}
        if old_net != new_net:
            netlist.redirect_fanout(old_net, new_net, only=only)
            for sink in only:
                gates[sink] = gates[sink].with_fanin(
                    new_net if f == old_net else f
                    for f in gates[sink].fanin)


def check(netlist, model):
    gates = model["gates"]
    assert list(netlist.gate_names()) == list(gates)
    assert list(netlist.gates()) == list(gates.values())
    assert list(netlist.inputs) == model["inputs"]
    assert list(netlist.outputs) == model["outputs"]
    index = rebuilt_index(gates)
    for net in set(gates) | set(index):
        assert netlist.fanout(net) == index.get(net, set()), net
    assert netlist.dffs() == [g for g in gates.values() if g.is_dff]
    assert netlist.state_inputs == tuple(
        g.name for g in gates.values() if g.is_dff)
    assert netlist.n_dffs() == len(netlist.dffs())


def check_pickle(family, target):
    """Pickle ``family`` in one call, then edit its ``target`` member."""
    loaded = pickle.loads(pickle.dumps([member for member, *_ in family]))
    models = [model for _, model, *_ in family]
    for again, model in zip(loaded, models):
        check(again, model)
    # One gate reading every net writes every fanout set of the target.
    model = copied(models[target])
    probe = Gate("probe", "AND", tuple(sorted(model["gates"])))
    loaded[target].add_gate(probe)
    model["gates"]["probe"] = probe
    check(loaded[target], model)
    for i, (again, model) in enumerate(zip(loaded, models)):
        if i != target:
            check(again, model)


steps = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 5), st.integers(0, 10**6)),
    min_size=1, max_size=25,
)


@given(steps=steps)
@settings(max_examples=80, deadline=None)
def test_copies_of_copies_stay_independent(steps):
    root = base_netlist()
    # (netlist, model, source index, source revision, source records)
    family = [(root, model_of(root), None, None, None)]
    fresh = 0
    for target, op, pick in steps:
        i = target % len(family)
        netlist, model = family[i][:2]
        if op >= 4:  # copy
            child = netlist.copy()
            family.append((child, copied(model), i, netlist.revision(),
                           dict(zip(netlist.gate_names(), netlist.gates()))))
        else:
            fresh += 1
            edit(netlist, model, op, pick, f"n{fresh}")
        check_pickle(family, i)
        for member, member_model, source, revision, at_copy in family:
            check(member, member_model)
            if source is None:
                continue
            # Every record that is not the source's record at copy time
            # is in the copy's edits, and no other revision has any.
            edits = member.edits_since(revision)
            now = dict(zip(member.gate_names(), member.gates()))
            assert {n for n in set(now) | set(at_copy)
                    if now.get(n) is not at_copy.get(n)} <= edits
            for other, *_ in family:
                if other.revision() is not revision:
                    assert member.edits_since(other.revision()) is None


def test_copy_is_cheap_until_written():
    n = base_netlist()
    c = n.copy()
    # Both sides share each set until one writes to it.
    assert c._fanout["q0"] is n._fanout["q0"]
    c.add("g3", "AND", ("q0", "a"))
    assert c._fanout["q0"] is not n._fanout["q0"]
    assert n.fanout("q0") == {"g0", "g2"}
    assert c.fanout("q0") == {"g0", "g2", "g3"}
    assert c._fanout["b"] is n._fanout["b"]


def test_copy_does_not_keep_its_source_alive():
    n = base_netlist()
    c = n.copy()
    source = weakref.ref(n)
    del n
    gc.collect()
    assert source() is None
    c.add("g3", "NOT", ("q1",))
    assert c.fanout("q1") == {"g3"}


def test_edit_record_covers_add_remove_replace():
    n = base_netlist()
    revision = n.revision()
    c = n.copy()
    c.add("g3", "NOT", ("g2",))
    c.rewire_pin("g0", 1, "b")
    c.remove_gate("g3")
    assert c.edits_since(revision) == {"g0", "g3"}
    # Copying leaves the source's revision as it was; editing it drops it.
    assert n.revision() is revision
    n.add("g4", "NOT", ("a",))
    assert n.revision() is not revision
    assert n.copy().edits_since(revision) is None


def test_never_copied_netlist_carries_no_record():
    n = base_netlist()
    assert n._owned is None and n._edits is None
    assert n.edits_since(object()) is None


@pytest.mark.parametrize("clone", [
    lambda pair: pickle.loads(pickle.dumps(pair)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_source_and_copy_cloned_together_stay_independent(clone):
    # One call memoizes the sets the two share, so the clones share
    # them too and must still copy before writing.
    n = base_netlist()
    revision = n.revision()
    x, y = clone((n, n.copy()))
    assert x._fanout["q1"] is y._fanout["q1"]
    x.add("g3", "NOT", ("q1",))
    assert x.fanout("q1") == {"g3"}
    assert y.fanout("q1") == set()
    y.add("g4", "NOT", ("q0",))
    assert x.fanout("q0") == {"g0", "g2"}
    # The clones keep their relation, not the originals'.
    assert y.edits_since(revision) is None
    assert x.edits_since(x.revision()) is None
    assert y.copy().edits_since(y.revision()) == set()
