"""Mutable gate-level netlist container.

The :class:`Netlist` follows the ISCAS89 net naming convention: every net
is driven by exactly one :class:`~repro.netlist.gate.Gate` whose name *is*
the net name.  Primary inputs are stored as pseudo-gates with function
``INPUT`` so that every net in the design has a driver record, which keeps
the traversal code free of special cases.

Netlists are mutable -- design-for-test transforms add gates and rewire
pins -- but every mutation goes through a method that keeps the fanout
index coherent, so lookups stay O(1) throughout.

:meth:`Netlist.copy` is cheap enough to take per trial edit: the copy
and its source share every fanout set until one of them writes to it
(copy-on-write), and the copy records the gates it adds, removes or
replaces, so an incremental analysis can read what an edit touched
(:meth:`Netlist.edits_since`) instead of scanning every gate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import NetlistError
from .gate import Gate


class Netlist:
    """A single-clock sequential gate-level netlist.

    Parameters
    ----------
    name:
        Design name (e.g. ``"s27"``).

    Notes
    -----
    The combinational *core* of the design is the netlist with every DFF
    output treated as a pseudo primary input (a *state input*) and every
    DFF data pin treated as a pseudo primary output (a *state output*).
    Most analyses (ATPG, STA, fault simulation) operate on that core.
    """

    def __init__(self, name: str):
        if not name:
            raise NetlistError("netlist name must be non-empty")
        self.name = name
        self._gates: Dict[str, Gate] = {}
        self._inputs: List[str] = []
        self._outputs: List[str] = []
        self._fanout: Dict[str, Set[str]] = {}
        # Copy-on-write bookkeeping, all None until the netlist is first
        # copied or given a revision: ``_owned`` names the fanout sets
        # this netlist may write in place (None: all of them, as nothing
        # shares them); ``_revision`` names the current contents until
        # the next edit; a copy keeps its source's revision in ``_base``
        # and the gate names it has edited since in ``_edits``.
        self._owned: Optional[Set[str]] = None
        self._revision: Optional[object] = None
        self._base: Optional[object] = None
        self._edits: Optional[Set[str]] = None
        # The flip-flops in insertion order; None until asked for, and
        # dropped whenever a flip-flop is added, removed or replaced.
        self._dffs: Optional[Tuple[Gate, ...]] = None
        #: Source provenance, filled in by parsers that track it: the
        #: file the netlist was read from and the 1-based source line of
        #: each gate/input definition.  Lint diagnostics cite these.
        self.source_file: Optional[str] = None
        self.source_lines: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        """Declare a primary input net."""
        if net in self._gates:
            raise NetlistError(f"net {net!r} already driven")
        self._gates[net] = Gate(net, "INPUT")
        self._inputs.append(net)
        if self._owned is not None:
            self._edited(net)
        if net not in self._fanout:
            self._writable(net)

    def add_output(self, net: str) -> None:
        """Declare a net as a primary output (it may be driven later)."""
        if net in self._outputs:
            raise NetlistError(f"duplicate primary output {net!r}")
        self._outputs.append(net)
        self._revision = None

    def add_gate(self, gate: Gate) -> None:
        """Add a gate; its fanin nets need not exist yet."""
        name = gate.name
        if name in self._gates:
            raise NetlistError(f"net {name!r} already driven")
        self._gates[name] = gate
        if gate.is_dff:
            self._dffs = None
        if self._owned is not None:
            self._edited(name)
        if name not in self._fanout:
            self._writable(name)
        for net in gate.fanin:
            self._writable(net).add(name)

    def add(self, name: str, func: str, fanin: Iterable[str] = (),
            cell: Optional[str] = None) -> Gate:
        """Convenience wrapper building and adding a :class:`Gate`."""
        gate = Gate(name, func, tuple(fanin), cell)
        self.add_gate(gate)
        return gate

    def remove_gate(self, name: str) -> Gate:
        """Remove a gate.  The driven net must have no remaining fanout
        and must not be a primary output."""
        gate = self._gates.get(name)
        if gate is None:
            raise NetlistError(f"no gate named {name!r}")
        if self._fanout.get(name):
            raise NetlistError(f"net {name!r} still has fanout")
        if name in self._outputs:
            raise NetlistError(f"net {name!r} is a primary output")
        del self._gates[name]
        self._fanout.pop(name, None)
        if gate.is_input:
            self._inputs.remove(name)
        if gate.is_dff:
            self._dffs = None
        if self._owned is not None:
            self._edited(name)
            self._owned.discard(name)
        for net in gate.fanin:
            if net in self._fanout:
                self._writable(net).discard(name)
        return gate

    def replace_gate(self, gate: Gate) -> None:
        """Swap in a new definition for an existing gate name."""
        name = gate.name
        old = self._gates.get(name)
        if old is None:
            raise NetlistError(f"no gate named {name!r}")
        if old.is_input and not gate.is_input:
            self._inputs.remove(name)
        if gate.is_input and not old.is_input:
            self._inputs.append(name)
        if old.is_dff or gate.is_dff:
            self._dffs = None
        if self._owned is not None:
            self._edited(name)
        fanout = self._fanout
        for net in old.fanin:
            if net not in gate.fanin and net in fanout:
                self._writable(net).discard(name)
        self._gates[name] = gate
        for net in gate.fanin:
            if name not in fanout.get(net, ()):
                self._writable(net).add(name)

    def rewire_pin(self, gate_name: str, pin_index: int, new_net: str) -> None:
        """Reconnect one fanin pin of ``gate_name`` to ``new_net``."""
        gate = self.gate(gate_name)
        if not 0 <= pin_index < gate.n_inputs:
            raise NetlistError(
                f"{gate_name!r} has no pin {pin_index} (arity {gate.n_inputs})"
            )
        fanin = list(gate.fanin)
        fanin[pin_index] = new_net
        self.replace_gate(gate.with_fanin(fanin))

    def redirect_fanout(self, old_net: str, new_net: str,
                        only: Optional[Set[str]] = None) -> int:
        """Move sinks of ``old_net`` onto ``new_net``.

        Parameters
        ----------
        only:
            If given, only sinks in this set are moved.

        Returns
        -------
        int
            Number of pin connections moved.
        """
        moved = 0
        for sink_name in sorted(self.fanout(old_net)):
            if only is not None and sink_name not in only:
                continue
            sink = self.gate(sink_name)
            fanin = [new_net if net == old_net else net for net in sink.fanin]
            moved += sum(1 for net in sink.fanin if net == old_net)
            self.replace_gate(sink.with_fanin(fanin))
        return moved

    def fresh_net(self, stem: str) -> str:
        """Return a net name derived from ``stem`` that is not yet used."""
        if stem not in self._gates:
            return stem
        i = 1
        while f"{stem}_{i}" in self._gates:
            i += 1
        return f"{stem}_{i}"

    # -- copy-on-write bookkeeping ----------------------------------------
    def _writable(self, net: str) -> Set[str]:
        """The fanout set of ``net``, private to this netlist.

        A netlist that has been copied, or is a copy, shares its sets
        with the other side; it copies a set before its first write.
        """
        owned = self._owned
        if owned is None:
            sinks = self._fanout.get(net)
            if sinks is None:
                sinks = self._fanout[net] = set()
            return sinks
        if net in owned:
            return self._fanout[net]
        sinks = self._fanout[net] = set(self._fanout.get(net, ()))
        owned.add(net)
        return sinks

    def _edited(self, name: str) -> None:
        """Note an edit of gate ``name`` (copy-on-write netlists only)."""
        self._revision = None
        if self._edits is not None:
            self._edits.add(name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary input nets in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        """Primary output nets in declaration order."""
        return tuple(self._outputs)

    def gate(self, name: str) -> Gate:
        """Driver gate of net ``name`` (raises if undriven)."""
        gate = self._gates.get(name)
        if gate is None:
            raise NetlistError(f"no gate named {name!r}")
        return gate

    def has_net(self, name: str) -> bool:
        """True if a driver record exists for ``name``."""
        return name in self._gates

    def gates(self) -> Iterator[Gate]:
        """Iterate over every gate record, including INPUT pseudo-gates."""
        return iter(self._gates.values())

    def gate_names(self) -> Iterator[str]:
        """Iterate over all driven net names."""
        return iter(self._gates.keys())

    def combinational_gates(self) -> List[Gate]:
        """All logic gates (no INPUT markers, no DFFs)."""
        return [g for g in self._gates.values() if g.is_combinational]

    def dffs(self) -> List[Gate]:
        """All flip-flops in insertion order."""
        return list(self._dff_records())

    def _dff_records(self) -> Tuple[Gate, ...]:
        if self._dffs is None:
            self._dffs = tuple(g for g in self._gates.values() if g.is_dff)
        return self._dffs

    def fanout(self, net: str) -> Set[str]:
        """Names of the gates whose fanin contains ``net`` (a copy)."""
        return set(self._fanout.get(net, ()))

    def fanout_count(self, net: str) -> int:
        """Number of gate sinks of ``net`` (PO connections not counted)."""
        return len(self._fanout.get(net, ()))

    # -- derived views ---------------------------------------------------
    @property
    def state_inputs(self) -> Tuple[str, ...]:
        """DFF output nets: the pseudo primary inputs of the comb. core."""
        return tuple(g.name for g in self._dff_records())

    @property
    def state_outputs(self) -> Tuple[str, ...]:
        """DFF data nets: the pseudo primary outputs of the comb. core."""
        return tuple(g.fanin[0] for g in self._dff_records())

    @property
    def core_inputs(self) -> Tuple[str, ...]:
        """Primary inputs followed by state inputs."""
        return self.inputs + self.state_inputs

    @property
    def core_outputs(self) -> Tuple[str, ...]:
        """Primary outputs followed by state outputs."""
        return self.outputs + self.state_outputs

    def n_gates(self) -> int:
        """Number of combinational logic gates."""
        return sum(1 for g in self._gates.values() if g.is_combinational)

    def n_dffs(self) -> int:
        """Number of flip-flops."""
        return len(self._dff_records())

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Netlist":
        """An independent copy; edits to either side never show in the other.

        Gates are immutable and shared.  Fanout sets are shared too,
        until one side writes to one: from now on both this netlist and
        the copy copy a set before their first write to it.  The copy
        records what it edits, for :meth:`edits_since`.
        """
        other = Netlist(name or self.name)
        other._inputs = list(self._inputs)
        other._outputs = list(self._outputs)
        other._gates = dict(self._gates)
        other._fanout = dict(self._fanout)
        self._owned = set()
        other._owned = set()
        other._base = self.revision()
        other._edits = set()
        other._dffs = self._dffs
        other.source_file = self.source_file
        other.source_lines = dict(self.source_lines)
        return other

    def revision(self) -> object:
        """An opaque token naming this netlist's current contents.

        The same object is returned until the netlist is next edited.
        """
        if self._revision is None:
            self._revision = object()
            if self._owned is None:
                # Edits must now drop the token, which they do once
                # ``_owned`` is set; nothing shares the sets yet.
                self._owned = set(self._fanout)
        return self._revision

    def edits_since(self, revision: object) -> Optional[Set[str]]:
        """Gate names added, removed or replaced since this netlist was
        copied from the netlist whose :meth:`revision` was ``revision``.

        ``None`` when this netlist is not such a copy: it was built by
        hand, or copied from another netlist or revision.
        """
        if self._base is None or self._base is not revision:
            return None
        return set(self._edits)

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, net: str) -> bool:
        return net in self._gates

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}: {len(self._inputs)} PI, "
            f"{len(self._outputs)} PO, {self.n_dffs()} DFF, "
            f"{self.n_gates()} gates)"
        )
