"""Gate primitives for the generic (ISCAS89-style) netlist model.

A :class:`Gate` drives exactly one net, and that net carries the gate's
name -- the convention used by the ISCAS89 ``.bench`` format, where
``G10 = NAND(G1, G3)`` both declares the gate and names its output net.

Two special functions appear alongside the combinational ones:

``INPUT``
    a primary input (no fanin); present so every net has a driver record.
``DFF``
    a D flip-flop; its output net is a *state input* of the combinational
    core and its single fanin net is the corresponding *state output*.

After technology mapping (:mod:`repro.synth.mapper`) each combinational
gate additionally carries the name of the standard cell implementing it in
:attr:`Gate.cell`; the logical function stays evaluable either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from ..errors import NetlistError

#: Combinational functions accepted in a generic netlist.  ``AND``/``OR``/
#: ``NAND``/``NOR``/``XOR``/``XNOR`` are n-ary (n >= 1); ``NOT``/``BUF``
#: are strictly unary.  The complex functions are produced by the mapper.
COMBINATIONAL_FUNCS = frozenset(
    {
        "AND",
        "NAND",
        "OR",
        "NOR",
        "NOT",
        "BUF",
        "XOR",
        "XNOR",
        "AOI21",
        "AOI22",
        "OAI21",
        "OAI22",
        "MUX2",
    }
)

#: Sequential / terminal functions.
SPECIAL_FUNCS = frozenset({"INPUT", "DFF"})

ALL_FUNCS = COMBINATIONAL_FUNCS | SPECIAL_FUNCS

#: Required fanin arity for functions with a fixed pin count
#: (None = any arity >= 1).
_FIXED_ARITY = {
    "NOT": 1,
    "BUF": 1,
    "INPUT": 0,
    "DFF": 1,
    "AOI21": 3,
    "AOI22": 4,
    "OAI21": 3,
    "OAI22": 4,
    "MUX2": 3,
}


def _check_arity(func: str, n_fanin: int) -> None:
    fixed = _FIXED_ARITY.get(func)
    if fixed is not None:
        if n_fanin != fixed:
            raise NetlistError(
                f"{func} requires exactly {fixed} fanin nets, got {n_fanin}"
            )
    elif n_fanin < 1:
        raise NetlistError(f"{func} requires at least one fanin net")


@dataclass(frozen=True)
class Gate:
    """One gate (or flip-flop, or primary-input marker) in a netlist.

    Parameters
    ----------
    name:
        Name of the gate and of the net it drives.
    func:
        Logical function, one of :data:`ALL_FUNCS`.
    fanin:
        Names of the nets feeding the gate, in pin order.  Pin order is
        significant for ``MUX2`` (select, d0, d1), ``AOI21`` (a1, a2, b),
        ``AOI22``/``OAI22`` (a1, a2, b1, b2) and ``OAI21`` (a1, a2, b).
    cell:
        Name of the mapped standard cell, or ``None`` before mapping.
    """

    name: str
    func: str
    fanin: Tuple[str, ...] = field(default_factory=tuple)
    cell: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise NetlistError("gate name must be a non-empty string")
        if self.func not in ALL_FUNCS:
            raise NetlistError(f"unknown gate function {self.func!r}")
        if not isinstance(self.fanin, tuple):
            object.__setattr__(self, "fanin", tuple(self.fanin))
        _check_arity(self.func, len(self.fanin))
        if self.name in self.fanin and self.func != "DFF":
            raise NetlistError(
                f"combinational gate {self.name!r} feeds itself directly"
            )

    # -- queries -----------------------------------------------------------
    @property
    def is_input(self) -> bool:
        """True for the primary-input marker pseudo-gate."""
        return self.func == "INPUT"

    @property
    def is_dff(self) -> bool:
        """True for a D flip-flop."""
        return self.func == "DFF"

    @property
    def is_combinational(self) -> bool:
        """True for any logic gate (i.e. not INPUT and not DFF)."""
        return self.func in COMBINATIONAL_FUNCS

    @property
    def n_inputs(self) -> int:
        """Number of fanin pins."""
        return len(self.fanin)

    # -- derivation --------------------------------------------------------
    # Built directly rather than through ``dataclasses.replace``, which
    # costs several times more; ``__post_init__``'s checks still run.
    def with_fanin(self, fanin: Iterable[str]) -> "Gate":
        """Return a copy of this gate with a different fanin tuple."""
        return Gate(self.name, self.func, tuple(fanin), self.cell)

    def with_cell(self, cell: Optional[str]) -> "Gate":
        """Return a copy of this gate bound to a standard cell."""
        return Gate(self.name, self.func, self.fanin, cell)

    def renamed(self, name: str) -> "Gate":
        """Return a copy of this gate (and its output net) renamed."""
        return Gate(name, self.func, self.fanin, self.cell)


def evaluate_gate(func: str, values: Tuple[int, ...], mask: int = 1) -> int:
    """Evaluate a combinational function over packed bit-parallel words.

    Each entry of ``values`` is an integer whose bits carry one pattern
    each; ``mask`` selects the active bit lanes (e.g. ``(1 << 64) - 1``
    for 64-pattern-parallel simulation).  The return value is masked.

    ``DFF`` and ``INPUT`` are not evaluable here -- sequential elements
    are advanced by the simulators, not by this function.
    """
    if func == "AND":
        out = mask
        for v in values:
            out &= v
    elif func == "NAND":
        out = mask
        for v in values:
            out &= v
        out = ~out
    elif func == "OR":
        out = 0
        for v in values:
            out |= v
    elif func == "NOR":
        out = 0
        for v in values:
            out |= v
        out = ~out
    elif func == "XOR":
        out = 0
        for v in values:
            out ^= v
    elif func == "XNOR":
        out = 0
        for v in values:
            out ^= v
        out = ~out
    elif func == "NOT":
        out = ~values[0]
    elif func == "BUF":
        out = values[0]
    elif func == "AOI21":
        a1, a2, b = values
        out = ~((a1 & a2) | b)
    elif func == "AOI22":
        a1, a2, b1, b2 = values
        out = ~((a1 & a2) | (b1 & b2))
    elif func == "OAI21":
        a1, a2, b = values
        out = ~((a1 | a2) & b)
    elif func == "OAI22":
        a1, a2, b1, b2 = values
        out = ~((a1 | a2) & (b1 | b2))
    elif func == "MUX2":
        sel, d0, d1 = values
        out = (d0 & ~sel) | (d1 & sel)
    else:
        raise NetlistError(f"cannot evaluate function {func!r}")
    return out & mask
