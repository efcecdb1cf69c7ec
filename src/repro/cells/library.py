"""The LEDA-like standard-cell library, retargeted to 70 nm.

The paper maps the ISCAS89 netlists onto the LEDA 0.25 um library with
Synopsys Design Compiler (medium effort; the library's complex AOI/OAI and
MUX cells reduce the gate count), then scales the netlists to 70 nm BPTM.
We define the equivalent library directly at 70 nm -- the retargeting is a
linear shrink.

Transistor sizing follows the usual textbook rules: a unit ("X1") inverter
is a minimum NMOS plus a PN_RATIO-wide PMOS; series stacks are widened by
the stack depth so every cell matches the unit inverter's drive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .. import units
from ..errors import LibraryError
from .cell import Cell
from .transistor import Transistor, nmos, pmos

W = units.WMIN_70NM
P = units.PN_RATIO


def make_inverter(drive: float = 1.0, name: Optional[str] = None) -> Cell:
    """INV_X<drive>: unit-drive ratioed inverter."""
    return Cell(
        name=name or f"INV_X{drive:g}",
        func="NOT",
        n_inputs=1,
        transistors=(pmos(P * drive), nmos(drive)),
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + P) * drive * W,
    )


def make_buffer(drive: float = 1.0, name: Optional[str] = None) -> Cell:
    """BUF_X<drive>: two cascaded inverters (first at 1/3 drive)."""
    first = max(drive / 3.0, 0.5)
    return Cell(
        name=name or f"BUF_X{drive:g}",
        func="BUF",
        n_inputs=1,
        transistors=(
            pmos(P * first), nmos(first),
            pmos(P * drive), nmos(drive),
        ),
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + P) * drive * W,
        internal_cap=(1 + P) * first * W * units.CDIFF_PER_WIDTH,
        intrinsic_delay=4.0 * units.PS,
    )


def make_nand(n: int, drive: float = 1.0, name: Optional[str] = None) -> Cell:
    """NAND<n>_X<drive>: n series NMOS (widened n-fold), n parallel PMOS."""
    if n < 2:
        raise LibraryError("NAND needs at least 2 inputs")
    devices: List[Transistor] = []
    for _ in range(n):
        devices.append(nmos(n * drive))
        devices.append(pmos(P * drive))
    return Cell(
        name=name or f"NAND{n}_X{drive:g}",
        func="NAND",
        n_inputs=n,
        transistors=tuple(devices),
        pull_down_width=drive * W,              # stack already divided out
        pull_up_width=P * drive * W,            # single PMOS worst case
        output_diff_width=(n * P + n) * drive * W,
        intrinsic_delay=(1.5 + 0.5 * n) * units.PS,
    )


def make_nor(n: int, drive: float = 1.0, name: Optional[str] = None) -> Cell:
    """NOR<n>_X<drive>: n parallel NMOS, n series PMOS (widened n-fold)."""
    if n < 2:
        raise LibraryError("NOR needs at least 2 inputs")
    devices: List[Transistor] = []
    for _ in range(n):
        devices.append(nmos(drive))
        devices.append(pmos(n * P * drive))
    return Cell(
        name=name or f"NOR{n}_X{drive:g}",
        func="NOR",
        n_inputs=n,
        transistors=tuple(devices),
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(n + n * P) * drive * W,
        intrinsic_delay=(1.5 + 0.7 * n) * units.PS,
    )


def make_and(n: int, drive: float = 1.0) -> Cell:
    """AND<n>_X<drive>: NAND followed by inverter."""
    nand = make_nand(n, drive)
    inv = make_inverter(drive)
    return Cell(
        name=f"AND{n}_X{drive:g}",
        func="AND",
        n_inputs=n,
        transistors=nand.transistors + inv.transistors,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + P) * drive * W,
        internal_cap=nand.output_cap + inv.input_cap,
        intrinsic_delay=nand.intrinsic_delay + 3.0 * units.PS,
    )


def make_or(n: int, drive: float = 1.0) -> Cell:
    """OR<n>_X<drive>: NOR followed by inverter."""
    nor = make_nor(n, drive)
    inv = make_inverter(drive)
    return Cell(
        name=f"OR{n}_X{drive:g}",
        func="OR",
        n_inputs=n,
        transistors=nor.transistors + inv.transistors,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + P) * drive * W,
        internal_cap=nor.output_cap + inv.input_cap,
        intrinsic_delay=nor.intrinsic_delay + 3.0 * units.PS,
    )


def make_xor(n: int, drive: float = 1.0, invert: bool = False) -> Cell:
    """XOR2/XNOR2 (n-ary built as a tree for n > 2)."""
    stages = max(1, n - 1)
    devices: List[Transistor] = []
    for _ in range(stages):
        # 10-transistor static XOR: two input inverters + 6-T core.
        devices.extend([pmos(P), nmos(1.0), pmos(P), nmos(1.0)])
        devices.extend(
            [pmos(2 * P * drive)] * 2 + [nmos(2 * drive)] * 2
            + [pmos(2 * P * drive), nmos(2 * drive)]
        )
    func = "XNOR" if invert else "XOR"
    return Cell(
        name=f"{func}{n}_X{drive:g}",
        func=func,
        n_inputs=n,
        transistors=tuple(devices),
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=2 * (1 + P) * drive * W,
        internal_cap=stages * 2.0 * units.FF,
        intrinsic_delay=(4.0 + 3.0 * (stages - 1)) * units.PS,
    )


def make_aoi21(drive: float = 1.0) -> Cell:
    """AOI21_X<drive>: out = NOT(a1.a2 + b)."""
    devices = (
        nmos(2 * drive), nmos(2 * drive), nmos(drive),
        pmos(2 * P * drive), pmos(2 * P * drive), pmos(2 * P * drive),
    )
    return Cell(
        name=f"AOI21_X{drive:g}",
        func="AOI21",
        n_inputs=3,
        transistors=devices,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + 2 * P) * 2 * drive * W,
        intrinsic_delay=3.5 * units.PS,
    )


def make_aoi22(drive: float = 1.0) -> Cell:
    """AOI22_X<drive>: out = NOT(a1.a2 + b1.b2)."""
    devices = tuple(
        [nmos(2 * drive)] * 4 + [pmos(2 * P * drive)] * 4
    )
    return Cell(
        name=f"AOI22_X{drive:g}",
        func="AOI22",
        n_inputs=4,
        transistors=devices,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(2 + 2 * P) * 2 * drive * W,
        intrinsic_delay=4.0 * units.PS,
    )


def make_oai21(drive: float = 1.0) -> Cell:
    """OAI21_X<drive>: out = NOT((a1+a2).b)."""
    devices = (
        nmos(2 * drive), nmos(2 * drive), nmos(2 * drive),
        pmos(2 * P * drive), pmos(2 * P * drive), pmos(P * drive),
    )
    return Cell(
        name=f"OAI21_X{drive:g}",
        func="OAI21",
        n_inputs=3,
        transistors=devices,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(2 + 2 * P) * 2 * drive * W,
        intrinsic_delay=3.5 * units.PS,
    )


def make_oai22(drive: float = 1.0) -> Cell:
    """OAI22_X<drive>: out = NOT((a1+a2).(b1+b2))."""
    devices = tuple(
        [nmos(2 * drive)] * 4 + [pmos(2 * P * drive)] * 4
    )
    return Cell(
        name=f"OAI22_X{drive:g}",
        func="OAI22",
        n_inputs=4,
        transistors=devices,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(2 + 2 * P) * 2 * drive * W,
        intrinsic_delay=4.0 * units.PS,
    )


def make_mux2(drive: float = 1.0) -> Cell:
    """MUX2_X<drive>: transmission-gate mux (Fig. 6(b) of the paper).

    Two TGs, a select inverter and an output inverter.  The TG in the
    data path makes this the slowest holding element -- exactly why the
    MUX-based holding scheme loses on delay in Table II.
    """
    devices = (
        # two transmission gates
        nmos(drive), pmos(P * drive), nmos(drive), pmos(P * drive),
        # select inverter (minimum size)
        pmos(P), nmos(1.0),
        # weak level-restoring feedback inverter on the TG output node
        pmos(P), nmos(1.0),
        # output inverter
        pmos(P * drive), nmos(drive),
    )
    return Cell(
        name=f"MUX2_X{drive:g}",
        func="MUX2",
        n_inputs=3,
        transistors=devices,
        pull_down_width=0.45 * drive * W,   # TG in series with driver
        pull_up_width=0.45 * P * drive * W,
        output_diff_width=(1 + P) * drive * W,
        internal_cap=2.0 * (1 + P) * drive * W * units.CDIFF_PER_WIDTH,
        intrinsic_delay=8.0 * units.PS,
    )


def make_dff(drive: float = 1.0, scan: bool = False) -> Cell:
    """Master-slave transmission-gate flip-flop (optionally with scan mux).

    20 transistors for the plain DFF (two TG latches plus local clock
    inverters), 26 for the scan version (TG input mux + its inverter).
    """
    devices: List[Transistor] = []
    # master + slave: input TG, two inverters, feedback TG -- each.
    for _ in range(2):
        devices.extend([nmos(1.0, role="clock"), pmos(P, role="clock")])  # in TG
        devices.extend([pmos(P), nmos(1.0), pmos(P), nmos(1.0)])           # latch invs
        devices.extend([nmos(1.0, role="clock"), pmos(P, role="clock")])  # fb TG
    # output buffer at the requested drive
    devices.extend([pmos(P * drive), nmos(drive)])
    # local clock inverter
    devices.extend([pmos(P, role="clock"), nmos(1.0, role="clock")])
    name = "SDFF" if scan else "DFF"
    if scan:
        # scan-input mux: two TGs + select inverter
        devices.extend([
            nmos(1.0), pmos(P), nmos(1.0), pmos(P),
            pmos(P), nmos(1.0),
        ])
    return Cell(
        name=f"{name}_X{drive:g}",
        func="DFF",
        n_inputs=2 if scan else 1,
        transistors=tuple(devices),
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + P) * drive * W,
        internal_cap=6.0 * units.FF,
        intrinsic_delay=12.0 * units.PS,
        clock_cap=8.0 * W * units.CGATE_PER_WIDTH,
        seq=True,
    )


def make_hold_latch(drive: float = 1.0) -> Cell:
    """Enhanced-scan hold latch (Fig. 6(a) of the paper).

    Input TG (sized to pass the flip-flop's full drive), cross-coupled
    inverter pair, feedback TG, a local HOLD-signal inverter and an
    output inverter sized to drive the combinational logic.  In normal
    mode the latch is transparent, so it behaves as a buffer in the
    stimulus path (its D->Q delay is what Table II charges to enhanced
    scan).
    """
    devices = (
        # input transmission gate, full drive
        nmos(2.0), pmos(2 * P),
        # storage inverter pair: sized up for robustness -- it must hold
        # the initialization pattern against a full clock period of scan
        # activity coupling into the stimulus path
        pmos(2 * P), nmos(2.0), pmos(1.5 * P), nmos(1.5),
        # feedback transmission gate
        nmos(1.0, role="clock"), pmos(P, role="clock"),
        # local HOLD-signal inverter
        pmos(P, role="clock"), nmos(1.0, role="clock"),
        # output inverter, full drive
        pmos(P * drive), nmos(drive),
    )
    return Cell(
        name=f"HOLD_LATCH_X{drive:g}",
        func="BUF",
        n_inputs=1,
        transistors=devices,
        pull_down_width=drive * W,
        pull_up_width=P * drive * W,
        output_diff_width=(1 + P) * drive * W,
        internal_cap=(2.5 * (1 + P)) * W * units.CDIFF_PER_WIDTH
        + 2.5 * W * units.CGATE_PER_WIDTH,
        intrinsic_delay=7.0 * units.PS,
        clock_cap=4.0 * W * units.CGATE_PER_WIDTH,
        seq=True,
    )


def make_flh_keeper() -> Cell:
    """FLH keeper: two minimum inverters behind a minimum TG (Fig. 3).

    Enabled only in sleep mode; in normal mode it merely loads the first-
    level gate output with the TG diffusion plus one inverter gate.
    Devices are true-minimum (half the library's unit width) and high-Vt:
    the keeper only needs to out-fight leakage and coupling noise, and a
    leaky keeper would forfeit the stacking savings of Table III.
    """
    half = 0.5
    devices = (
        pmos(half * P, role="keeper", vt="hvt"),
        nmos(half, role="keeper", vt="hvt"),
        pmos(half * P, role="keeper", vt="hvt"),
        nmos(half, role="keeper", vt="hvt"),
        nmos(half, role="keeper", vt="hvt"),   # TG
        pmos(half * P, role="keeper", vt="hvt"),
    )
    return Cell(
        name="FLH_KEEPER",
        func=None,
        n_inputs=1,
        transistors=devices,
        pull_down_width=0.25 * W,
        pull_up_width=0.25 * P * W,
        output_diff_width=0.5 * (1 + P) * W,
        seq=True,
    )


def make_gating_pair(width_factor: float = 2.0) -> Tuple[Transistor, Transistor]:
    """Supply-gating (header PMOS, footer NMOS) pair for one first-level
    gate, sized ``width_factor`` times minimum."""
    return (
        pmos(P * width_factor, role="gating"),
        nmos(width_factor, role="gating"),
    )


class Library:
    """A named collection of cells with func/arity lookup."""

    def __init__(self, name: str, cells: Iterable[Cell]):
        self.name = name
        self._cells: Dict[str, Cell] = {}
        for cell in cells:
            self.add(cell)

    def add(self, cell: Cell) -> None:
        """Register a cell (names must be unique)."""
        if cell.name in self._cells:
            raise LibraryError(f"duplicate cell {cell.name!r}")
        self._cells[cell.name] = cell

    def cell(self, name: str) -> Cell:
        """Look up a cell by exact name."""
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r} has no cell {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self):
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def for_func(self, func: str, arity: int, drive: float = 1.0) -> Cell:
        """Smallest cell implementing ``func`` at the given arity/drive."""
        if func in ("NOT",):
            return self.cell(f"INV_X{drive:g}")
        if func == "BUF":
            return self.cell(f"BUF_X{drive:g}")
        if func in ("NAND", "NOR", "AND", "OR"):
            if arity == 1:
                # Degenerate single-input gate after optimization.
                return self.cell(
                    f"INV_X{drive:g}" if func in ("NAND", "NOR")
                    else f"BUF_X{drive:g}"
                )
            return self.cell(f"{func}{min(arity, 4)}_X{drive:g}")
        if func in ("XOR", "XNOR"):
            return self.cell(f"{func}{min(arity, 3)}_X{drive:g}")
        if func in ("AOI21", "AOI22", "OAI21", "OAI22"):
            return self.cell(f"{func}_X{drive:g}")
        if func == "MUX2":
            return self.cell(f"MUX2_X{drive:g}")
        if func == "DFF":
            return self.cell(f"DFF_X{drive:g}")
        raise LibraryError(f"no cell for function {func!r} arity {arity}")


def leda_70nm() -> Library:
    """Build the LEDA-like library at the 70 nm node.

    Drive strengths X1 and X2 are provided for the simple gates (the
    mapper picks X2 for heavily loaded nets), X1 for complex gates, plus
    the sequential and DFT cells the paper's three schemes need.
    """
    cells: List[Cell] = []
    for drive in (1.0, 2.0, 4.0):
        cells.append(make_inverter(drive))
        cells.append(make_buffer(drive))
    for drive in (1.0, 2.0):
        for n in (2, 3, 4):
            cells.append(make_nand(n, drive))
            cells.append(make_nor(n, drive))
            cells.append(make_and(n, drive))
            cells.append(make_or(n, drive))
        for n in (2, 3):
            cells.append(make_xor(n, drive))
            cells.append(make_xor(n, drive, invert=True))
        cells.append(make_aoi21(drive))
        cells.append(make_aoi22(drive))
        cells.append(make_oai21(drive))
        cells.append(make_oai22(drive))
        cells.append(make_mux2(drive))
        cells.append(make_dff(drive))
        cells.append(make_dff(drive, scan=True))
        cells.append(make_hold_latch(drive))
    cells.append(make_flh_keeper())
    return Library("leda70", cells)


_DEFAULT_LIBRARY: Optional[Library] = None


def default_library() -> Library:
    """Shared singleton of :func:`leda_70nm` (cells are immutable)."""
    global _DEFAULT_LIBRARY
    if _DEFAULT_LIBRARY is None:
        _DEFAULT_LIBRARY = leda_70nm()
    return _DEFAULT_LIBRARY
