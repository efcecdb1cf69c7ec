"""Deterministic reconstruction of ISCAS89-like benchmark circuits.

The original benchmark netlists cannot be shipped here, so circuits are
regenerated from their published structural statistics
(:mod:`repro.bench.catalog`): primary I/O counts, flip-flop count, gate
count, critical-path logic depth, and the state-input fanout profile.
These statistics -- not the exact Boolean functions -- are what every
experiment in the paper depends on (see DESIGN.md).

Construction is layered and acyclic by construction:

1.  The *first level* gates (unique fanout gates of the flip-flops) are
    created explicitly so that the total and unique state-fanout counts
    match the catalog within rounding.
2.  Remaining gates fill layers ``2..depth`` with a bias toward the
    middle, each picking fanins from strictly earlier layers (with a
    locality bias, as in real mapped netlists).
3.  A "spine" chain guarantees that the critical path has exactly the
    catalog depth.
4.  Primary outputs and flip-flop data inputs are chosen preferentially
    from dangling late-layer gates; any still-dangling gate is folded in
    as an extra fanin of a later n-ary gate, so the result validates.

Everything is driven by ``random.Random(spec.seed)``: the same circuit
name always yields byte-identical netlists.
"""

from __future__ import annotations

import dataclasses
import random
import re
from typing import Dict, List, Sequence, Set

from ..errors import NetlistError
from ..netlist import Netlist, validate
from .catalog import CATALOG, CircuitSpec, spec as lookup_spec
from .embedded import s27

#: Gate-function mix for generated logic, loosely following the mix of the
#: mapped ISCAS89 benchmarks (inverter-rich, NAND-dominant).
_FUNC_WEIGHTS = [
    ("NAND", 26),
    ("NOR", 15),
    ("AND", 14),
    ("OR", 11),
    ("NOT", 20),
    ("XOR", 5),
    ("XNOR", 3),
    ("BUF", 6),
]

_NARY_FUNCS = {"AND", "NAND", "OR", "NOR", "XOR", "XNOR"}
_MAX_ARITY = 4
#: One-input function -> the two-input function that equals it while
#: the added input is 1 (how a full circuit absorbs an unused input).
_WIDENED = {"NOT": "NAND", "BUF": "AND"}


def _pick_func(rng: random.Random) -> str:
    total = sum(weight for _, weight in _FUNC_WEIGHTS)
    roll = rng.randrange(total)
    for func, weight in _FUNC_WEIGHTS:
        roll -= weight
        if roll < 0:
            return func
    return "NAND"


def _pick_arity(func: str, rng: random.Random) -> int:
    if func in ("NOT", "BUF"):
        return 1
    return rng.choices([2, 3, 4], weights=[62, 28, 10])[0]


def _layer_sizes(n_rest: int, depth: int, n_po: int, n_ff: int,
                 rng: random.Random) -> List[int]:
    """Split ``n_rest`` gates over layers 2..depth, humped in the middle
    and with a final layer small enough to be fully consumed as sinks."""
    n_layers = depth - 1
    if n_layers <= 0:
        return []
    weights = []
    for i in range(n_layers):
        x = (i + 1) / (n_layers + 1)
        weights.append(0.25 + x * (1.0 - x) * 4.0)
    total_weight = sum(weights)
    sizes = [max(1, int(round(n_rest * w / total_weight))) for w in weights]
    # Final layer must not exceed the number of sinks available to it.
    last_cap = max(1, min(sizes[-1], (n_po + n_ff) // 2 + 1))
    sizes[-1] = last_cap
    # Rebalance to hit n_rest exactly.
    diff = n_rest - sum(sizes)
    i = 0
    while diff != 0 and n_layers > 1:
        idx = i % (n_layers - 1)  # never touch the capped last layer
        if diff > 0:
            sizes[idx] += 1
            diff -= 1
        elif sizes[idx] > 1:
            sizes[idx] -= 1
            diff += 1
        i += 1
        if i > 10 * n_rest + 100:
            break
    return sizes


def _choose_fanin_pool(layers: Sequence[Sequence[str]], upto: int,
                       rng: random.Random) -> str:
    """Pick a net from layers[0..upto] with a bias toward recent layers."""
    while True:
        # Geometric-ish walk back from the most recent layer.
        idx = upto
        while idx > 0 and rng.random() < 0.45:
            idx -= 1
        pool = layers[idx]
        if pool:
            return rng.choice(pool)


def generate(spec_or_name: "CircuitSpec | str") -> Netlist:
    """Reconstruct an ISCAS89-like circuit from its catalog statistics.

    ``s27`` is returned verbatim (the real netlist is embedded).
    Synthetic stress circuits resolve by name too: ``"stress3x"`` is
    :func:`stress_spec` at scale 3 (default depth), so the CLIs can
    target benchmark-sized circuits without a catalog entry.
    """
    if isinstance(spec_or_name, str):
        stress = re.fullmatch(r"stress([1-9]\d*)x", spec_or_name)
        if stress:
            circuit_spec = stress_spec(int(stress.group(1)))
        else:
            circuit_spec = lookup_spec(spec_or_name)
    else:
        circuit_spec = spec_or_name
    if circuit_spec.name == "s27":
        return s27()

    rng = random.Random(circuit_spec.seed)
    netlist = Netlist(circuit_spec.name)

    pis = [f"PI{i}" for i in range(circuit_spec.n_pi)]
    for net in pis:
        netlist.add_input(net)
    ff_outs = [f"FF{i}" for i in range(circuit_spec.n_ff)]

    # ------------------------------------------------------------------
    # Layer 1: the unique first-level gates, with controlled FF fanout.
    #
    # A fraction of the flip-flops are "hubs" driving several first-level
    # gates exclusively (control registers -- the targets of the paper's
    # Section V optimization); the remaining flip-flops share the rest of
    # the gates, keeping the overall fanout statistics on spec.
    # ------------------------------------------------------------------
    n_first = max(1, int(round(circuit_spec.unique_ratio * circuit_spec.n_ff)))
    total_conn = max(
        n_first, int(round(circuit_spec.fanout_per_ff * circuit_spec.n_ff))
    )
    n_hubs = int(round(circuit_spec.hub_fraction * circuit_spec.n_ff))
    hub_e = max(circuit_spec.hub_fanout, 1)
    while n_hubs > 0:
        exclusive = n_hubs * hub_e
        n_shared_gates = n_first - exclusive
        n_shared_ffs = circuit_spec.n_ff - n_hubs
        shared_conn = total_conn - exclusive
        if (n_shared_ffs >= 1
                and n_shared_gates >= max(1, -(-n_shared_ffs // _MAX_ARITY))
                and shared_conn >= max(n_shared_gates, n_shared_ffs)):
            break
        n_hubs -= 1

    hub_ffs = rng.sample(ff_outs, n_hubs) if n_hubs else []
    shared_ffs = [ff for ff in ff_outs if ff not in set(hub_ffs)]
    gate_inputs: List[Set[str]] = [
        {ff} for ff in hub_ffs for _ in range(hub_e)
    ]
    n_shared_gates = n_first - len(gate_inputs)
    shared_inputs: List[Set[str]] = [set() for _ in range(n_shared_gates)]
    # Cover every shared gate and every shared flip-flop at least once.
    for k in range(max(n_shared_gates, len(shared_ffs))):
        shared_inputs[k % n_shared_gates].add(
            shared_ffs[k % len(shared_ffs)]
        )
    used = len(gate_inputs) + sum(len(s) for s in shared_inputs)
    remaining = total_conn - used
    attempts = 0
    while remaining > 0 and attempts < 50 * total_conn:
        attempts += 1
        gate = rng.choice(shared_inputs)
        ff_net = rng.choice(shared_ffs)
        if ff_net in gate or len(gate) >= _MAX_ARITY:
            continue
        gate.add(ff_net)
        remaining -= 1
    gate_inputs.extend(shared_inputs)
    rng.shuffle(gate_inputs)

    layer1: List[str] = []
    for idx, ffs in enumerate(gate_inputs):
        name = f"L1_{idx}"
        fanin = sorted(ffs)
        if len(fanin) == 1:
            func = rng.choice(["NOT", "BUF", "NAND", "NOR"])
            if func in _NARY_FUNCS and pis:
                fanin = fanin + [rng.choice(pis)]
        else:
            func = rng.choice(["NAND", "NOR", "AND", "OR"])
        if func in ("NOT", "BUF"):
            fanin = fanin[:1]
        netlist.add(name, func, fanin)
        layer1.append(name)

    # ------------------------------------------------------------------
    # Layers 2..depth.
    # ------------------------------------------------------------------
    n_rest = max(circuit_spec.depth - 1,
                 circuit_spec.n_gates - n_first)
    sizes = _layer_sizes(
        n_rest, circuit_spec.depth, circuit_spec.n_po, circuit_spec.n_ff, rng
    )
    # Flip-flop outputs feed *only* the explicit first-level gates, so the
    # state-fanout statistics stay exactly as constructed above; deeper
    # gates draw from primary inputs and earlier logic.
    layers: List[List[str]] = [pis, layer1]
    spine = layer1[0] if layer1 else (pis[0] if pis else ff_outs[0])
    gate_counter = 0
    for layer_no, size in enumerate(sizes, start=2):
        layer: List[str] = []
        for j in range(size):
            name = f"G{layer_no}_{gate_counter}"
            gate_counter += 1
            func = _pick_func(rng)
            arity = _pick_arity(func, rng)
            fanin: List[str] = []
            if j == 0:
                fanin.append(spine)  # guarantee full-depth path
            # A tiny pool can hold fewer distinct nets than the drawn
            # arity; cap the target so the sampling loop terminates.
            pool_size = sum(len(earlier) for earlier in layers)
            while len(fanin) < min(arity, pool_size):
                net = _choose_fanin_pool(layers, len(layers) - 1, rng)
                if net not in fanin:
                    fanin.append(net)
            netlist.add(name, func, fanin)
            layer.append(name)
        spine = layer[0]
        layers.append(layer)

    # ------------------------------------------------------------------
    # Sinks: primary outputs and flip-flop data inputs.
    # ------------------------------------------------------------------
    comb_names = [g.name for g in netlist.combinational_gates()]
    dangling = [
        name for name in comb_names if not netlist.fanout(name)
    ]
    # Deepest-first so the spine end becomes a sink and depth is realized.
    level_of: Dict[str, int] = {}
    for lvl, layer in enumerate(layers):
        for net in layer:
            level_of[net] = lvl
    dangling.sort(key=lambda n: (-level_of.get(n, 0), n))

    sink_nets: List[str] = []
    if spine in dangling:
        dangling.remove(spine)
        sink_nets.append(spine)
    sink_nets.extend(dangling)
    needed = circuit_spec.n_po + circuit_spec.n_ff
    if len(sink_nets) < needed:
        # Top up with random deep gates (re-use as both PO and FF input
        # sources is fine -- real benchmarks share nets between them).
        extra_pool = sorted(comb_names, key=lambda n: -level_of.get(n, 0))
        for net in extra_pool:
            if net not in sink_nets:
                sink_nets.append(net)
            if len(sink_nets) >= needed:
                break
    while len(sink_nets) < needed:  # tiny circuits: allow reuse
        sink_nets.append(rng.choice(comb_names))

    po_nets = sink_nets[: circuit_spec.n_po]
    ff_d_nets = sink_nets[circuit_spec.n_po: needed]
    leftover = sink_nets[needed:]

    for i, net in enumerate(po_nets):
        netlist.add_output(net)
    for ff_net, d_net in zip(ff_outs, ff_d_nets):
        netlist.add(ff_net, "DFF", (d_net,))

    # ------------------------------------------------------------------
    # Repair: fold leftover dangling gates and unused PIs into later gates.
    # ------------------------------------------------------------------
    _absorb_dangling(netlist, leftover, layers, level_of, rng)
    _absorb_unused_inputs(netlist, rng)

    validate(netlist)
    return netlist


def _absorb_dangling(netlist: Netlist, leftover: Sequence[str],
                     layers: Sequence[Sequence[str]],
                     level_of: Dict[str, int], rng: random.Random) -> None:
    """Attach each leftover dangling net as an extra fanin of a later
    n-ary gate (keeps the graph acyclic: strictly increasing level).

    Candidates are indexed once by level and sampled, so large circuits
    stay linear instead of rescanning every later layer per net.
    """
    import bisect

    cand_levels: List[int] = []
    cand_names: List[str] = []
    for lvl, layer in enumerate(layers[1:], start=1):
        for name in layer:
            if netlist.gate(name).func in _NARY_FUNCS:
                cand_levels.append(lvl)
                cand_names.append(name)

    for net in leftover:
        if netlist.fanout(net):
            continue
        lvl = level_of.get(net, 0)
        start = bisect.bisect_right(cand_levels, lvl)
        placed = False
        if start < len(cand_names):
            for _ in range(24):  # sampling almost always hits capacity
                idx = rng.randrange(start, len(cand_names))
                gate = netlist.gate(cand_names[idx])
                if gate.n_inputs < _MAX_ARITY and net not in gate.fanin:
                    netlist.replace_gate(
                        gate.with_fanin(gate.fanin + (net,))
                    )
                    placed = True
                    break
            if not placed:
                for idx in range(start, len(cand_names)):
                    gate = netlist.gate(cand_names[idx])
                    if gate.n_inputs < _MAX_ARITY \
                            and net not in gate.fanin:
                        netlist.replace_gate(
                            gate.with_fanin(gate.fanin + (net,))
                        )
                        placed = True
                        break
        if not placed:
            # No capacity anywhere later: expose it as an extra output.
            netlist.add_output(net)


def _absorb_unused_inputs(netlist: Netlist, rng: random.Random) -> None:
    """Guarantee every primary input reaches some gate.

    An unused input joins an n-ary gate with a free pin.  When every
    n-ary gate is full (tiny specs), it widens an inverter or buffer
    into a two-input gate instead, which keeps the gate count and every
    logic level.
    """
    targets = [
        g.name
        for g in netlist.combinational_gates()
        if g.func in _NARY_FUNCS and g.n_inputs < _MAX_ARITY
    ]
    for net in netlist.inputs:
        if netlist.fanout(net):
            continue
        pool = [
            t for t in targets
            if net not in netlist.gate(t).fanin
            and netlist.gate(t).n_inputs < _MAX_ARITY
        ]
        if not pool:
            singles = [g.name for g in netlist.combinational_gates()
                       if g.func in _WIDENED]
            if not singles:
                raise NetlistError(
                    f"{netlist.name}: no gate can absorb unused input "
                    f"{net!r}"
                )
            gate = netlist.gate(rng.choice(singles))
            netlist.replace_gate(dataclasses.replace(
                gate, func=_WIDENED[gate.func], fanin=gate.fanin + (net,)))
            continue
        target = rng.choice(pool)
        gate = netlist.gate(target)
        netlist.replace_gate(gate.with_fanin(gate.fanin + (net,)))


def stress_spec(scale: int, depth: "int | None" = None) -> CircuitSpec:
    """A synthetic stress circuit ``scale``x beyond s38584.

    Scales the s38584 flip-flop and gate counts by ``scale`` while
    keeping the I/O profile and fanout statistics, producing wide-batch
    simulation workloads well past the largest catalog circuit.  The
    default depth grows logarithmically with the scale (deeper logic,
    like real designs of that size); pass ``depth`` to pin it.  Stress
    circuits are deliberately *not* added to :data:`CATALOG` -- they are
    benchmark/stress targets, not reconstructions of published circuits.
    """
    if scale < 1:
        raise ValueError(f"stress scale must be >= 1, got {scale}")
    base = lookup_spec("s38584")
    if depth is None:
        import math
        depth = int(round(base.depth * (1.0 + math.log10(scale))))
    return CircuitSpec(
        f"stress{scale}x",
        base.n_pi,
        base.n_po,
        base.n_ff * scale,
        base.n_gates * scale,
        depth,
        base.fanout_per_ff,
        base.unique_ratio,
        hub_fraction=base.hub_fraction,
        hub_fanout=base.hub_fanout,
    )


def load_circuit(name: str) -> Netlist:
    """Public entry point: reconstruct (or fetch embedded) circuit ``name``."""
    return generate(name)


def available_circuits() -> List[str]:
    """Names of every circuit the catalog can reconstruct."""
    return sorted(CATALOG)
