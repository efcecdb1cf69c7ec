"""Shared experiment plumbing: circuit/design caching and flow defaults.

All table experiments run the same front-end flow (reconstruct circuit,
technology-map, insert scan, derive the three holding styles); this
module caches those products per circuit so one ``repro`` run never
repeats the work.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..bench import TABLE13_CIRCUITS, TABLE4_CIRCUITS, load_circuit
from ..cells import default_library
from ..dft import DftDesign, FlhConfig, build_all_styles
from ..netlist import Netlist, clear_compile_cache, collect_stats

#: Paper's random-vector count for power measurements.
POWER_VECTORS = 100
#: Deterministic seed used across all experiments.
SEED = 2005

_design_cache: Dict[Tuple[str, Optional[FlhConfig]],
                    Dict[str, DftDesign]] = {}
_netlist_cache: Dict[str, Netlist] = {}


def circuit(name: str) -> Netlist:
    """Cached reconstruction of a benchmark circuit."""
    if name not in _netlist_cache:
        _netlist_cache[name] = load_circuit(name)
    return _netlist_cache[name]


def styled_designs(name: str,
                   flh_config: Optional[FlhConfig] = None,
                   ) -> Dict[str, DftDesign]:
    """Cached scan/enhanced/mux/flh designs for a circuit.

    The cache is keyed on ``(name, flh_config)`` -- :class:`FlhConfig`
    is a frozen, hashable dataclass -- so a Table IV or ablation sweep
    that revisits the same non-default sizing config reuses the built
    designs instead of re-running synthesis on every call (the old key
    collapsed every custom config onto "not default" and never cached
    any of them).
    """
    key = (name, flh_config)
    designs = _design_cache.get(key)
    if designs is None:
        designs = build_all_styles(
            circuit(name), default_library(), flh_config
        )
        _design_cache[key] = designs
    return designs


def clear_caches() -> None:
    """Drop cached circuits/designs/compiled kernels."""
    _design_cache.clear()
    _netlist_cache.clear()
    clear_compile_cache()


def default_circuits(table: int) -> Sequence[str]:
    """Circuit list per paper table (1-3 share one list, 4 its own)."""
    return TABLE4_CIRCUITS if table == 4 else TABLE13_CIRCUITS


def structural_row(name: str) -> Dict[str, object]:
    """Table I's structural columns for one circuit."""
    stats = collect_stats(circuit(name))
    return {
        "circuit": name,
        "FF": stats.n_dffs,
        "total_fanouts": stats.total_state_fanout,
        "unique_fanouts": stats.unique_first_level,
        "ratio": round(stats.unique_fanout_ratio, 2),
    }
