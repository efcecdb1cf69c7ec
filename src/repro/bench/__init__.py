"""ISCAS89 benchmark substrate: format I/O, catalog, reconstruction.

Public surface::

    from repro.bench import load_circuit, parse_bench, bench_text
    from repro.bench import CATALOG, TABLE13_CIRCUITS, TABLE4_CIRCUITS, s27
"""

from .catalog import (
    CATALOG,
    TABLE13_CIRCUITS,
    TABLE4_CIRCUITS,
    CircuitSpec,
    spec,
)
from .embedded import S27_BENCH, s27
from .generator import available_circuits, generate, load_circuit, stress_spec
from .parser import load_bench, parse_bench, parse_bench_lines
from .writer import bench_text, write_bench

__all__ = [
    "CATALOG",
    "CircuitSpec",
    "S27_BENCH",
    "TABLE13_CIRCUITS",
    "TABLE4_CIRCUITS",
    "available_circuits",
    "bench_text",
    "generate",
    "load_bench",
    "load_circuit",
    "parse_bench",
    "parse_bench_lines",
    "s27",
    "spec",
    "stress_spec",
    "write_bench",
]
