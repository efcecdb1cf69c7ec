"""Experiment drivers: one module per paper table / figure / claim.

Public surface::

    from repro.experiments import table1_area, table2_delay, table3_power
    from repro.experiments import table4_fanout, fig2_decay, fig4_hold
    from repro.experiments import fig5_timing, coverage_study, ablation_sizing
    from repro.experiments import shift_power, partial_study, variation_quality
"""

from . import (
    ablation_sizing,
    common,
    coverage_study,
    fig2_decay,
    fig4_hold,
    fig5_timing,
    parallel,
    partial_study,
    report,
    shift_power,
    table1_area,
    table2_delay,
    table3_power,
    table4_fanout,
    variation_quality,
)
from .parallel import ParallelRunner, TaskOutcome, run_per_circuit
from .report import format_table, summary_line

__all__ = [
    "ParallelRunner",
    "TaskOutcome",
    "ablation_sizing",
    "common",
    "coverage_study",
    "fig2_decay",
    "fig4_hold",
    "fig5_timing",
    "format_table",
    "parallel",
    "partial_study",
    "report",
    "run_per_circuit",
    "shift_power",
    "summary_line",
    "table1_area",
    "table2_delay",
    "table3_power",
    "table4_fanout",
    "variation_quality",
]
