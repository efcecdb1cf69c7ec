"""Fault models, fault simulation and test generation.

Public surface::

    from repro.fault import StuckFault, TransitionFault
    from repro.fault import all_stuck_faults, all_transition_faults
    from repro.fault import collapse_stuck, collapse_transition
    from repro.fault import FaultSimulator, Podem, TransitionAtpg
    from repro.fault import AtpgFlow, run_flow
    from repro.fault import resolve_backend, select_backend
"""

from .atpg_flow import (
    AtpgFlow,
    AtpgFlowConfig,
    AtpgFlowResult,
    flow_artifact,
    run_flow,
)
from .backends import (
    BACKEND_AUTO,
    BACKEND_INT,
    BACKEND_NUMPY,
    numpy_available,
    resolve_backend,
    select_backend,
    select_batch_faults,
)
from .collapse import (
    collapse_stuck,
    collapse_transition,
    dominance_collapse_stuck,
    dominance_collapse_transition,
)
from .fsim import (
    FaultSimResult,
    FaultSimulator,
    random_pattern_coverage,
    random_pattern_words,
)
from .models import (
    FALL,
    RISE,
    StuckFault,
    TransitionFault,
    all_stuck_faults,
    all_transition_faults,
)
from .broadside import BroadsideAtpg, unroll_two_frames
from .podem import AtpgResult, Podem, eval3, generate_tests, justify
from .sharded import ShardedFaultSimulator, shard_faults
from .quality import EscapeReport, escape_study, sample_delay_defects
from .transition import (
    STYLE_ARBITRARY,
    STYLE_BROADSIDE,
    STYLE_PARTIAL,
    STYLE_SKEWED,
    TransitionAtpg,
    TransitionAtpgResult,
    TwoPatternTest,
    compare_styles,
)

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_INT",
    "BACKEND_NUMPY",
    "numpy_available",
    "resolve_backend",
    "select_backend",
    "select_batch_faults",
    "AtpgFlow",
    "AtpgFlowConfig",
    "AtpgFlowResult",
    "AtpgResult",
    "BroadsideAtpg",
    "FALL",
    "FaultSimResult",
    "FaultSimulator",
    "Podem",
    "RISE",
    "STYLE_ARBITRARY",
    "STYLE_BROADSIDE",
    "STYLE_PARTIAL",
    "STYLE_SKEWED",
    "ShardedFaultSimulator",
    "shard_faults",
    "EscapeReport",
    "StuckFault",
    "TransitionAtpg",
    "TransitionAtpgResult",
    "TransitionFault",
    "TwoPatternTest",
    "all_stuck_faults",
    "all_transition_faults",
    "collapse_stuck",
    "collapse_transition",
    "dominance_collapse_stuck",
    "dominance_collapse_transition",
    "compare_styles",
    "escape_study",
    "eval3",
    "flow_artifact",
    "generate_tests",
    "justify",
    "random_pattern_coverage",
    "random_pattern_words",
    "run_flow",
    "sample_delay_defects",
    "unroll_two_frames",
]
