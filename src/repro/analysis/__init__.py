"""Static testability analysis over compiled netlists.

Three cooperating layers, all simulation-free:

* :mod:`repro.analysis.scoap` -- SCOAP controllability/observability
  measures, sequential-depth-aware per scan style;
* :mod:`repro.analysis.implications` -- static implication learning
  (direct + transitive, to a fixed point) per net assignment;
* :mod:`repro.analysis.untestable` -- sound structural untestability
  proofs for stuck-at and transition faults built on the implications.

:class:`TestabilityAnalyzer` (:mod:`repro.analysis.engine`) is the
facade the CLI, the TA lint pack, and the ATPG flow share; results are
persisted through the ``analysis`` disk-cache namespace.
"""

from .engine import (
    ANALYSIS_CACHE_SCHEMA,
    REPORT_SCHEMA,
    TestabilityAnalyzer,
    clear_analysis_cache,
)
from .implications import ImplicationEngine
from .scoap import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SEQ_PENALTY,
    KNOWN_STYLES,
    ScoapScores,
    compute_scoap,
    scan_cell_difficulty,
)
from .untestable import REASONS, UntestabilityProver
from .cli import analyze_main

__all__ = [
    "ANALYSIS_CACHE_SCHEMA",
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_SEQ_PENALTY",
    "ImplicationEngine",
    "KNOWN_STYLES",
    "REASONS",
    "REPORT_SCHEMA",
    "ScoapScores",
    "TestabilityAnalyzer",
    "UntestabilityProver",
    "analyze_main",
    "clear_analysis_cache",
    "compute_scoap",
    "scan_cell_difficulty",
]
