"""Reference (pre-compile) simulators: the oracles the fast kernels match.

Public surface::

    from repro.perf import ReferenceFaultSimulator  # pre-compile baseline
    from repro.perf import ReferenceLogicSimulator

``python -m repro bench`` (:mod:`repro.perf.bench`) times each fast
kernel against its oracle; only that verb imports it.
"""

from .reference import ReferenceFaultSimulator, ReferenceLogicSimulator

__all__ = [
    "ReferenceFaultSimulator",
    "ReferenceLogicSimulator",
]
