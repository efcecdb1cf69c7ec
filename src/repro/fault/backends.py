"""Simulation backend registry: packed-int kernels vs numpy wide-batch.

Two interchangeable fault-simulation backends exist:

``"int"``
    The packed-Python-int kernels of :mod:`repro.netlist.compiled` --
    always available, best for narrow batches and small circuits.

``"numpy"``
    The multi-word wide-batch engine of :mod:`repro.netlist.wide` --
    contiguous uint64 arrays with changed-set pruning, best for wide
    pattern batches on large circuits.  Requires numpy.

Both are pinned bit-identical (masks, dict order, coverage) on every
catalog circuit, so selection is purely a performance decision.

``"auto"`` (the default for the command-line tools) selects the numpy
backend only when numpy is importable **and** the workload is in the
regime the wide engine measurably wins: the pattern batch spans more
than one 64-bit word and the circuit is larger than anything in the
catalog (changed-set pruning pays off with cone size; on catalog-sized
circuits at ATPG batch widths the integer kernels are at least as
fast).  Requesting ``"numpy"`` explicitly without numpy installed
raises :class:`~repro.errors.SimulationError`; everything else
degrades gracefully to ``"int"``.

The registry also sizes the wide engine's fault batch: how many faults
one plan walk carries (:func:`select_batch_faults`, from the circuit
size and the pattern width).  The size is purely a performance choice
-- the walk's results are pinned bit-identical to the integer kernels
at every batch size.
"""

from __future__ import annotations

from typing import Optional

from ..errors import SimulationError

BACKEND_AUTO = "auto"
BACKEND_INT = "int"
BACKEND_NUMPY = "numpy"

#: ``auto`` engages the wide backend only past one word of patterns.
WIDE_MIN_PATTERNS = 65

#: ... and only on circuits with at least this many evaluated gates.
#: Measured crossover: at 256-pattern batches the wide engine is
#: 0.3-0.9x on every catalog circuit (s5378 0.31x, s38417 0.90x,
#: s38584 1.07x) and only pulls ahead decisively on the synthetic
#: stress circuits (3.6x at 58k gates, 8x at 207k, 4096 patterns).
WIDE_MIN_GATES = 25_000

#: Hard ceiling on faults per wide-engine batch.  Past this the
#: per-level pair bookkeeping stops amortizing the python overhead it
#: is meant to remove.
WIDE_MAX_BATCH_FAULTS = 64

#: Sets the batch size: :func:`select_batch_faults` divides this word
#: count by the per-fault footprint ``n_slots * n_words``.  The batched
#: walk stores only the (net, fault) pairs that differ from the good
#: machine, so the constant no longer bounds an allocation; it is kept
#: at its measured value because it alone fixes the batch sizes.
WIDE_BATCH_BUDGET_WORDS = 16_000_000

_NUMPY_AVAILABLE: Optional[bool] = None


def numpy_available() -> bool:
    """True when numpy can be imported (cached after the first probe)."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            _NUMPY_AVAILABLE = False
        else:
            _NUMPY_AVAILABLE = True
    return _NUMPY_AVAILABLE


def resolve_backend(name: Optional[str]) -> str:
    """Resolve a requested backend name to ``"int"`` or ``"numpy"``.

    ``None`` and ``"auto"`` pick the numpy backend when available and
    fall back to the integer kernels otherwise.  An explicit
    ``"numpy"`` request without numpy raises
    :class:`~repro.errors.SimulationError` -- the caller asked for
    something this interpreter cannot provide.
    """
    name = BACKEND_AUTO if name is None else name
    if name == BACKEND_AUTO:
        return BACKEND_NUMPY if numpy_available() else BACKEND_INT
    if name == BACKEND_INT:
        return BACKEND_INT
    if name == BACKEND_NUMPY:
        if not numpy_available():
            raise SimulationError(
                "simulation backend 'numpy' requested but numpy is not "
                "importable; install numpy or use backend 'int'/'auto'"
            )
        return BACKEND_NUMPY
    raise SimulationError(
        f"unknown simulation backend {name!r} "
        f"(choose from 'auto', 'int', 'numpy')"
    )


def select_backend(name: Optional[str], n_patterns: int,
                   n_gates: Optional[int] = None) -> str:
    """Effective backend for one packed call of ``n_patterns`` lanes.

    Like :func:`resolve_backend`, but ``"auto"`` additionally considers
    the workload: batches of at most one word (64 patterns) stay on the
    integer kernels even when numpy is available, as do circuits below
    :data:`WIDE_MIN_GATES` evaluated gates when ``n_gates`` is given
    (pass the circuit size when known; ``None`` decides on batch width
    alone).
    """
    name = BACKEND_AUTO if name is None else name
    if name == BACKEND_AUTO:
        if n_patterns < WIDE_MIN_PATTERNS:
            return BACKEND_INT
        if n_gates is not None and n_gates < WIDE_MIN_GATES:
            return BACKEND_INT
    return resolve_backend(name)


def select_batch_faults(n_patterns: int, n_slots: int) -> int:
    """Faults per wide-engine plan walk for one packed call.

    Divides :data:`WIDE_BATCH_BUDGET_WORDS` by the per-fault footprint
    (``n_slots`` value slots times the word count for ``n_patterns``
    lanes), clamped to ``[1, WIDE_MAX_BATCH_FAULTS]`` -- wide pattern
    batches on huge circuits get small fault batches, the narrow
    ATPG-regime batches the batching exists for get the full 64.  The
    quotient only sets the batch size: the batched walk's memory
    follows the faults' live effects, not this footprint.
    """
    n_words = max(1, (n_patterns + 63) // 64)
    per_fault = max(1, n_slots) * n_words
    return max(1, min(WIDE_MAX_BATCH_FAULTS,
                      WIDE_BATCH_BUDGET_WORDS // per_fault))


#: Backtrack-budget multiplier of the deep rescue policy in a racing
#: portfolio: aborts under the base budget get one more, much deeper,
#: differently-guided attempt before the fault is committed aborted.
RACE_BUDGET_FACTOR = 4


def podem_portfolio(backtrack_limit: int, base_guided: bool = False,
                    race: bool = False):
    """The ordered PODEM policy portfolio for one ATPG flow.

    Policy 0 is always the flow's own configuration (``base_guided``
    mirrors ``--analysis``), so a non-racing run degrades to exactly
    the historical single-engine search.  With ``race=True`` two
    diversity policies join: the opposite backtrace guidance at the
    same budget, and a SCOAP-guided deep search at
    :data:`RACE_BUDGET_FACTOR` times the budget.  The portfolio *order*
    is the determinism contract -- the committed outcome is the first
    non-aborted result in policy order, never the wall-clock winner --
    so the tuple must be a pure function of its arguments.
    """
    from .podem import PodemPolicy

    if backtrack_limit < 0:
        raise SimulationError(
            f"backtrack_limit must be >= 0, got {backtrack_limit}"
        )
    base = PodemPolicy(name="guided" if base_guided else "base",
                       guided=base_guided, backtrack_limit=None)
    if not race:
        return (base,)
    flipped = PodemPolicy(
        name="base" if base_guided else "guided",
        guided=not base_guided, backtrack_limit=None,
    )
    deep = PodemPolicy(name="deep-guided", guided=True,
                       backtrack_limit=RACE_BUDGET_FACTOR * backtrack_limit)
    return (base, flipped, deep)


def get_wide_engine(compiled):
    """A :class:`~repro.netlist.wide.WideEngine` over ``compiled``.

    Raises :class:`~repro.errors.SimulationError` when numpy is not
    importable (mirrors :func:`resolve_backend` on ``"numpy"``).
    """
    if not numpy_available():
        raise SimulationError(
            "simulation backend 'numpy' requested but numpy is not "
            "importable; install numpy or use backend 'int'/'auto'"
        )
    from ..netlist.wide import WideEngine
    return WideEngine(compiled)
