"""Static compaction of two-pattern test sets.

The paper weighs alternatives by "fault coverage and required number of
test patterns"; test length is tester time.  Classic reverse-order
static compaction: fault-simulate the tests from last to first, keeping
a test only if it detects some fault no kept test detects.  Coverage is
preserved exactly (every fault detected by the original set is detected
by a kept test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from ..netlist import Netlist
from .fsim import FaultSimulator
from .models import TransitionFault
from .transition import TwoPatternTest


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of one compaction run."""

    kept: Tuple[TwoPatternTest, ...]
    original_count: int
    detected_faults: int

    @property
    def ratio(self) -> float:
        """Kept share of the original test count."""
        if self.original_count == 0:
            return 1.0
        return len(self.kept) / self.original_count


def merge_test_cubes(cubes: Sequence[dict],
                     fill: int = 0) -> List[dict]:
    """Greedy compatible-merge of partially specified test cubes.

    Two cubes are compatible when they agree on every input both assign;
    the merge is their union.  Greedy first-fit over the list (the
    classic static compaction on cubes); unassigned inputs keep their
    don't-care status in the returned cubes (``fill`` them at apply
    time).  Typically shrinks a one-test-per-fault stuck-at set several
    fold.
    """
    merged: List[dict] = []
    for cube in cubes:
        for existing in merged:
            if any(
                existing.get(net, value) != value
                for net, value in cube.items()
            ):
                continue
            existing.update(cube)
            break
        else:
            merged.append(dict(cube))
    return merged


def fill_cube(cube: dict, inputs: Sequence[str], fill: int = 0) -> dict:
    """Expand a cube into a full vector, filling don't-cares."""
    return {net: cube.get(net, fill) for net in inputs}


def compact_two_pattern_tests(netlist: Netlist,
                              faults: Sequence[TransitionFault],
                              tests: Sequence[TwoPatternTest],
                              chunk: int = 60,
                              backend: str = "auto") -> CompactionResult:
    """Reverse-order static compaction of a two-pattern test set.

    Returns the kept tests in their original relative order.  The
    detection matrix is built bit-parallel in chunks, then the greedy
    reverse pass runs on plain sets; the simulation backend never
    changes which tests are kept.
    """
    if not tests:
        return CompactionResult((), 0, 0)
    sim = FaultSimulator(netlist, backend=backend)
    # detections[i] = set of fault indices test i detects.
    detections: List[Set[int]] = [set() for _ in tests]
    fault_list = list(faults)
    for start in range(0, len(tests), chunk):
        batch = tests[start: start + chunk]
        result = sim.simulate_transition(
            fault_list, [(t.v1, t.v2) for t in batch]
        )
        for f_idx, fault in enumerate(fault_list):
            mask = result.detected[fault]
            while mask:
                low = mask & -mask
                bit = low.bit_length() - 1
                detections[start + bit].add(f_idx)
                mask ^= low

    covered: Set[int] = set()
    keep_indices: List[int] = []
    for i in range(len(tests) - 1, -1, -1):
        new = detections[i] - covered
        if new:
            covered |= new
            keep_indices.append(i)
    keep_indices.reverse()
    kept = tuple(tests[i] for i in keep_indices)
    return CompactionResult(
        kept=kept,
        original_count=len(tests),
        detected_faults=len(covered),
    )
