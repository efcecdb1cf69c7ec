"""Bit-parallel exhaustive-simulation helpers for proof cross-checks.

Every core-input combination of a compiled netlist is packed into one
arbitrary-precision integer per prefix slot (bit ``i`` of slot ``s``
carries input ``s``'s value in pattern ``i``), so a single
``eval_into`` call simulates the entire input space.  Practical up to
~20 core inputs (s298 = 17 -> 131072-bit words).
"""

from __future__ import annotations


def exhaustive_good(compiled):
    """(values, mask): every core-input combination, fully evaluated."""
    n = compiled.n_prefix
    total = 1 << n
    mask = (1 << total) - 1
    values = compiled.new_values()
    for s in range(n):
        block = 1 << s
        word = ((1 << block) - 1) << block
        width = 2 * block
        while width < total:
            word |= word << width
            width *= 2
        values[s] = word
    compiled.eval_into(values, mask)
    return values, mask


def stuck_detectable(compiled, good, mask, net, value) -> bool:
    """Whether *any* input pattern detects ``net`` stuck-at ``value``."""
    site = (compiled.index[net], mask if value else 0, None)
    return bool(compiled.detect_sites([site], good, mask)[0])


def can_reach(compiled, good, mask, net, value) -> bool:
    """Whether *any* input pattern drives ``net`` to ``value``."""
    word = good[compiled.index[net]] & mask
    return word != 0 if value else word != mask
