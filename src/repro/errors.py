"""Exception hierarchy for the FLH reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything produced by this package with a single except clause while
still being able to discriminate netlist problems from, e.g., ATPG failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class NetlistError(ReproError):
    """Structural problem in a netlist (duplicate driver, missing net, ...)."""


class ParseError(ReproError):
    """Malformed input while parsing an ISCAS89 ``.bench`` file."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class LibraryError(ReproError):
    """Unknown cell or inconsistent cell-library definition."""


class MappingError(ReproError):
    """Technology mapping could not cover the netlist."""


class TimingError(ReproError):
    """Static timing analysis failed (e.g. combinational loop)."""


class SimulationError(ReproError):
    """Logic or electrical simulation was asked to do something impossible."""


class AtpgError(ReproError):
    """Test generation failed in an unexpected way (not mere untestability)."""


class DftError(ReproError):
    """A design-for-test transform was applied to an unsuitable netlist."""


class LintError(ReproError):
    """Static-analysis engine misuse (unknown rule, bad baseline file)."""
