"""Structural length bounds: a shortest and a longest member length
read off an ERE's syntax, exact on complement-free regexes."""

from repro.analysis.lengths import (
    NO_MEMBER, UNBOUNDED, structural_max, structural_min,
)

__all__ = ["structural_min", "structural_max", "NO_MEMBER", "UNBOUNDED"]
