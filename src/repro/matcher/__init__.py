"""Derivative-based matching over concrete strings (paper, §8.5):
the SRM-style counterpart of the solver, sharing the same derivative
engine but never needing conditionals because the next character is
always known."""

from repro.matcher.dfa_cache import LazyDfa
from repro.matcher.matcher import Match, RegexMatcher, compile_pattern

__all__ = ["LazyDfa", "RegexMatcher", "Match", "compile_pattern"]
