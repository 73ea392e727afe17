"""Classical symbolic finite automata: the eager Boolean-operations
baseline ("approach 1" of the paper's introduction)."""

from repro.automata.sfa import SFA, StateBudget
from repro.automata.thompson import thompson
from repro.automata.ops import (
    complement, determinize, nfa_concat, nfa_star, nfa_union, product,
    remove_epsilons,
)
from repro.automata.eager import eager_compile

__all__ = [
    "SFA", "StateBudget", "thompson",
    "remove_epsilons", "determinize", "complement", "product",
    "nfa_union", "nfa_concat", "nfa_star", "eager_compile",
]
