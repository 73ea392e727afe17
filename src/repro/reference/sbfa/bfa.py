"""Classical Boolean finite automata over a finite alphabet
(Brzozowski & Leiss 1980), and Proposition 8.1: an SBFA over a finite
alphabet is a BFA with the transition function ``lambda (q, a).
Delta(q)(a)``.

Only meaningful for small explicit alphabets (use
:class:`~repro.alphabet.bitset.BitsetAlgebra`); this module exists to
make the classical correspondence executable and testable.
"""

from repro.reference.sbfa import boolstate as B


class BFA:
    """A Boolean finite automaton with an explicit transition table."""

    def __init__(self, alphabet, states, table, initial, finals):
        self.alphabet = alphabet
        self.states = set(states)
        self.table = table              # (state, char) -> B(Q)
        self.initial = initial          # element of B(Q)
        self.finals = set(finals)

    @property
    def state_count(self):
        return len(self.states)

    def accepts(self, string):
        """Forward acceptance by stepping the state combination."""
        combo = self.initial
        for char in string:
            if char not in self.alphabet:
                return False
            combo = B.map_states(combo, lambda q: self.table[(q, char)])
        return B.evaluate(combo, lambda q: q in self.finals)

    def accepts_backward(self, string):
        """The textbook Brzozowski–Leiss evaluation: propagate the
        finality vector backwards through the string."""
        value = {q: q in self.finals for q in self.states}
        for char in reversed(string):
            if char not in self.alphabet:
                return False
            value = {
                q: B.evaluate(self.table[(q, char)], lambda p: value[p])
                for q in self.states
            }
        return B.evaluate(self.initial, lambda q: value[q])


def from_sbfa(sbfa, alphabet):
    """Proposition 8.1: instantiate an SBFA over an explicit alphabet."""
    table = {}
    for state in sbfa.states:
        for char in alphabet:
            table[(state, char)] = sbfa.tr_apply(sbfa.delta[state], char)
    return BFA(set(alphabet), sbfa.states, table, sbfa.initial, sbfa.finals)
