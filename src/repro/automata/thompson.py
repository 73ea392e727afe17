"""Thompson-style construction: standard regexes to symbolic NFAs.

Bounded loops are *expanded* (``R{0,100}`` really produces ~100 copies
of the body automaton).  That is not an oversight: it is precisely the
behaviour of eager automata pipelines that the paper's blowup
benchmarks target — counting constraints translate into state counts
before any Boolean operation even starts.

Only standard regexes (no ``&``/``~``) are handled here; the eager
baseline treats Boolean operators at the automaton level
(:mod:`repro.automata.ops`).
"""

from repro.errors import UnsupportedError, refuse_lookarounds
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOP, PRED, UNION,
)
from repro.automata.sfa import SFA, StateBudget


class _NfaBuilder:
    def __init__(self, algebra, budget):
        self.algebra = algebra
        self.budget = budget
        self.transitions = {}
        self.epsilons = {}
        self.count = 0

    def new_state(self):
        self.budget.charge()
        state = self.count
        self.count += 1
        return state

    def add(self, source, pred, target):
        self.transitions.setdefault(source, []).append((pred, target))

    def add_eps(self, source, target):
        self.epsilons.setdefault(source, set()).add(target)

    def fragment(self, regex):
        """Build a fragment; returns (entry, exit) states."""
        kind = regex.kind
        if kind == EMPTY:
            return self.new_state(), self.new_state()  # disconnected
        if kind == EPSILON:
            entry = self.new_state()
            exit_ = self.new_state()
            self.add_eps(entry, exit_)
            return entry, exit_
        if kind == PRED:
            entry = self.new_state()
            exit_ = self.new_state()
            self.add(entry, regex.pred, exit_)
            return entry, exit_
        if kind == CONCAT:
            entry, current = None, None
            for child in regex.children:
                c_entry, c_exit = self.fragment(child)
                if entry is None:
                    entry = c_entry
                else:
                    self.add_eps(current, c_entry)
                current = c_exit
            return entry, current
        if kind == UNION:
            entry = self.new_state()
            exit_ = self.new_state()
            for child in regex.children:
                c_entry, c_exit = self.fragment(child)
                self.add_eps(entry, c_entry)
                self.add_eps(c_exit, exit_)
            return entry, exit_
        if kind == LOOP:
            return self._loop(regex)
        if kind in (INTER, COMPL):
            raise UnsupportedError(
                "Thompson construction handles standard regexes only; "
                "%s must be applied at the automaton level" % kind
            )
        raise AssertionError("unknown node kind %r" % kind)

    def _loop(self, regex):
        body, lo, hi = regex.children[0], regex.lo, regex.hi
        entry = self.new_state()
        current = entry
        # mandatory copies
        for _ in range(lo):
            b_entry, b_exit = self.fragment(body)
            self.add_eps(current, b_entry)
            current = b_exit
        if hi is INF:
            # star over one more copy
            b_entry, b_exit = self.fragment(body)
            hub = self.new_state()
            self.add_eps(current, hub)
            self.add_eps(hub, b_entry)
            self.add_eps(b_exit, hub)
            return entry, hub
        exit_ = self.new_state()
        self.add_eps(current, exit_)
        # optional copies
        for _ in range(hi - lo):
            b_entry, b_exit = self.fragment(body)
            self.add_eps(current, b_entry)
            current = b_exit
            self.add_eps(current, exit_)
        return entry, exit_


def thompson(algebra, regex, budget=None):
    """Compile a standard regex to a (nondeterministic, epsilon) SFA."""
    refuse_lookarounds(regex, "Thompson construction")
    budget = budget or StateBudget()
    nfa = _NfaBuilder(algebra, budget)
    entry, exit_ = nfa.fragment(regex)
    return SFA(
        algebra, nfa.count, entry, {exit_}, nfa.transitions, nfa.epsilons,
        deterministic=False,
    )
