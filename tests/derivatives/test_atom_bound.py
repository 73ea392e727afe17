"""Theorem 7.3 on the product engine: for clean R in B(RE), the
derivative states reachable from R are Boolean combinations of at most
#(R) + 3 atoms.

The paper bounds the states of its Section 7 symbolic Boolean
automaton, whose transitions keep ``&``, ``|`` and ``~`` above their
operands' derivatives.  The condtree engine pushes those operators into
its leaves instead, so its states are Boolean combinations of atoms
(:func:`reachable_atoms`), and the atoms take the place of the
automaton's states.  The theorem is stated for the
star-only RE grammar; our bounded loops are sugar whose expansion
multiplies the predicate count, so for regexes with loops the bound is
checked against the *expanded* count.
"""

from hypothesis import given, settings

from repro.derivatives.condtree import DerivativeEngine
from repro.regex import parse
from repro.verify.metamorphic import expanded_pred_count, reachable_atoms
from tests.strategies import b_re_regexes, standard_regexes


def atom_count(builder, regex):
    return len(reachable_atoms(DerivativeEngine(builder), regex))


def strict_bound(regex):
    return regex.pred_count() + 3


def expanded_bound(regex):
    return expanded_pred_count(regex) + 3


def test_theorem_7_3_star_only_strict(bitset_builder):
    """The paper's exact bound, on the paper's exact grammar."""
    b = bitset_builder

    @settings(max_examples=150, deadline=None)
    @given(b_re_regexes(b, bounded_loops=False))
    def check(r):
        if not r.is_clean():
            return
        atoms = atom_count(b, r)
        assert atoms <= strict_bound(r), (r, atoms)

    check()


def test_theorem_7_3_with_loops_expanded(bitset_builder):
    b = bitset_builder

    @settings(max_examples=100, deadline=None)
    @given(b_re_regexes(b))
    def check(r):
        if not r.is_clean():
            return
        atoms = atom_count(b, r)
        assert atoms <= expanded_bound(r), (r, atoms)

    check()


def test_theorem_7_3_on_random_standard(bitset_builder):
    b = bitset_builder

    @settings(max_examples=100, deadline=None)
    @given(standard_regexes(b, bounded_loops=False))
    def check(r):
        if not r.is_clean():
            return
        assert atom_count(b, r) <= strict_bound(r)

    check()


def test_paper_examples(ascii_builder):
    b = ascii_builder
    for pattern in [
        r"(.*\d.*)&~(.*01.*)",
        r"(.*a.*)&(.*b.*)",
        r"~(a*b*)",
        r"(a|b)*ab(a|b)*&~(b*)",
    ]:
        r = parse(b, pattern)
        assert r.in_b_re()
        assert atom_count(b, r) <= expanded_bound(r)


def test_blowup_family_is_linear_in_k(ascii_builder):
    """The determinization-blowup family reaches exactly k + 2 atoms
    (``.*a.{k}``, ``.*b.{k}`` and ``.{k}`` down to ``.``) — the heart
    of the paper's performance claim: a DFA needs 2**k states, while
    every derivative state combines O(k) atoms."""
    b = ascii_builder
    for k in (4, 8, 16):
        r = parse(b, "(.*a.{%d})&(.*b.{%d})" % (k, k))
        atoms = atom_count(b, r)
        assert atoms == k + 2
        assert atoms <= expanded_bound(r)


def test_general_ere_may_exceed_bound(bitset_builder):
    """Outside B(RE) the linear bound does not apply (the paper notes
    lifting can blow up); the closure must still terminate."""
    b = bitset_builder
    r = b.star(b.inter([parse(b, "(a|b)(a|b)"), parse(b, "(ab|ba|aa)")]))
    assert not r.in_b_re()
    assert atom_count(b, r) >= 1  # terminates; no bound asserted
