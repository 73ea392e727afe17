"""Theorem 7.3: for clean, normalized R in B(RE),
|Q_SBFA(R)| <= #(R) + 3.

The paper states the theorem for the star-only RE grammar; our bounded
loops are sugar whose expansion multiplies the predicate count, so for
regexes with loops the bound is checked against the *expanded* count.
"""

from hypothesis import given, settings

from repro.reference.sbfa.sbfa import from_regex
from repro.regex import parse
from repro.regex.ast import INF, LOOP, PRED
from tests.strategies import b_re_regexes, standard_regexes


def expanded_pred_count(regex):
    """#(R) of the loop-expanded regex: R{l,h} ~ h copies of R
    (l+1 copies for R{l,inf}, via R^l . R*)."""
    if regex.kind == PRED:
        return 1
    total = sum(expanded_pred_count(c) for c in regex.children or ())
    if regex.kind == LOOP:
        factor = (regex.lo + 1) if regex.hi is INF else max(regex.hi, 1)
        total *= factor
    return total


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
        sbfa = from_regex(b, r)
        assert sbfa.state_count <= strict_bound(r), (r, sbfa.state_count)

    check()


def test_theorem_7_3_with_loops_expanded(bitset_builder):
    b = bitset_builder

    @settings(max_examples=100, deadline=None)
    @given(b_re_regexes(b))
    def check(r):
        if not r.is_clean():
            return
        sbfa = from_regex(b, r)
        assert sbfa.state_count <= expanded_bound(r), (r, sbfa.state_count)

    check()


def test_theorem_7_3_on_random_standard(bitset_builder):
    b = bitset_builder

    @settings(max_examples=100, deadline=None)
    @given(standard_regexes(b, bounded_loops=False))
    def check(r):
        if not r.is_clean():
            return
        sbfa = from_regex(b, r)
        assert sbfa.state_count <= strict_bound(r)

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
        sbfa = from_regex(b, r)
        assert sbfa.state_count <= expanded_bound(r)


def test_blowup_family_is_linear_in_k(ascii_builder):
    """The determinization-blowup family has linearly many derivative
    states — the heart of the paper's performance claim (a DFA needs
    2**k states; derivatives need O(k))."""
    b = ascii_builder
    counts = []
    for k in (4, 8, 16):
        r = parse(b, "(.*a.{%d})&(.*b.{%d})" % (k, k))
        sbfa = from_regex(b, r)
        assert sbfa.state_count <= expanded_bound(r)
        assert sbfa.state_count < 2 ** k or k <= 4
        counts.append(sbfa.state_count)
    # growth is linear: doubling k roughly doubles states
    assert counts[2] - counts[1] <= 3 * (counts[1] - counts[0])


def test_general_ere_may_exceed_bound(bitset_builder):
    """Outside B(RE) the linear bound does not apply (the paper notes
    lifting can blow up); the construction must still terminate."""
    b = bitset_builder
    r = b.star(b.inter([parse(b, "(a|b)(a|b)"), parse(b, "(ab|ba|aa)")]))
    sbfa = from_regex(b, r)
    assert sbfa.state_count >= 1  # terminates; no bound asserted
