"""The end-position-set matcher against independent definitions.

:mod:`repro.regex.semantics` computes, per ``(node, start)``, the set of
end positions as a bitset.  These tests pin it to the (start, end)
recursion it replaced (kept verbatim in ``tests/regex/pair_semantics``),
to classical Brzozowski matching on longer strings, to a work bound
(each pair evaluated once, loops in O(n) rounds), and to its
independence from the code it is the oracle for.
"""

import ast
import os
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.alphabet import IntervalAlgebra
from repro.derivatives import brzozowski
from repro.regex import RegexBuilder, parse
from repro.regex.semantics import Matcher
from tests.regex.pair_semantics import PairMatcher
from tests.strategies import (
    extended_regexes, lookaround_regexes, short_strings,
)


class CountingMatcher(Matcher):
    """Counts evaluations per ``(node, start)`` and body-step rounds."""

    def __init__(self, algebra):
        super().__init__(algebra)
        self.evaluations = Counter()
        self.steps = 0

    def _compute(self, node, i):
        self.evaluations[node.uid, i] += 1
        return super()._compute(node, i)

    def _step(self, node, starts):
        self.steps += 1
        return super()._step(node, starts)


# -- differential against the (start, end) recursion ------------------------


def _agrees_with_pairs(builder, regex, text, start):
    ours, theirs = Matcher(builder.algebra), PairMatcher(builder.algebra)
    assert ours.matches(regex, text) == theirs.matches(regex, text)
    assert ours.search(regex, text, start) == theirs.search(regex, text, start)


def test_extended_agrees_with_pair_recursion(bitset_builder):
    b = bitset_builder

    @settings(max_examples=300, deadline=None)
    @given(extended_regexes(b), short_strings(8), st.integers(0, 8))
    def check(r, s, start):
        _agrees_with_pairs(b, r, s, start)

    check()


def test_lookarounds_agree_with_pair_recursion(bitset_builder):
    b = bitset_builder

    @settings(max_examples=300, deadline=None)
    @given(lookaround_regexes(b), short_strings(8), st.integers(0, 8))
    def check(r, s, start):
        _agrees_with_pairs(b, r, s, start)

    check()


def test_memo_shared_across_regexes_on_one_string(bitset_builder):
    b = bitset_builder
    ours, theirs = Matcher(b.algebra), PairMatcher(b.algebra)
    patterns = ["(ab)*", "~(.*0.*)", "(?<=a)b.*", ".*(?=1)", "(a|b){2,3}1"]
    for text in ("ab", "abab1", "ba01", ""):
        for pattern in patterns:
            r = parse(b, pattern)
            assert ours.matches(r, text) == theirs.matches(r, text)
            assert ours.search(r, text) == theirs.search(r, text)


# -- differential against Brzozowski derivatives on long strings -------------

#: Chunks that keep long random strings near the regexes' languages.
_CHUNKS = ["a", "b", "0", "1", "ab", "ba", "aa", "01"]


def test_agrees_with_brzozowski_on_long_strings(bitset_builder):
    b = bitset_builder
    texts = st.lists(st.sampled_from(_CHUNKS), max_size=20).map("".join)

    @settings(max_examples=200, deadline=None)
    @given(extended_regexes(b), texts)
    def check(r, s):
        assert Matcher(b.algebra).matches(r, s) == brzozowski.matches(b, r, s)

    check()


def test_bounded_loops_agree_with_brzozowski(bitset_builder):
    b = bitset_builder
    patterns = [
        "(a|ab){3,9}b*", "((ab)?){4,6}", "(a?b?){7}", "~((a|b){5,})",
        "(.{3}&(a.*)){2,4}", "((a|b)*0){2,}1?", "(a{2,3}){5,7}",
    ]
    for pattern in patterns:
        r = parse(b, pattern)
        for length in range(20, 41):
            for text in ("ab" * 21)[:length], ("aab0" * 11)[:length]:
                assert Matcher(b.algebra).matches(r, text) == \
                    brzozowski.matches(b, r, text), (pattern, text)


# -- work bound ----------------------------------------------------------------


def _password_constraint(builder):
    p = lambda pattern: parse(builder, pattern)
    return builder.inter([
        p(r".*\d.*"), p(r".*[a-z].*"), p(r".{8,512}"),
        builder.compl(p(r".*qwerty.*")),
    ])


def test_each_node_start_pair_evaluated_once():
    """A 500-character witness against a password-shaped constraint:
    no (node, start) pair is evaluated twice, so the total is at most
    the number of nodes times the number of positions."""
    b = RegexBuilder(IntervalAlgebra(127))
    regex = _password_constraint(b)
    witness = ("qwert1" * 84)[:500]
    matcher = CountingMatcher(b.algebra)
    assert matcher.matches(regex, witness)
    assert max(matcher.evaluations.values()) == 1
    nodes = len({node.uid for node in regex.iter_subterms()})
    assert len(matcher.evaluations) <= nodes * (len(witness) + 1)
    # a second query on the same string is answered from the memo
    before = sum(matcher.evaluations.values())
    assert not matcher.matches(b.compl(regex), witness)
    assert sum(matcher.evaluations.values()) == before + 1


def test_loops_finish_in_linear_rounds():
    """Huge bounds on bodies that can match the empty span (at every
    position, or only where an assertion holds) stop at the fixed point
    of the position set: at most n + 2 rounds up to the lower bound and
    n + 1 past it."""
    b = RegexBuilder(IntervalAlgebra(127))
    a50, a40b10, b10a40 = "a" * 50, "a" * 40 + "b" * 10, "b" * 10 + "a" * 40
    cases = [
        ("(a?){1000000}", a50, True),
        ("(a?){1000000}", a40b10, False),
        ("(a|b|(?=b)){1000000,}", a40b10, True),
        ("(a|(?=a)){0,1000000}", a50, True),
        ("((?<=b)|a){1000000}", a50, False),
        ("((?<=a)|b|a){1000000}", b10a40, True),
    ]
    for pattern, text, expected in cases:
        matcher = CountingMatcher(b.algebra)
        assert matcher.matches(parse(b, pattern), text) is expected, pattern
        assert matcher.steps <= 2 * len(text) + 3, (pattern, matcher.steps)


# -- independence --------------------------------------------------------------

#: Packages the reference semantics must never depend on: it is the
#: oracle they are all checked against.
_FORBIDDEN = ("repro.derivatives", "repro.automata", "repro.matcher",
              "repro.solver")


def _module_path(name):
    root = os.path.dirname(os.path.dirname(repro.__file__))
    base = os.path.join(root, *name.split("."))
    if os.path.isdir(base):
        return os.path.join(base, "__init__.py")
    return base + ".py"


def _imports(name):
    """Every module named by an import statement in module ``name``,
    at any nesting (function-level imports count too)."""
    with open(_module_path(name), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update("%s.%s" % (node.module, alias.name)
                         for alias in node.names)
    return {n for n in found if os.path.exists(_module_path(n))
            and n.startswith("repro.")}


def test_semantics_imports_no_engine_code():
    """The module, and every repro module it reaches through import
    statements (package ``__init__`` re-exports aside), stay clear of
    the derivative, automaton, matcher and solver packages."""
    seen, todo = set(), ["repro.regex.semantics"]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        assert not name.startswith(_FORBIDDEN), name
        todo.extend(n for n in _imports(name)
                    if not _module_path(n).endswith("__init__.py"))
    assert "repro.regex.ast" in seen
