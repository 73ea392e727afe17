"""Regression tests: deeply nested groups must never escape as an
uncaught :class:`RecursionError` (they used to kill the parser at
~150 levels of nesting)."""

import sys

import pytest

from repro.errors import RegexSyntaxError
from repro.regex import parse
from repro.regex.parser import _MAX_RECURSION_LIMIT
from repro.regex.printer import to_pattern


def nested(depth, core="a"):
    return "(" * depth + core + ")" * depth


class TestDeepNesting:
    def test_600_deep_group_parses(self, ascii_builder):
        b = ascii_builder
        assert parse(b, nested(600)) is b.char("a")

    def test_5000_deep_group_parses(self, ascii_builder):
        b = ascii_builder
        assert parse(b, nested(5000)) is b.char("a")

    def test_deep_nesting_with_operators(self, ascii_builder):
        b = ascii_builder
        r = parse(b, nested(600, "a|b*"))
        assert r is b.union([b.char("a"), b.star(b.char("b"))])

    def test_absurd_nesting_is_a_typed_error(self, ascii_builder):
        # beyond the recursion-limit ceiling the parser must reject the
        # input with a structured error, not an interpreter crash
        depth = _MAX_RECURSION_LIMIT // 2
        with pytest.raises(RegexSyntaxError, match="nesting too deep"):
            parse(ascii_builder, nested(depth))

    def test_recursion_limit_restored(self, ascii_builder):
        before = sys.getrecursionlimit()
        parse(ascii_builder, nested(600))
        assert sys.getrecursionlimit() == before
        with pytest.raises(RegexSyntaxError):
            parse(ascii_builder, nested(_MAX_RECURSION_LIMIT // 2))
        assert sys.getrecursionlimit() == before

    def test_unbalanced_deep_nesting_reports_position(self, ascii_builder):
        with pytest.raises(RegexSyntaxError) as info:
            parse(ascii_builder, "(" * 600 + "a" + ")" * 599)
        assert "nesting too deep" not in str(info.value)


def alternating(depth):
    """A deep pattern whose AST does NOT collapse: ``a(b|a(b|...))``.

    Unlike :func:`nested`, every level survives canonicalization, so
    the resulting regex really is ``2*depth`` nodes tall — the input
    that used to crash every recursive structural pass."""
    return "a(b|" * depth + "a" + ")" * depth


class TestDeepStructuralPasses:
    """The frozen crash cluster (tests/corpus/print-deep-nesting-*):
    printing, SMT-LIB serialization, length bounds and simplification
    recursed over the AST and died on deep non-collapsing regexes —
    with ``RecursionError``, or a hard interpreter fault once the
    recursion limit was raised past the C stack.  All four are now
    iterative folds, as is the ``B(RE)`` check that gates the
    metamorphic atom bound; none may touch the recursion limit."""

    DEPTH = 4000

    @pytest.fixture(scope="class")
    def deep(self, request):
        from repro.alphabet import IntervalAlgebra
        from repro.regex import RegexBuilder

        builder = RegexBuilder(IntervalAlgebra(127))
        return builder, parse(builder, alternating(self.DEPTH))

    def test_print_roundtrip(self, deep):
        builder, regex = deep
        before = sys.getrecursionlimit()
        text = to_pattern(regex, builder.algebra)
        assert parse(builder, text) is regex
        assert sys.getrecursionlimit() == before

    def test_smtlib_serialization(self, deep):
        from repro.smtlib.writer import regex_to_smtlib

        builder, regex = deep
        term = regex_to_smtlib(regex, builder.algebra)
        assert term.startswith("(re.++")

    def test_structural_bounds(self, deep):
        from repro.analysis.lengths import structural_max, structural_min

        builder, regex = deep
        assert structural_min(regex) == 2
        assert structural_max(regex) == self.DEPTH + 1

    def test_depth_is_iterative_too(self, deep):
        _, regex = deep
        assert regex.depth() == 2 * self.DEPTH

    def test_b_re_check_and_identities(self, deep):
        from repro.verify.metamorphic import check_identities

        builder, regex = deep
        assert regex.in_b_re()
        assert check_identities(builder, regex) == []

    def test_fold_postorder_memoizes_shared_subterms(self, ascii_builder):
        from repro.regex.ast import fold_postorder

        b = ascii_builder
        # a DAG with exponential tree size: each level references the
        # previous one twice through distinct wrappers
        node = b.char("a")
        for _ in range(60):
            node = b.union([
                b.concat([node, b.char("a")]),
                b.concat([node, b.char("b")]),
            ])
        calls = []
        total = fold_postorder(
            node,
            lambda n, kids: calls.append(n.uid) or (1 + sum(kids)),
        )
        # linearly many fn calls despite the 2^60-node tree reading
        assert len(calls) <= 500
        assert total > 2 ** 60


class TestQuantifiedLoopRoundTrip:
    """The printer used to emit ``a{1,2}?`` for ``(a{1,2})?``, which
    re-parsed with the ``?`` swallowed as a lazy-quantifier marker."""

    def test_opt_of_bounded_loop(self, ascii_builder):
        b = ascii_builder
        r = b.opt(b.loop(b.char("a"), 1, 2))
        pattern = to_pattern(r, b.algebra)
        assert pattern == "(a{1,2})?"
        assert parse(b, pattern) is r

    def test_star_of_plus(self, ascii_builder):
        b = ascii_builder
        r = b.loop(b.loop(b.char("a"), 2, 3), 2, 3)
        pattern = to_pattern(r, b.algebra)
        assert parse(b, pattern) is r
