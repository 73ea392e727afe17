"""First-class lookarounds and anchors (PR 10).

Covers the whole thread: parser (both readings of ``\\b``, specific
inline-flag errors), printer fixpoint, builder identities, positional
semantics differentially against ``re``, reverse duality, lookaround
elimination (exact language preservation), and solver verdicts — with
the typed-unknown degradation pinned for the shapes that have no sound
translation.
"""

import re
import sys

import pytest

from repro.analysis.lengths import structural_max, structural_min
from repro.automata.eager import eager_compile
from repro.automata.sfa import StateBudget
from repro.automata.thompson import thompson
from repro.derivatives.antimirov import linear_form
from repro.derivatives.brzozowski import brzozowski
from repro.derivatives.condtree import DerivativeEngine
from repro.errors import RegexSyntaxError, UnsupportedError
from repro.reference.derivative import brzozowski_via_delta, derivative
from repro.reference.dnf import delta_dnf
from repro.regex import RegexBuilder, parse, to_pattern
from repro.regex.ast import (
    EPSILON, LOOK_KINDS, LOOKAHEAD, LOOKBEHIND, NEG_LOOKAHEAD,
    NEG_LOOKBEHIND,
)
from repro.regex.semantics import Matcher, language_upto
from repro.regex.transform import eliminate_lookarounds, reverse
from repro.solver import RegexSolver
from repro.solver.baselines import (
    AntimirovSolver, EagerAutomataSolver, MintermSolver,
)

#: The seven surface constructs the issue names.
CONSTRUCTS = [
    r"(?=ab)a.", r"(?!ab)a.", r"a(?<=a)b", r"ab(?<!a)",
    r"^ab", r"ab$", r"a\b b",
]

ALPHABET = "ab 0"


@pytest.fixture
def builder(ascii_builder):
    return ascii_builder


# -- parser -----------------------------------------------------------------


def test_seven_constructs_parse(builder):
    for pattern in CONSTRUCTS:
        regex = parse(builder, pattern)
        assert regex.has_look


def test_backslash_b_in_class_is_backspace(builder):
    matcher = Matcher(builder.algebra)
    backspace_class = parse(builder, r"[\b]")
    assert not backspace_class.has_look
    assert matcher.matches(backspace_class, "\x08")
    assert not matcher.matches(backspace_class, "b")
    boundary = parse(builder, r"\b")
    assert boundary.has_look
    assert not matcher.matches(boundary, "\x08")


def test_backslash_B_is_negated_boundary(builder):
    matcher = Matcher(builder.algebra)
    regex = parse(builder, r"a\Bb")
    assert matcher.matches(regex, "ab")
    regex = parse(builder, r"a\B b")
    assert not matcher.matches(regex, "a b")


def test_lookbehind_negative_marker_consumed(builder):
    # regression: (?<! once leaked the '!' into the body
    regex = parse(builder, r"a(?<!b)c")
    printed = to_pattern(regex, builder.algebra)
    assert "!!" not in printed
    assert parse(builder, printed) is regex


def test_inline_flag_groups_get_specific_errors(builder):
    with pytest.raises(RegexSyntaxError) as exc:
        parse(builder, "a(?i)b")
    assert "leading (?i)" in str(exc.value)
    assert exc.value.position == 1
    with pytest.raises(RegexSyntaxError) as exc:
        parse(builder, "(?s:ab)")
    assert "scoped inline flags" in str(exc.value)
    assert exc.value.position == 0
    with pytest.raises(RegexSyntaxError) as exc:
        parse(builder, "x(?i-s:y)")
    assert "scoped inline flags" in str(exc.value)
    assert exc.value.position == 1
    with pytest.raises(RegexSyntaxError) as exc:
        parse(builder, "(?im)x")
    assert "(?im)" in str(exc.value)


def test_unterminated_lookaround_errors(builder):
    for bad in ["(?=a", "(?!a", "(?<=a", "(?<!a"]:
        with pytest.raises(RegexSyntaxError):
            parse(builder, bad)


# -- printer ----------------------------------------------------------------


def test_print_parse_print_fixpoint(builder):
    for pattern in CONSTRUCTS + [
        r"(?=a*b)a+", r"(?:(?!aa).)*", r"^(?=.*a)(?=.*b).{2,4}$",
        r"\ba\b", r"\Ba", r"\Aab\Z",
    ]:
        regex = parse(builder, pattern)
        printed = to_pattern(regex, builder.algebra)
        reparsed = parse(builder, printed)
        assert reparsed is regex
        assert to_pattern(reparsed, builder.algebra) == printed


# -- builder identities -----------------------------------------------------


def test_nullable_body_collapses(builder):
    a = builder.char("a")
    assert builder.lookahead(builder.star(a)) is builder.epsilon
    assert builder.neg_lookahead(builder.star(a)) is builder.empty
    assert builder.lookbehind(builder.epsilon) is builder.epsilon


def test_empty_body_collapses(builder):
    assert builder.lookahead(builder.empty) is builder.empty
    assert builder.neg_lookahead(builder.empty) is builder.epsilon


def test_assertion_of_assertion_collapses(builder):
    a = builder.char("a")
    inner = builder.neg_lookahead(a)
    assert builder.lookahead(inner) is inner
    # double negation flips polarity; the body's direction wins
    assert builder.neg_lookahead(inner) is builder.lookahead(a)
    assert builder.neg_lookbehind(inner) is builder.lookahead(a)


def test_opt_of_assertion_is_epsilon(builder):
    # (?!a)? may always take the skip branch
    a = builder.char("a")
    assert builder.opt(builder.neg_lookahead(a)) is builder.epsilon
    assert builder.star(builder.lookahead(a)) is builder.epsilon
    # {1,n} over an assertion re-checks the same position: one check
    assert builder.loop(builder.lookahead(a), 1, 3) is builder.lookahead(a)


def test_nullable_bit_is_empty_string_membership(builder):
    # the stored bit answers '"" in L(R)' exactly, under fullmatch
    matcher = Matcher(builder.algebra)
    for pattern in [r"(?=a)", r"(?!a)", r"(?<=a)", r"(?<!a)",
                    r"^$", r"\b", r"\B", r"(?!a)b?"]:
        regex = parse(builder, pattern)
        assert regex.nullable == matcher.matches(regex, "")


# -- positional semantics vs re ---------------------------------------------


DIFFERENTIAL = CONSTRUCTS + [
    r"(?=a*b)a+", r"(?!.*aa)[ab]{1,3}", r"(?:(?!aa).)*",
    r"^(?=.*a)(?=.*b).{2,4}$", r"^(?!.*b ).*$",
    r"\ba\b", r"\bab\b a", r"\Ba", r"a\B", r"\Aab\Z",
    r".*\bab\b.*", r"a$|^b", r"(?<=a)b|c(?<!0)",
    r"(?=(?=a).)ab", r"(?<=(?<=a)b)c",
]


def _texts():
    out = [""]
    for a in ALPHABET:
        out.append(a)
        for b in ALPHABET:
            out.append(a + b)
            for c in ALPHABET:
                out.append(a + b + c)
                out.append(a + b + c + a)
    return out


def test_fullmatch_agrees_with_re(builder):
    matcher = Matcher(builder.algebra)
    for pattern in DIFFERENTIAL:
        compiled = re.compile(pattern)
        regex = parse(builder, pattern)
        skip_empty = "\\B" in pattern and sys.version_info < (3, 12)
        for text in _texts():
            if skip_empty and text == "":
                continue
            assert matcher.matches(regex, text) == (
                compiled.fullmatch(text) is not None
            ), (pattern, text)


def test_search_agrees_with_re_on_existence_and_start(builder):
    matcher = Matcher(builder.algebra)
    for pattern in DIFFERENTIAL:
        compiled = re.compile(pattern)
        regex = parse(builder, pattern)
        skip_empty = "\\B" in pattern and sys.version_info < (3, 12)
        for text in _texts():
            if skip_empty and text == "":
                continue
            hit = compiled.search(text)
            span = matcher.search(regex, text)
            assert (hit is None) == (span is None), (pattern, text)
            if hit is not None:
                assert hit.start() == span[0], (pattern, text)


# -- reverse duality --------------------------------------------------------


def test_reverse_swaps_assertion_direction(builder):
    a = builder.char("a")
    assert reverse(builder, builder.lookahead(a)).kind == LOOKBEHIND
    assert reverse(builder, builder.neg_lookahead(a)).kind == NEG_LOOKBEHIND
    assert reverse(builder, builder.lookbehind(a)).kind == LOOKAHEAD
    assert reverse(builder, builder.neg_lookbehind(a)).kind == NEG_LOOKAHEAD


def test_reverse_is_involution_and_reverses_language(builder):
    for pattern in DIFFERENTIAL:
        regex = parse(builder, pattern)
        rev = reverse(builder, regex)
        assert reverse(builder, rev) is regex
        fwd = language_upto(builder.algebra, regex, "ab 0", 4)
        bwd = language_upto(builder.algebra, rev, "ab 0", 4)
        assert bwd == {s[::-1] for s in fwd}, pattern


# -- elimination ------------------------------------------------------------


#: Patterns with a multi-character assertion inside a loop body — the
#: continuation translation has no rule for them (and the width-1
#: adjacency pass cannot bite a two-character body).
NOT_ELIMINABLE = {r"(?:(?!aa).)*"}


def test_elimination_preserves_fullmatch_language(builder):
    for pattern in DIFFERENTIAL:
        if pattern in NOT_ELIMINABLE:
            continue
        regex = parse(builder, pattern)
        plain = eliminate_lookarounds(builder, regex)
        assert plain is not None, pattern
        assert not plain.has_look
        assert language_upto(builder.algebra, plain, "ab 0", 4) == \
            language_upto(builder.algebra, regex, "ab 0", 4), pattern


def test_elimination_gives_up_on_loop_body_assertions(builder):
    # a lookahead inside a loop body has no continuation rule when the
    # body is not otherwise resolvable; None, never a wrong answer
    regex = parse(builder, r"(?:(?!aa)[ab]){4}")
    assert eliminate_lookarounds(builder, regex) is None


# -- solver verdicts --------------------------------------------------------


def _verdict(builder, pattern):
    solver = RegexSolver(builder)
    return solver.is_satisfiable(parse(builder, pattern))


def test_solver_sat_with_checked_witness(builder):
    matcher = Matcher(builder.algebra)
    for pattern in [r"\ba\b", r"^(?=.*a)(?=.*b).{2,4}$", r".*\bab\b.*",
                    r"(?=a*b)a*b", r"a(?<=a)b"]:
        regex = parse(builder, pattern)
        result = _verdict(builder, pattern)
        assert result.is_sat, pattern
        assert result.witness is not None
        assert matcher.matches(regex, result.witness), pattern


def test_solver_unsat_on_contradictory_assertions(builder):
    for pattern in [r"^\Ba", r"^(?=b)a.*$", r"^[ab]+(?<=0)$",
                    r"a\bb", r"(?=a*b)a+"]:
        result = _verdict(builder, pattern)
        assert result.is_unsat, pattern


def test_solver_unknown_not_wrong_when_not_eliminable(builder):
    # sat pattern the eliminator cannot translate: typed unknown with
    # the documented reason — never a wrong unsat
    result = _verdict(builder, r"(?:(?!aa)[ab]){4}")
    assert not result.is_sat and not result.is_unsat
    assert "lookaround" in (result.reason or "")


def test_membership_routes_assertions_to_positional_matcher(builder):
    solver = RegexSolver(builder)
    regex = parse(builder, r"\ba\b")
    assert solver.membership("a", regex)
    assert not solver.membership("ab", regex)


def _refused(call):
    """An entry with no work counter of its own: the interned-regex
    count the test checks is its only measure of work."""
    def run(builder, regex):
        with pytest.raises(UnsupportedError, match="lookarounds"):
            call(builder, regex)
        return 0
    return run


def _condtree(method):
    def run(builder, regex):
        engine = DerivativeEngine(builder)
        with pytest.raises(UnsupportedError, match="lookarounds"):
            getattr(engine, method)(regex)
        return engine.deriv_memo_misses + engine.meld_memo_misses
    return run


def _automaton(compile_):
    def run(builder, regex):
        states = StateBudget()
        with pytest.raises(UnsupportedError, match="lookarounds"):
            compile_(builder.algebra, regex, states)
        return states.created
    return run


def _baseline(make):
    def run(builder, regex):
        result = make(builder).is_satisfiable(regex)
        assert result.is_unknown and "lookarounds" in result.reason
        return 0
    return run


#: Every derivative and automaton entry point: product engines first,
#: then the paper-reference ones.  Each returns the work it did before
#: refusing.
ENGINE_ENTRIES = {
    "condtree.transitions": _condtree("transitions"),
    "condtree.derivative": _condtree("derivative"),
    "brzozowski": _refused(lambda b, r: brzozowski(b, r, "a")),
    "linear_form": _refused(linear_form),
    "thompson": _automaton(thompson),
    "eager_compile": _automaton(eager_compile),
    "structural_min": _refused(lambda b, r: structural_min(r)),
    "structural_max": _refused(lambda b, r: structural_max(r)),
    "eager-sfa": _baseline(EagerAutomataSolver),
    "eager-dfa": _baseline(
        lambda b: EagerAutomataSolver(b, determinize_all=True)),
    "antimirov-pd": _baseline(AntimirovSolver),
    "brzozowski-minterm": _baseline(MintermSolver),
    "reference.delta": _refused(derivative),
    "reference.delta_dnf": _refused(delta_dnf),
    "reference.brzozowski_via_delta": _refused(
        lambda b, r: brzozowski_via_delta(b, r, "a")),
}

#: A lookahead the condtree, Brzozowski and Antimirov recursions never
#: reached before the refusal moved to the root, and three inputs the
#: literal pipeline answered wrongly: ``delta`` derived ``(?=a)a`` to
#: bottom on ``a``, and ``brzozowski_via_delta`` left non-nullable
#: residuals of ``a(?<=a)`` on ``a`` and of ``\bab\b`` on ``ab``.
REFUSED_PATTERNS = [r"ab(?=c)c", r"(?=a)a", r"a(?<=a)", r"\bab\b"]


@pytest.mark.parametrize("pattern", REFUSED_PATTERNS)
@pytest.mark.parametrize("entry", list(ENGINE_ENTRIES))
def test_derivative_passes_degrade_typed(builder, entry, pattern):
    # no engine has a sound assertion rule: each refuses at its root,
    # before deriving or building anything, with the typed error that
    # solver callers convert to unknown
    regex = parse(builder, pattern)
    interned = builder.interned_count
    assert ENGINE_ENTRIES[entry](builder, regex) == 0
    assert builder.interned_count == interned
