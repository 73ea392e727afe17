"""Theorem 4.3: the symbolic derivative evaluated at any character is
the Brzozowski derivative, for the whole ERE class."""

from hypothesis import given, settings

from repro.derivatives.brzozowski import brzozowski
from repro.reference.derivative import brzozowski_via_delta, derivative
from repro.reference.transition import apply
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes, standard_regexes


def lang(matcher, regex, max_len=3):
    return frozenset(
        s for s in enumerate_strings(ALPHABET, max_len)
        if matcher.matches(regex, s)
    )


def test_theorem_4_3_extended(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=150, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        for ch in ALPHABET:
            via_delta = brzozowski_via_delta(b, r, ch)
            classical = brzozowski(b, r, ch)
            assert lang(matcher, via_delta) == lang(matcher, classical)

    check()


def test_derivative_characterizes_membership(bitset_builder):
    """s0 s1.. in L(R)  iff  s1.. in L(delta(R)(s0))."""
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=150, deadline=None)
    @given(standard_regexes(b))
    def check(r):
        for s in enumerate_strings(ALPHABET, 3):
            if not s:
                continue
            derived = apply(b, derivative(b, r), s[0])
            assert matcher.matches(r, s) == matcher.matches(derived, s[1:])

    check()


def test_derivative_of_pred(bitset_builder):
    b = bitset_builder
    tau = derivative(b, b.char("a"))
    assert apply(b, tau, "a") is b.epsilon
    assert apply(b, tau, "b") is b.empty


def test_derivative_of_dot_is_epsilon_leaf(bitset_builder):
    b = bitset_builder
    tau = derivative(b, b.dot)
    for ch in ALPHABET:
        assert apply(b, tau, ch) is b.epsilon


def test_derivative_of_star(bitset_builder):
    b = bitset_builder
    r = b.star(b.string("ab"))
    tau = derivative(b, r)
    assert apply(b, tau, "a") is b.concat([b.char("b"), r])
    assert apply(b, tau, "b") is b.empty


def test_derivative_of_loop_counts_down(bitset_builder):
    b = bitset_builder
    r = b.loop(b.char("a"), 3, 5)
    assert apply(b, derivative(b, r), "a") is b.loop(b.char("a"), 2, 4)


def test_derivative_of_loop_exact(bitset_builder):
    b = bitset_builder
    r = b.loop(b.char("a"), 2, 2)
    step1 = apply(b, derivative(b, r), "a")
    assert step1 is b.char("a")
    step2 = apply(b, derivative(b, step1), "a")
    assert step2 is b.epsilon


def test_derivative_of_complement_is_dual(bitset_builder):
    b = bitset_builder
    r = parse(b, ".*01.*")
    for ch in ALPHABET:
        direct = apply(b, derivative(b, b.compl(r)), ch)
        expected = b.compl(apply(b, derivative(b, r), ch))
        assert direct is expected


def test_section_2_running_example(ascii_builder):
    """The derivation of Section 2, end to end."""
    b = ascii_builder
    R1 = parse(b, r".*\d.*")
    R2 = parse(b, r"~(.*01.*)")
    R = b.inter([R1, R2])
    tau = derivative(b, R)
    # on '0' (a digit and the start of "01"): ~(.*01.* | 1.*),
    # the De-Morgan-folded form of R2 & ~(1.*)
    on_zero = apply(b, tau, "0")
    assert on_zero is b.compl(b.union([parse(b, ".*01.*"), parse(b, "1.*")]))
    # on another digit: R2 alone (R1 is satisfied)
    assert apply(b, tau, "7") is R2
    # on a non-digit non-zero: back to R
    assert apply(b, tau, "x") is R
