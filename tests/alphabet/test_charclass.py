"""Character classes over the BMP."""

import pytest

from repro.alphabet import charclass
from repro.alphabet.intervals import IntervalAlgebra


@pytest.fixture
def alg():
    return IntervalAlgebra()


def test_digit_is_multi_range(alg):
    phi = charclass.digit(alg)
    assert len(phi.ranges) > 1  # genuinely symbolic, not one interval
    assert alg.member("7", phi)
    assert alg.member("٤", phi)   # Arabic-Indic four
    assert not alg.member("x", phi)


def test_word_includes_underscore_and_letters(alg):
    phi = charclass.word(alg)
    for ch in "_aZ9б":   # Cyrillic small be
        assert alg.member(ch, phi)
    assert not alg.member("-", phi)


def test_space(alg):
    phi = charclass.space(alg)
    for ch in " \t\n  ":
        assert alg.member(ch, phi)
    assert not alg.member("x", phi)


def test_negated_classes_partition(alg):
    for pos, neg in ((charclass.digit, charclass.not_digit),
                     (charclass.word, charclass.not_word),
                     (charclass.space, charclass.not_space)):
        p, n = pos(alg), neg(alg)
        assert alg.conj(p, n) == alg.bot
        assert alg.disj(p, n) == alg.top


def test_digit_subset_of_word(alg):
    assert alg.implies(charclass.digit(alg), charclass.word(alg))


def test_classes_clamp_to_small_domains():
    ascii_alg = IntervalAlgebra(127)
    phi = charclass.digit(ascii_alg)
    assert phi.ranges == ((0x30, 0x39),)
