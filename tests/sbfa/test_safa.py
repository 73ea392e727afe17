"""SAFA conversions (Propositions 8.2 and 8.3)."""

from hypothesis import given, settings

from repro.alphabet.bitset import BitsetAlgebra
from repro.reference.sbfa import boolstate as B
from repro.reference.sbfa.safa import SAFA, from_sbfa, to_sbfa
from repro.reference.sbfa.sbfa import from_regex
from repro.regex import parse
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import b_re_regexes

import pytest


def test_safa_rejects_negative_targets():
    alg = BitsetAlgebra("ab")
    with pytest.raises(ValueError):
        SAFA(alg, {"q"}, B.neg(B.st("q")), set(), [])


def test_proposition_8_3_from_sbfa(bitset_builder):
    """SAFA(M) accepts the same language as M."""
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=30, deadline=None)
    @given(b_re_regexes(b, max_leaves=4))
    def check(r):
        sbfa = from_regex(b, r)
        safa = from_sbfa(sbfa)
        for s in enumerate_strings(ALPHABET, 3):
            assert safa.accepts(s) == matcher.matches(r, s)

    check()


def test_proposition_8_2_round_trip(bitset_builder):
    """to_sbfa(from_sbfa(M)) still accepts L(M)."""
    b = bitset_builder
    matcher = Matcher(b.algebra)
    r = parse(b, "(.*0.*)&~(.*01.*)")
    sbfa = from_regex(b, r)
    safa = from_sbfa(sbfa)
    back = to_sbfa(safa)
    for s in enumerate_strings(ALPHABET, 3):
        assert back.accepts(s) == matcher.matches(r, s)


def test_state_doubling(bitset_builder):
    """Complement elimination doubles the state space."""
    b = bitset_builder
    sbfa = from_regex(b, parse(b, "~(.*01.*)"))
    safa = from_sbfa(sbfa)
    assert safa.state_count == 2 * sbfa.state_count


def test_handwritten_safa_acceptance():
    """A small alternating automaton: accepts strings that contain
    both 'a' (branch 1) and 'b' (branch 2)."""
    alg = BitsetAlgebra("ab")
    a, bb = alg.from_char("a"), alg.from_char("b")
    transitions = [
        ("qa", a, B.st("ok")), ("qa", bb, B.st("qa")),
        ("qb", bb, B.st("ok")), ("qb", a, B.st("qb")),
        ("ok", alg.top, B.st("ok")),
    ]
    safa = SAFA(alg, {"qa", "qb", "ok"}, B.conj(B.st("qa"), B.st("qb")),
                {"ok"}, transitions)
    assert safa.accepts("ab")
    assert safa.accepts("ba")
    assert not safa.accepts("aa")
    assert not safa.accepts("")


def test_safa_guards_partition_locally(bitset_builder):
    b = bitset_builder
    sbfa = from_regex(b, parse(b, "[ab]*0&~(1*)"))
    safa = from_sbfa(sbfa)
    algebra = b.algebra
    by_state = {}
    for q, pred, _ in safa.transitions:
        by_state.setdefault(q, []).append(pred)
    for preds in by_state.values():
        for i, p in enumerate(preds):
            for q in preds[i + 1:]:
                assert not algebra.is_sat(algebra.conj(p, q))
