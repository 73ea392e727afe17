"""Boolean state combinations."""

from repro.reference.sbfa import boolstate as B


def test_constructors_simplify():
    q, p = B.st("q"), B.st("p")
    assert B.conj(q, B.TRUE) == q
    assert B.conj(q, B.FALSE) == B.FALSE
    assert B.disj(q, B.FALSE) == q
    assert B.disj(q, B.TRUE) == B.TRUE
    assert B.conj(q, q) == q
    assert B.disj() == B.FALSE
    assert B.conj() == B.TRUE


def test_flattening():
    q, p, r = B.st("q"), B.st("p"), B.st("r")
    nested = B.conj(q, B.conj(p, r))
    assert nested == ("and", q, p, r)


def test_negation():
    q = B.st("q")
    assert B.neg(B.neg(q)) == q
    assert B.neg(B.TRUE) == B.FALSE


def test_states_of():
    combo = B.conj(B.st("a"), B.neg(B.disj(B.st("b"), B.st("c"))))
    assert B.states_of(combo) == {"a", "b", "c"}


def test_evaluate():
    combo = B.conj(B.st("a"), B.neg(B.st("b")))
    assert B.evaluate(combo, lambda q: q == "a")
    assert not B.evaluate(combo, lambda q: True)


def test_map_states():
    combo = B.disj(B.st(1), B.st(2))
    doubled = B.map_states(combo, lambda q: B.st(q * 2))
    assert B.states_of(doubled) == {2, 4}


def test_map_states_can_collapse():
    combo = B.disj(B.st(1), B.st(2))
    collapsed = B.map_states(combo, lambda q: B.TRUE)
    assert collapsed == B.TRUE


def test_is_positive():
    assert B.is_positive(B.conj(B.st("a"), B.st("b")))
    assert not B.is_positive(B.neg(B.st("a")))


def test_pretty():
    text = B.pretty(B.conj(B.st("a"), B.neg(B.st("b"))), render=str)
    assert "&" in text and "~" in text
