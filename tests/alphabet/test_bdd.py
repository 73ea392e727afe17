"""BDD algebra, cross-checked against the interval algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.alphabet.bdd import BDDAlgebra
from repro.alphabet.intervals import IntervalAlgebra
from repro.errors import AlgebraError

BITS = 8
MAX = (1 << BITS) - 1

range_sets = st.lists(
    st.tuples(st.integers(0, MAX), st.integers(0, MAX)).map(
        lambda t: (min(t), max(t))
    ),
    max_size=4,
)

#: Unclipped pairs: either end may fall outside ``[0, MAX]``, and a
#: pair may come high end first (such pairs denote nothing).
raw_range_sets = st.lists(
    st.tuples(st.integers(-300, MAX + 300), st.integers(-300, MAX + 300)),
    max_size=4,
)


@pytest.fixture
def bdd():
    return BDDAlgebra(BITS)


@pytest.fixture
def ref():
    return IntervalAlgebra(MAX)


def members(bdd, phi):
    return {c for c in range(MAX + 1) if bdd.member(c, phi)}


@given(raw_range_sets)
def test_from_ranges_matches_reference(pairs):
    bdd, ref = BDDAlgebra(BITS), IntervalAlgebra(MAX)
    assert members(bdd, bdd.from_ranges(pairs)) == set(ref.from_ranges(pairs))


@given(range_sets, range_sets)
def test_conj_disj_match_reference(p1, p2):
    bdd = BDDAlgebra(BITS)
    a, b = bdd.from_ranges(p1), bdd.from_ranges(p2)
    assert members(bdd, bdd.conj(a, b)) == members(bdd, a) & members(bdd, b)
    assert members(bdd, bdd.disj(a, b)) == members(bdd, a) | members(bdd, b)


@given(range_sets)
def test_neg_and_canonicity(pairs):
    bdd = BDDAlgebra(BITS)
    a = bdd.from_ranges(pairs)
    assert bdd.neg(bdd.neg(a)) is a  # ROBDDs are canonical: same node
    assert members(bdd, bdd.neg(a)) == set(range(MAX + 1)) - members(bdd, a)


@given(range_sets)
def test_count(pairs):
    bdd = BDDAlgebra(BITS)
    a = bdd.from_ranges(pairs)
    assert bdd.count(a) == len(members(bdd, a))


@given(range_sets)
def test_pick_returns_member(pairs):
    bdd = BDDAlgebra(BITS)
    a = bdd.from_ranges(pairs)
    if bdd.is_sat(a):
        assert bdd.member(bdd.pick(a), a)


def test_pick_empty_raises(bdd):
    with pytest.raises(AlgebraError):
        bdd.pick(bdd.bot)


def test_member_out_of_domain_is_clean_non_match(bdd):
    assert bdd.member(chr(MAX + 1), bdd.top) is False
    assert bdd.in_domain(chr(MAX + 1)) is False
    assert bdd.in_domain(chr(MAX)) is True


def test_terminals(bdd):
    assert bdd.is_valid(bdd.top)
    assert not bdd.is_sat(bdd.bot)
    assert bdd.conj(bdd.top, bdd.bot) is bdd.bot


def test_interning_shares_nodes(bdd):
    a = bdd.from_ranges([(0, 10)])
    b = bdd.from_ranges([(0, 10)])
    assert a is b


def test_node_count_is_small_for_ranges(bdd):
    # a contiguous range needs at most ~2*bits nodes
    phi = bdd.from_ranges([(37, 201)])
    assert bdd.node_count(phi) <= 2 * BITS


def test_singleton(bdd):
    phi = bdd.from_char("A")
    assert bdd.count(phi) == 1
    assert bdd.pick(phi) == "A"
