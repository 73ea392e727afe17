"""Integer predicate keys: the solve path's tables key predicates by
``key``, so equal keys must denote equal sets, and the interval caches
must answer without hashing a ``CharSet``."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.alphabet import BDDAlgebra, BitsetAlgebra, IntervalAlgebra
from repro.alphabet.intervals import (
    CharSet, _complement, _intersection, _pick, _union,
)

SMALL = 40

range_sets = st.lists(
    st.tuples(st.integers(0, SMALL), st.integers(0, SMALL)).map(
        lambda t: (min(t), max(t))
    ),
    max_size=4,
)


def _unhashable(self):
    raise AssertionError("a CharSet was hashed")


@given(st.lists(range_sets, min_size=2, max_size=5))
def test_interval_caches_never_hash_sets(range_lists):
    alg = IntervalAlgebra(SMALL)
    preds = [alg.from_ranges(pairs) for pairs in range_lists]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CharSet, "__hash__", _unhashable)
        for _ in range(2):  # the second round answers from the caches
            for a in preds:
                assert alg.neg(a) == _complement(a, SMALL)
                if a:
                    assert alg.pick(a) == _pick(a)
                for b in preds:
                    assert alg.conj(a, b) == _intersection(a, b)
                    assert alg.disj(a, b) == _union(a, b)


def _interval_denotation(phi):
    return phi.ranges


def _pool(algebra, seeds, rounds=300, rng=None):
    """Predicates reached from ``seeds`` by random operations of
    ``algebra`` (operands may come from other algebras of one domain)."""
    rng = rng or random.Random(0)
    pool = list(seeds)
    for _ in range(rounds):
        op = rng.randrange(3)
        a, b = rng.choice(pool), rng.choice(pool)
        if op == 0:
            pool.append(algebra.conj(a, b))
        elif op == 1:
            pool.append(algebra.disj(a, b))
        else:
            pool.append(algebra.neg(a))
    return pool


def _check_keys(pool, denote, canonical=()):
    """Equal keys denote equal sets; among ``canonical`` predicates,
    equal sets share a key."""
    by_key = {}
    for phi in pool:
        by_key.setdefault(phi.key, set()).add(denote(phi))
    assert all(len(sets) == 1 for sets in by_key.values())
    by_set = {}
    for phi in canonical:
        by_set.setdefault(denote(phi), set()).add(phi.key)
    assert all(len(keys) == 1 for keys in by_set.values())


def test_interval_keys_sound_across_same_domain_algebras():
    rng = random.Random(1)
    first, second = IntervalAlgebra(SMALL), IntervalAlgebra(SMALL)
    spans = [(rng.randrange(SMALL), rng.randrange(SMALL)) for _ in range(8)]
    mine = [first.from_ranges([(min(s), max(s))]) for s in spans]
    theirs = [second.from_ranges([(min(s), max(s))]) for s in spans]
    # one object per set within an algebra, another object per algebra
    assert all(a == b and a.key != b.key for a, b in zip(mine, theirs))
    own = _pool(first, mine, rng=rng)
    _check_keys(own, _interval_denotation, canonical=own)
    # the first algebra's caches take the second's sets as operands
    mixed = _pool(first, mine + theirs, rng=rng)
    _check_keys(mixed, _interval_denotation)
    for phi in mixed:
        assert first.neg(first.neg(phi)) == phi
        assert first.conj(phi, first.neg(phi)) is first.bot
    # a cleared table mints new canonical sets under new keys
    first.clear_caches()
    _check_keys(own + _pool(first, mine, rng=rng), _interval_denotation)


def test_bitset_keys_are_masks():
    alg = BitsetAlgebra("ab01")
    seeds = [alg.from_chars(chars) for chars in ("a", "b0", "01", "ab01")]
    pool = _pool(alg, seeds)
    # conj/disj/neg build a new object per call, so equal sets are
    # many objects, and every one of them carries the same key
    _check_keys(pool, lambda phi: phi.mask, canonical=pool)


def test_bdd_keys_are_minted_per_node():
    alg = BDDAlgebra(bits=5)
    domain = range(1 << 5)

    def denote(phi):
        return frozenset(code for code in domain if alg.member(code, phi))

    seeds = [alg.from_ranges([(3, 9)]), alg.from_ranges([(7, 20)]),
             alg.from_char(chr(30)), alg.top, alg.bot]
    pool = _pool(alg, seeds)
    _check_keys(pool, denote, canonical=pool)
    other = BDDAlgebra(bits=5)
    assert other.from_ranges([(3, 9)]).key != seeds[0].key
