"""The fused clean-conditional-tree engine vs the literal pipeline."""

import sys

from hypothesis import given, settings, strategies as st

from repro.alphabet.intervals import CharSet
from repro.derivatives.condtree import DerivativeEngine
from repro.reference.dnf import delta_dnf
from repro.reference.transition import apply
from repro.regex import RegexBuilder, parse
from repro.smtlib.parser import parse_script
from repro.regex.semantics import Matcher, enumerate_strings
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes, predicates, short_strings


def lang(matcher, regex, max_len=3):
    return frozenset(
        s for s in enumerate_strings(ALPHABET, max_len)
        if matcher.matches(regex, s)
    )


def test_agrees_with_literal_pipeline(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    matcher = Matcher(b.algebra)

    @settings(max_examples=120, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        literal = delta_dnf(b, r)
        for ch in ALPHABET:
            fused = engine.derive_regex(r, ch)
            assert lang(matcher, fused) == lang(matcher, apply(b, literal, ch))

    check()


def test_matches_agrees_with_oracle(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    matcher = Matcher(b.algebra)

    @settings(max_examples=150, deadline=None)
    @given(extended_regexes(b), short_strings(4))
    def check(r, s):
        assert engine.matches(r, s) == matcher.matches(r, s)

    check()


def test_tree_is_clean(bitset_builder):
    """Every branch of every derivative tree is satisfiable on its
    path, and the leaf guards partition the alphabet."""
    b = bitset_builder
    engine = DerivativeEngine(b)

    @settings(max_examples=100, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        transitions = engine.transitions(r)
        algebra = b.algebra
        union = algebra.bot
        for guard, _ in transitions:
            assert algebra.is_sat(guard)
            assert not algebra.is_sat(algebra.conj(union, guard))
            union = algebra.disj(union, guard)
        assert algebra.is_valid(union)

    check()


def test_leaves_never_contain_bottom_and_full_absorbs(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    leaf = engine.leaf([b.empty, b.char("a")])
    assert b.empty not in leaf.regexes
    leaf2 = engine.leaf([b.full, b.char("a")])
    assert leaf2.regexes == frozenset({b.full})


def insertion_order_leaf(builder, regexes):
    """A leaf's set as ``leaf`` has always built it: a frozenset of a set
    filled by ``add`` in input order."""
    members = set()
    for r in regexes:
        if r is builder.empty:
            continue
        if r is builder.full:
            members = {builder.full}
            break
        members.add(r)
    return frozenset(members)


def test_leaf_iterates_in_insertion_order(ascii_builder):
    # a leaf's iteration order fixes the creation order, and so the
    # uids, of the cross-product nodes built from it, and with them
    # every witness: it must not change with how ``leaf`` dedupes
    b = ascii_builder
    pool = (
        [b.char(c) for c in "abcdefghij"]
        + [b.star(b.char(c)) for c in "klmnop"]
        + [b.string(w) for w in ("ab", "ba", "abc", "cab")]
    )

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(pool), min_size=1, max_size=9, unique=True),
        st.lists(st.sampled_from(pool + [b.empty, b.full]), max_size=3),
        st.randoms(use_true_random=False),
    )
    def check(distinct, extra, rng):
        regexes = distinct + extra
        rng.shuffle(regexes)
        engine = DerivativeEngine(b)
        assert list(engine.leaf(regexes).regexes) == list(
            insertion_order_leaf(b, regexes)
        )

    check()


def test_bottom_leaf_survives_compaction(ascii_builder):
    b = ascii_builder
    engine = DerivativeEngine(b)
    bottom = engine.bottom_leaf
    assert engine.leaf(()) is bottom
    engine.derivative(b.char("a"))
    # the tree of .* is the leaf {.*}: nothing live holds bottom
    assert engine.derivative(b.full).regexes == frozenset({b.full})
    engine.compact({b.full.uid: b.full})
    assert engine.bottom_leaf is bottom
    assert engine.leaf(()) is bottom
    pred = b.algebra.from_char("a")
    assert engine.node(pred, engine.leaf(()), engine.bottom_leaf) is bottom


def test_tree_interning(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    t1 = engine.derivative(parse(b, "(a|b)*"))
    t2 = engine.derivative(parse(b, "(a|b)*"))
    assert t1 is t2


def test_node_collapses_equal_branches(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    leaf = engine.leaf([b.char("a")])
    assert engine.node(b.algebra.from_char("a"), leaf, leaf) is leaf


def test_negate_involution_on_singleton_leaves(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    tree = engine.derivative(parse(b, "~(.*01.*)"))  # leaves are single
    assert engine.negate(engine.negate(tree)) is tree


def test_negate_twice_preserves_semantics(bitset_builder):
    """On union leaves, double negation leaves a De-Morgan-folded but
    equivalent regex."""
    b = bitset_builder
    engine = DerivativeEngine(b)
    matcher = Matcher(b.algebra)
    tree = engine.derivative(parse(b, ".*01.*"))
    twice = engine.negate(engine.negate(tree))
    for ch in ALPHABET:
        assert lang(matcher, engine.apply(tree, ch)) == lang(
            matcher, engine.apply(twice, ch)
        )


def test_derive_string(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    r = parse(b, "a*b")
    assert engine.derive_string(r, "aab") is b.epsilon
    assert engine.derive_string(r, "ba") is b.empty


def test_successors_exclude_trivial(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    succ = engine.successors(parse(b, "a.*"))
    assert b.full not in succ and b.empty not in succ


def test_memoization_reuses_work(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    r = parse(b, "(.*a.{5})&(.*b.{5})")
    engine.derivative(r)
    checks_before = engine.sat_checks
    engine.derivative(r)
    assert engine.sat_checks == checks_before


def test_sat_check_counter_moves(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)
    engine.derivative(parse(b, "(a.*)&(b.*|0.*)"))
    assert engine.sat_checks > 0


# -- integer keys -------------------------------------------------------------

#: A RegExLib-style dotted quad (every digit but 9), as SMT-LIB text.
DOTTED_QUAD = """(declare-const x String)
(assert (str.in_re x (re.inter
  (re.++ ((_ re.loop 3 3) (re.++ ((_ re.loop 1 3) (re.range "0" "9"))
                                 (str.to_re ".")))
         ((_ re.loop 1 3) (re.range "0" "9")))
  (re.comp (re.++ re.all (str.to_re "9") re.all)))))"""


def _closure_rows(engine, root):
    """Every state reachable from ``root`` with its transitions."""
    rows = {}
    stack = [root]
    while stack:
        state = stack.pop()
        if state.uid in rows:
            continue
        rows[state.uid] = (state, engine.transitions(state))
        for _guard, targets in rows[state.uid][1]:
            stack.extend(targets)
    return rows


def test_transitions_never_hash_predicates(ascii_builder, monkeypatch):
    # the engine's tables and the algebra's caches key predicates by
    # ``key``; only the builder's structural interning may hash one
    b = ascii_builder
    roots = [parse(b, "(.*a.{%d})&(.*b.{%d})" % (k, k)) for k in range(1, 6)]
    roots.append(parse_script(b, DOTTED_QUAD).formula.regex)
    expected = {}
    for root in roots:
        expected.update(_closure_rows(DerivativeEngine(b), root))
    intern = RegexBuilder._intern.__code__

    def hash_in_interning_only(charset):
        assert sys._getframe(1).f_code is intern, "a CharSet was hashed"
        return charset._hash

    b.algebra.clear_caches()
    engine = DerivativeEngine(b)
    monkeypatch.setattr(CharSet, "__hash__", hash_in_interning_only)
    got = {uid: engine.transitions(state)
           for uid, (state, _rows) in expected.items()}
    monkeypatch.undo()
    assert len(got) > 50
    assert got == {uid: rows for uid, (_state, rows) in expected.items()}


def _restrict_reference(engine, tree, path):
    """``DerivativeEngine._restrict`` without its memo."""
    if tree.is_leaf:
        return tree
    algebra = engine.algebra
    then_path = algebra.conj(path, tree.pred)
    else_path = algebra.conj(path, algebra.neg(tree.pred))
    if not algebra.is_sat(then_path):
        return _restrict_reference(engine, tree.other, path)
    if not algebra.is_sat(else_path):
        return _restrict_reference(engine, tree.then, path)
    return engine.node(
        tree.pred,
        _restrict_reference(engine, tree.then, then_path),
        _restrict_reference(engine, tree.other, else_path),
    )


def test_restrict_memo_returns_the_recursions_node(bitset_builder):
    b = bitset_builder
    engine = DerivativeEngine(b)

    @settings(max_examples=150, deadline=None)
    @given(extended_regexes(b), st.lists(predicates(b.algebra), max_size=4))
    def check(r, paths):
        tree = engine.derivative(r)
        paths = [b.algebra.top] + paths
        for _ in range(2):  # the second round hits the memo
            for path in paths:
                assert engine._restrict(tree, path) \
                    is _restrict_reference(engine, tree, path)
        # compaction keeps only entries whose tree and result survive
        engine.compact({r.uid: r})
        for path in paths:
            assert engine._restrict(tree, path) \
                is _restrict_reference(engine, tree, path)

    check()
