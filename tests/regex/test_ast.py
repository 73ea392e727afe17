"""Structural helpers on regex nodes."""

from hypothesis import given, settings, strategies as st

from repro.automata.eager import _is_standard
from repro.errors import UnsupportedError
from repro.regex import parse
from repro.regex.ast import (
    COMPL, EMPTY, INTER, LOOK_KINDS, LOOKAHEAD, NEG_LOOKAHEAD, PRED, Regex,
)
from repro.regex.transform import _has_lookahead
from repro.solver.baselines import AntimirovSolver
from repro.verify.shrink import _cost
from tests.strategies import extended_regexes, lookaround_regexes


def test_predicates_set(ascii_builder):
    r = parse(ascii_builder, "a(b|a)*[0-9]")
    preds = r.predicates()
    assert ascii_builder.algebra.from_char("a") in preds
    assert len(preds) == 3  # a, a|b fused? no: a, [ab], [0-9]


def test_pred_count_counts_occurrences(ascii_builder):
    r = parse(ascii_builder, "aa|aa&a")
    # interning dedupes structure but pred_count counts tree nodes
    assert r.pred_count() == 5


def test_size_and_depth(ascii_builder):
    r = parse(ascii_builder, "(ab)*|c")
    assert r.size() >= 5
    assert r.depth() >= 3


def test_is_clean(ascii_builder):
    b = ascii_builder
    assert parse(b, "a|b*").is_clean()
    # the builder folds a.bottom | b to b, which is clean
    x = b.union([b.concat([b.char("a"), b.empty]), b.char("b")])
    assert x is b.char("b")
    assert x.is_clean()
    # the builder absorbs bottom in loops too
    dirty = b.loop(b.empty, 2, 5)
    assert dirty is b.empty
    assert not b.empty.is_clean()


def test_in_b_re(ascii_builder):
    b = ascii_builder
    assert parse(b, "(a|b)*&~(ab)").in_b_re()
    assert parse(b, "a*b").in_b_re()
    # complement under concatenation leaves B(RE)
    assert not b.concat([b.char("a"), b.compl(b.char("b"))]).in_b_re()
    # intersection under a loop leaves B(RE)
    assert not b.star(b.inter([b.char("a"), b.dot])).in_b_re()


def test_iter_subterms_preorder(ascii_builder):
    r = parse(ascii_builder, "ab")
    kinds = [n.kind for n in r.iter_subterms()]
    assert kinds[0] == "concat"
    assert kinds.count("pred") == 2


def test_uid_total_order(ascii_builder):
    b = ascii_builder
    r1, r2 = b.char("a"), b.char("b")
    assert r1.uid != r2.uid


def doubling_dag(builder, base, levels):
    """``levels`` times ``x -> x.a | x.b``: a DAG whose tree doubles
    with every level."""
    node = base
    for _ in range(levels):
        node = builder.union([
            builder.concat([node, builder.char("a")]),
            builder.concat([node, builder.char("b")]),
        ])
    return node


def test_structural_helpers_fold_the_dag(ascii_builder, monkeypatch):
    b = ascii_builder
    levels = 60
    r = doubling_dag(b, b.char("a"), levels)

    def walk_the_tree(self):
        raise AssertionError("a structural helper walked the tree")

    monkeypatch.setattr(Regex, "iter_subterms", walk_the_tree)
    # a failure report must not print the 2^60-node pattern
    assert repr(r) == "Regex<union #%d, %d nodes>" % (r.uid, r.size())
    assert r.is_clean()
    assert r.predicates() == {
        b.algebra.from_char("a"), b.algebra.from_char("b"),
    }
    # per level: one union and two concats over two copies of the
    # level below and two characters
    assert r.pred_count() == 3 * 2 ** levels - 2
    assert r.size() == 6 * 2 ** levels - 5
    assert r.depth() == 2 * levels + 1
    # the passes that ask "does some node have this kind?"
    behind = doubling_dag(b, b.lookbehind(b.char("c")), levels)
    assert not _has_lookahead(behind)
    assert _has_lookahead(b.concat([b.lookahead(b.char("c")), behind]))
    assert _is_standard(r)
    assert not _is_standard(b.concat([r, b.compl(b.char("c"))]))
    assert AntimirovSolver(b)._require_compl_free(r) is r
    # the shrink cost counts each wide class per occurrence, as size does
    assert _cost(b, r) == r.size()
    wide = doubling_dag(b, b.dot, levels)
    assert _cost(b, wide) == wide.size() + 2 ** levels


def tree_nodes(regex):
    """Every occurrence of every subterm, written out as a tree walk."""
    stack = [regex]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children or ())


def tree_depth(regex):
    deepest = 0
    stack = [(regex, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children or ())
    return deepest


def test_structural_helpers_match_the_tree_walk(bitset_builder):
    b = bitset_builder
    regexes = st.one_of(
        extended_regexes(b), lookaround_regexes(b), st.just(b.empty),
    )
    antimirov = AntimirovSolver(b)

    def compl_free(regex):
        try:
            return antimirov._require_compl_free(regex) is regex
        except UnsupportedError:
            return False

    @settings(max_examples=200, deadline=None)
    @given(regexes, st.integers(0, 3))
    def check(base, levels):
        r = doubling_dag(b, base, levels)
        nodes = list(tree_nodes(r))
        assert r.predicates() == {n.pred for n in nodes if n.kind == PRED}
        assert r.pred_count() == sum(1 for n in nodes if n.kind == PRED)
        assert r.size() == len(nodes)
        assert r.depth() == tree_depth(r)
        assert r.is_clean() == all(n.kind != EMPTY for n in nodes)
        assert _has_lookahead(r) == any(
            n.kind in (LOOKAHEAD, NEG_LOOKAHEAD) for n in nodes
        )
        assert _is_standard(r) == all(
            n.kind not in (INTER, COMPL) for n in nodes
        )
        assert compl_free(r) == all(n.kind != COMPL for n in nodes)
        assert _cost(b, r) == len(nodes) + sum(
            1 for n in nodes
            if n.kind == PRED and not b.algebra.is_singleton(n.pred)
        )

    check()


def test_has_look_matches_its_definition(bitset_builder):
    b = bitset_builder

    def has_look(node, memo):
        if node.uid not in memo:
            memo[node.uid] = node.kind in LOOK_KINDS or any(
                has_look(child, memo) for child in node.children
            )
        return memo[node.uid]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(extended_regexes(b), lookaround_regexes(b)))
    def check(r):
        memo = {}
        for node in tree_nodes(r):
            assert node.has_look == has_look(node, memo)

    check()
