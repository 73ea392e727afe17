"""Structural helpers on regex nodes."""

from repro.regex import parse


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


def test_is_star(ascii_builder):
    b = ascii_builder
    assert b.star(b.char("a")).is_star
    assert not b.plus(b.char("a")).is_star
    assert not b.loop(b.char("a"), 0, 5).is_star


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
