"""Smart-constructor laws: the Section 4 regex algebra."""

import pytest

from repro.alphabet import BDDAlgebra, BitsetAlgebra, IntervalAlgebra
from repro.errors import AlgebraError
from repro.regex import RegexBuilder
from repro.regex.ast import INF, PRED


class TestUnits:
    def test_full_absorbs_union(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.union([r, b.full]) is b.full

    def test_full_unit_of_inter(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.inter([r, b.full]) is r

    def test_empty_unit_of_union(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.union([r, b.empty]) is r

    def test_empty_absorbs_inter_and_concat(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.inter([r, b.empty]) is b.empty
        assert b.concat([r, b.empty, r]) is b.empty

    def test_epsilon_unit_of_concat(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.concat([b.epsilon, r, b.epsilon]) is r


class TestACI:
    def test_union_commutative_idempotent(self, bitset_builder):
        b = bitset_builder
        x, y = b.string("ab"), b.string("ba")
        assert b.union([x, y]) is b.union([y, x, y])

    def test_inter_commutative_idempotent(self, bitset_builder):
        b = bitset_builder
        x, y = b.string("ab"), b.star(b.char("a"))
        assert b.inter([x, y]) is b.inter([y, x, x])

    def test_union_flattens(self, bitset_builder):
        b = bitset_builder
        x, y, z = b.string("ab"), b.string("ba"), b.string("aa")
        nested = b.union([x, b.union([y, z])])
        flat = b.union([x, y, z])
        assert nested is flat

    def test_concat_flattens_not_commutative(self, bitset_builder):
        b = bitset_builder
        x, y = b.char("a"), b.char("b")
        assert b.concat([x, b.concat([y, x])]) is b.concat([x, y, x])
        assert b.concat([x, y]) is not b.concat([y, x])

    def test_pred_fusion_in_union(self, bitset_builder):
        b = bitset_builder
        fused = b.union([b.char("a"), b.char("b")])
        assert fused.kind == PRED
        assert fused is b.pred(b.algebra.from_chars("ab"))


class TestComplement:
    def test_double_complement(self, bitset_builder):
        b = bitset_builder
        r = b.string("ab")
        assert b.compl(b.compl(r)) is r

    def test_compl_of_empty_and_full(self, bitset_builder):
        b = bitset_builder
        assert b.compl(b.empty) is b.full
        assert b.compl(b.full) is b.empty

    def test_excluded_middle(self, bitset_builder):
        b = bitset_builder
        r = b.string("ab")
        assert b.union([r, b.compl(r)]) is b.full
        assert b.inter([r, b.compl(r)]) is b.empty

    def test_compl_nullability(self, bitset_builder):
        b = bitset_builder
        assert b.compl(b.string("ab")).nullable
        assert not b.compl(b.star(b.char("a"))).nullable


class TestLoops:
    def test_loop_1_1_collapses(self, bitset_builder):
        b = bitset_builder
        r = b.string("ab")
        assert b.loop(r, 1, 1) is r

    def test_loop_hi_zero_is_epsilon(self, bitset_builder):
        b = bitset_builder
        assert b.loop(b.char("a"), 0, 0) is b.epsilon

    def test_star_of_star(self, bitset_builder):
        b = bitset_builder
        s = b.star(b.char("a"))
        assert b.star(s) is s
        assert b.loop(s, 2, 7) is s

    def test_star_of_bounded_from_zero(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.star(b.loop(r, 0, 3)) is b.star(r)

    def test_opt_of_nullable_is_identity(self, bitset_builder):
        b = bitset_builder
        s = b.star(b.char("a"))
        assert b.opt(s) is s

    def test_loop_of_epsilon(self, bitset_builder):
        b = bitset_builder
        assert b.loop(b.epsilon, 3, 7) is b.epsilon

    def test_loop_of_empty(self, bitset_builder):
        b = bitset_builder
        assert b.loop(b.empty, 0, 5) is b.epsilon
        assert b.loop(b.empty, 2, 5) is b.empty

    def test_bad_bounds_raise(self, bitset_builder):
        b = bitset_builder
        with pytest.raises(AlgebraError):
            b.loop(b.char("a"), 3, 2)
        with pytest.raises(AlgebraError):
            b.loop(b.char("a"), -1, 2)

    def test_nullability(self, bitset_builder):
        b = bitset_builder
        r = b.char("a")
        assert b.loop(r, 0, 5).nullable
        assert not b.loop(r, 1, INF).nullable
        assert b.loop(b.opt(r), 3, 5).nullable


class TestInterning:
    def test_structural_sharing(self, bitset_builder):
        b = bitset_builder
        r1 = b.concat([b.char("a"), b.star(b.char("b"))])
        r2 = b.concat([b.char("a"), b.star(b.char("b"))])
        assert r1 is r2

    def test_unsat_pred_is_empty(self, bitset_builder):
        b = bitset_builder
        assert b.pred(b.algebra.bot) is b.empty

    def test_cross_builder_guard(self, bitset_builder, ascii_builder):
        r = ascii_builder.char("a")
        with pytest.raises(AlgebraError):
            bitset_builder.star(r)


#: Every constructor taking an operand, applied by ``b1`` to ``b2``'s
#: nodes: ``a1`` (b1's ``a*``) and ``x2`` (b2's ``b*``) share a uid.
#: All shapes but the last hit a shortcut that returns before anything
#: is interned (a unit, an absorber, a lone member, a fused predicate,
#: a loop or assertion identity).
FOREIGN_OPERANDS = {
    "union-shared-uid": lambda b1, b2, a1, x2: b1.union([x2, a1]),
    "inter-shared-uid": lambda b1, b2, a1, x2: b1.inter([x2, a1]),
    "union-absorbed": lambda b1, b2, a1, x2: b1.union([x2, b1.full]),
    "inter-absorbed": lambda b1, b2, a1, x2: b1.inter([x2, b1.empty]),
    "union-lone": lambda b1, b2, a1, x2: b1.union([x2]),
    "inter-lone": lambda b1, b2, a1, x2: b1.inter([x2]),
    "union-fused-pred": lambda b1, b2, a1, x2: b1.union(
        [b2.char("d"), b1.char("a")]
    ),
    "concat-lone": lambda b1, b2, a1, x2: b1.concat([x2]),
    "concat-after-eps": lambda b1, b2, a1, x2: b1.concat([b1.epsilon, x2]),
    "concat-after-bottom": lambda b1, b2, a1, x2: b1.concat([b1.empty, x2]),
    "loop": lambda b1, b2, a1, x2: b1.loop(x2, 2, 3),
    "loop-1-1": lambda b1, b2, a1, x2: b1.loop(b2.char("d"), 1, 1),
    "star": lambda b1, b2, a1, x2: b1.star(x2),
    "plus": lambda b1, b2, a1, x2: b1.plus(x2),
    "opt": lambda b1, b2, a1, x2: b1.opt(x2),
    "compl-of-compl": lambda b1, b2, a1, x2: b1.compl(
        b2.compl(b2.char("c"))
    ),
    "lookahead-nullable": lambda b1, b2, a1, x2: b1.lookahead(x2),
    "neg-lookbehind": lambda b1, b2, a1, x2: b1.neg_lookbehind(
        b2.char("d")
    ),
}


@pytest.mark.parametrize(
    "shape", sorted(FOREIGN_OPERANDS), ids=sorted(FOREIGN_OPERANDS)
)
def test_foreign_operands_are_refused(shape):
    b1 = RegexBuilder(IntervalAlgebra(127))
    b2 = RegexBuilder(IntervalAlgebra(127))
    a1 = b1.star(b1.char("a"))
    x2 = b2.star(b2.char("b"))
    assert a1.uid == x2.uid
    with pytest.raises(AlgebraError, match="different builder"):
        FOREIGN_OPERANDS[shape](b1, b2, a1, x2)


#: A builder's algebra and a satisfiable predicate of another algebra
#: of the same kind over a different domain.
FOREIGN_PREDICATES = {
    "interval": lambda: (
        IntervalAlgebra(127), IntervalAlgebra(255).from_ranges([(200, 250)]),
    ),
    "bitset": lambda: (
        BitsetAlgebra("ab01"), BitsetAlgebra("ab01").from_chars("a"),
    ),
    "bdd": lambda: (BDDAlgebra(7), BDDAlgebra(8).from_ranges([(97, 98)])),
}


@pytest.mark.parametrize("kind", sorted(FOREIGN_PREDICATES))
def test_foreign_predicates_are_refused(kind):
    algebra, phi = FOREIGN_PREDICATES[kind]()
    with pytest.raises(AlgebraError):
        RegexBuilder(algebra).pred(phi)


def test_same_domain_interval_sets_are_shared():
    builder = RegexBuilder(IntervalAlgebra(127))
    phi = IntervalAlgebra(255).from_ranges([(97, 98)])
    assert builder.pred(phi) is builder.ranges([(97, 98)])


def test_nullability_concat_union_inter(bitset_builder):
    b = bitset_builder
    a, astar = b.char("a"), b.star(b.char("a"))
    assert not b.concat([a, astar]).nullable
    assert b.concat([astar, astar]).nullable
    assert b.union([a, astar]).nullable
    assert not b.inter([a, astar]).nullable


def test_convenience_constructors(bitset_builder):
    b = bitset_builder
    assert b.seq(b.char("a"), b.char("b")) is b.string("ab")
    assert b.alt(b.string("ab"), b.string("ba")) is b.union(
        [b.string("ab"), b.string("ba")]
    )
    assert b.any_length(2, 4) is b.loop(b.dot, 2, 4)
    assert b.contains(b.char("a")) is b.concat([b.full, b.char("a"), b.full])
    assert b.diff(b.full, b.char("a")) is b.compl(b.char("a"))
