"""Language-level regex transformations.

:func:`reverse` computes the reversal regex; the verification
subsystem uses it as a metamorphic oracle: ``L(rev R)`` is the set of
reversed members of ``L(R)``, so ``R`` and ``rev R`` must agree on
satisfiability, emptiness, and length windows, and any witness for one
reverses into a witness for the other.  On lookarounds it swaps
direction — under reversal "the text ahead" becomes "the text behind"
— so ``(?=R)`` maps to ``(?<=rev R)`` and vice versa.

:func:`eliminate_lookarounds` compiles a regex with zero-width
assertions into a plain (positional-construct-free) ERE with the same
*fullmatch* language, when it can.  Under fullmatch the whole string
is the matching span, so a lookahead at a position constrains the one
concrete suffix that the rest of the pattern matches — exactly the
Boolean structure the paper's derivatives handle natively:

    ``A (?=X) B``  ==  ``A (B & X.*)``
    ``A (?!X) B``  ==  ``A (B & ~(X.*))``

Lookbehinds are handled by the duality above: pass one eliminates
every lookahead, threading the continuation right-to-left; then the
regex is reversed (turning the untouched lookbehinds into lookaheads),
pass two eliminates again, and the result is reversed back.  Nested
mixed-direction assertions resolve over successive rounds.  Fragments
with no sound translation (a lookahead inside a loop body, or inside
``&``/``~`` with a non-trivial continuation) make the function return
None; callers degrade to a typed unknown — never a wrong verdict.
"""

from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOK_KINDS, LOOKAHEAD,
    LOOKBEHIND, LOOP, NEG_LOOKAHEAD, NEG_LOOKBEHIND, PRED, REVERSED_LOOK,
    UNION, fold_postorder,
)


def reverse(builder, regex):
    """The reversal ``rev R`` with ``L(rev R) = {reversed(w) | w in L(R)}``.

    Reversal distributes over every Boolean operator and loops, and
    reverses the order of concatenations; it is an involution up to
    the builder's canonicalization (``rev (rev R) is R``).  Assertions
    flip direction with their bodies reversed: ``rev (?=R)`` is
    ``(?<=rev R)``, ``rev (?<!R)`` is ``(?!rev R)``.
    """

    def rev(node, kids):
        kind = node.kind
        if kind in (EMPTY, EPSILON, PRED):
            return node
        if kind == CONCAT:
            return builder.concat(list(reversed(kids)))
        if kind == COMPL:
            return builder.compl(kids[0])
        if kind == LOOP:
            return builder.loop(kids[0], node.lo, node.hi)
        if kind == UNION:
            return builder.union(kids)
        if kind == INTER:
            return builder.inter(kids)
        if kind in LOOK_KINDS:
            return builder.look(REVERSED_LOOK[kind], kids[0])
        raise AssertionError("unknown node kind %r" % kind)

    return fold_postorder(regex, rev)


# -- lookaround elimination ---------------------------------------------------


class _CannotEliminate(Exception):
    """A fragment with no sound lookaround-free translation."""


def _has_lookahead(regex):
    """True iff a (possibly negated) lookahead occurs anywhere in the
    subterm DAG, including inside lookbehind bodies."""
    if not regex.has_look:
        return False
    return fold_postorder(
        regex,
        lambda node, kids: (
            node.kind in (LOOKAHEAD, NEG_LOOKAHEAD) or any(kids)
        ),
    )


def _tr(builder, node, cont):
    """Continuation translation: a regex whose fullmatch language is
    ``{u v : u matches node here, v matches cont, v runs to the end of
    the string}``, with every lookahead in ``node`` resolved.

    ``cont`` is the translated rest of the pattern — everything to the
    right, through end of string.  That is what makes the lookahead
    rule exact: the body's search space *is* the continuation's span.
    Lookbehinds pass through untouched (they stay positionally correct
    wherever the output embeds them) and are handled by reversal in
    :func:`eliminate_lookarounds`.
    """
    if cont.kind == EMPTY:
        # a dead continuation kills the branch no matter what precedes
        # it (and saves the Boolean-operator restrictions below from
        # rejecting branches that cannot contribute anything)
        return builder.empty
    if not _has_lookahead(node):
        # nothing to resolve below: embed the fragment whole.  This
        # covers loops, complements and intersections over lookbehind-
        # only fragments, which have no compositional continuation rule
        # but need none.
        return builder.concat([node, cont])
    kind = node.kind
    if kind == CONCAT:
        for child in reversed(node.children):
            cont = _tr(builder, child, cont)
        return cont
    if kind == UNION:
        return builder.union(
            [_tr(builder, child, cont) for child in node.children]
        )
    if kind in (LOOKAHEAD, NEG_LOOKAHEAD):
        # the suffix here is exactly what cont matches: assert a body
        # prefix-match over it via intersection (or its complement)
        body = _tr(
            builder,
            builder.concat([node.children[0], builder.full]),
            builder.epsilon,
        )
        if kind == NEG_LOOKAHEAD:
            body = builder.compl(body)
        return builder.inter([cont, body])
    if cont.kind == EPSILON:
        # with an empty continuation the split point is pinned to the
        # end of the string, so Boolean operators distribute over the
        # translation
        if kind == INTER:
            return builder.inter(
                [_tr(builder, child, cont) for child in node.children]
            )
        if kind == COMPL:
            return builder.compl(_tr(builder, node.children[0], cont))
    raise _CannotEliminate(kind)


def _empty_side_match(node, empty_ahead):
    """Whether ``node`` matches the empty span at a position whose
    suffix (``empty_ahead``) or prefix (otherwise) is empty — the other
    side being unknown.  Returns True/False, or None when the answer
    depends on the unknown side."""

    def walk(node):
        kind = node.kind
        if kind == EPSILON:
            return True
        if kind in (EMPTY, PRED):
            return False
        if kind == UNION:
            return _any3(walk(c) for c in node.children)
        if kind in (CONCAT, INTER):
            return _all3(walk(c) for c in node.children)
        if kind == COMPL:
            inner = walk(node.children[0])
            return None if inner is None else not inner
        if kind == LOOP:
            return True if node.lo == 0 else walk(node.children[0])
        if kind in (LOOKAHEAD, NEG_LOOKAHEAD):
            if not empty_ahead:
                return None  # looks into the unknown side
            inner = walk(node.children[0])
            if inner is None:
                return None
            return inner if kind == LOOKAHEAD else not inner
        if kind in (LOOKBEHIND, NEG_LOOKBEHIND):
            if empty_ahead:
                return None
            inner = walk(node.children[0])
            if inner is None:
                return None
            return inner if kind == LOOKBEHIND else not inner
        raise AssertionError("unknown node kind %r" % kind)

    return walk(node)


def _any3(values):
    saw_none = False
    for v in values:
        if v is True:
            return True
        if v is None:
            saw_none = True
    return None if saw_none else False


def _all3(values):
    saw_none = False
    for v in values:
        if v is False:
            return False
        if v is None:
            saw_none = True
    return None if saw_none else True


def _edge_value(node, at_start):
    """Truth value of assertion ``node`` at the start (position 0) or
    end (position |s|) of the string, when statically determined.

    This is the context-dependent nullability of an assertion made
    concrete: at the string edge one side of the context is known to
    be empty, which often decides the assertion outright (``^`` at the
    start is True, ``(?<=a)`` at the start is False, ``$`` at the end
    is True)."""
    kind = node.kind
    if at_start:
        if kind not in (LOOKBEHIND, NEG_LOOKBEHIND):
            return None  # a lookahead at the start still sees the string
        inner = _empty_side_match(node.children[0], empty_ahead=False)
    else:
        if kind not in (LOOKAHEAD, NEG_LOOKAHEAD):
            return None
        inner = _empty_side_match(node.children[0], empty_ahead=True)
    if inner is None:
        return None
    if kind in (LOOKBEHIND, LOOKAHEAD):
        return inner
    return not inner


def _collapse_edges(builder, regex):
    """Resolve assertions pinned to the string edges under fullmatch.

    In a top-level concatenation, a leading run of zero-width
    assertions sits at position 0 and a trailing run at the end;
    :func:`_edge_value` decides many of them statically (anchors most
    prominently), shrinking the regex before the general translation.
    Distributes over a top-level union.
    """
    if regex.kind == UNION:
        return builder.union(
            [_collapse_edges(builder, c) for c in regex.children]
        )
    parts = list(regex.children) if regex.kind == CONCAT else [regex]
    while parts and parts[0].kind in LOOK_KINDS:
        value = _edge_value(parts[0], at_start=True)
        if value is None:
            break
        if value is False:
            return builder.empty
        parts.pop(0)
    while parts and parts[-1].kind in LOOK_KINDS:
        value = _edge_value(parts[-1], at_start=False)
        if value is None:
            break
        if value is False:
            return builder.empty
        parts.pop()
    return builder.concat(parts)


def _is_zero_width(node):
    """True iff ``L(node)`` is a subset of ``{eps}`` by syntax alone —
    the node is built from assertions and epsilon.  Such nodes are
    pure position constraints; ``\\b``/``\\B`` desugar to exactly this
    shape (a union of assertion pairs)."""
    kind = node.kind
    if kind in LOOK_KINDS or kind == EPSILON:
        return True
    if kind in (UNION, CONCAT):
        return all(_is_zero_width(c) for c in node.children)
    if kind == INTER:
        return any(_is_zero_width(c) for c in node.children)
    return False


def _width1_pred(node):
    """The character predicate of a width-1 assertion body, or None."""
    body = node.children[0]
    return body.pred if body.kind == PRED else None


def _bite(builder, atom, phi, from_right):
    """``atom`` with its edge character — last if ``from_right``, first
    otherwise — additionally constrained to ``phi``.  Returns the
    replacement part list, or None when the atom has no statically
    known single-predicate edge.  An unsatisfiable conjunction comes
    back as bottom and the enclosing concatenation absorbs it."""
    if atom.kind == PRED:
        return [builder.pred(builder.algebra.conj(atom.pred, phi))]
    if atom.kind == LOOP and atom.children[0].kind == PRED and atom.lo >= 1:
        body = atom.children[0]
        edge = builder.pred(builder.algebra.conj(body.pred, phi))
        hi = atom.hi if atom.hi is INF else atom.hi - 1
        rest = builder.loop(body, atom.lo - 1, hi)
        return [rest, edge] if from_right else [edge, rest]
    return None


def _merge_adjacent(builder, parts):
    """Dissolve width-1 assertions against adjacent consuming atoms,
    in place, until no rule applies.

    A lookbehind whose body is one character predicate only inspects
    the single character behind its position, so next to a consuming
    atom it is a predicate conjunction: ``psi (?<=phi)`` is ``psi &
    phi`` on that character, ``psi (?<!phi)`` is ``psi & ~phi``; the
    mirror rules fire for lookaheads before an atom.  Loops with a
    positive lower bound donate an edge iteration.  The rewrites are
    span-for-span language equalities, so they are sound in any
    surrounding context — including loop bodies and complements."""
    algebra = builder.algebra
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(parts) - 1:
            left, right = parts[i], parts[i + 1]
            repl = None
            if right.kind in (LOOKBEHIND, NEG_LOOKBEHIND):
                phi = _width1_pred(right)
                if phi is not None:
                    if right.kind == NEG_LOOKBEHIND:
                        phi = algebra.neg(phi)
                    repl = _bite(builder, left, phi, from_right=True)
            if repl is None and left.kind in (LOOKAHEAD, NEG_LOOKAHEAD):
                phi = _width1_pred(left)
                if phi is not None:
                    if left.kind == NEG_LOOKAHEAD:
                        phi = algebra.neg(phi)
                    repl = _bite(builder, right, phi, from_right=False)
            if repl is not None:
                parts[i:i + 2] = repl
                changed = True
            else:
                i += 1
    return parts


def _resolve_width1(builder, regex):
    """Resolve width-1 assertions against adjacent character atoms,
    everywhere in the term.

    This is the pass that makes word boundaries tractable: ``\\b`` is
    a *two*-direction assertion, so neither continuation direction of
    the general translation can thread it alone — but its bodies are
    width-1, and next to concrete material each disjunct either dies
    or dissolves into the neighbouring character class.  Zero-width
    unions are distributed over their enclosing concatenation first to
    expose the adjacencies (sound for any union; restricted to
    zero-width ones, and to spines carrying few of them, to keep the
    expansion from blowing up)."""
    memo = {}

    def walk(node):
        if not node.has_look:
            return node
        hit = memo.get(node.uid)
        if hit is not None:
            return hit
        kind = node.kind
        if kind == CONCAT:
            out = spine([walk(c) for c in node.children])
        elif kind == UNION:
            out = builder.union([walk(c) for c in node.children])
        elif kind == INTER:
            out = builder.inter([walk(c) for c in node.children])
        elif kind == COMPL:
            out = builder.compl(walk(node.children[0]))
        elif kind == LOOP:
            out = builder.loop(walk(node.children[0]), node.lo, node.hi)
        elif kind in LOOK_KINDS:
            out = builder.look(kind, walk(node.children[0]))
        else:
            out = node
        memo[node.uid] = out
        return out

    def spine(parts):
        flat = []
        for part in parts:
            if part.kind == CONCAT:
                flat.extend(part.children)
            else:
                flat.append(part)
        fanout = sum(
            1 for p in flat if p.kind == UNION and _is_zero_width(p)
        )
        if fanout <= 6:
            for i, part in enumerate(flat):
                if part.kind == UNION and _is_zero_width(part):
                    return builder.union([
                        spine(flat[:i] + [m] + flat[i + 1:])
                        for m in part.children
                    ])
        return builder.concat(_merge_adjacent(builder, flat))

    return walk(regex)


def eliminate_lookarounds(builder, regex, max_rounds=8):
    """A lookaround-free regex with the same fullmatch language as
    ``regex``, or None when no sound translation is found.

    Rounds of [resolve lookaheads, reverse, resolve lookaheads,
    reverse]: pass one threads continuations right-to-left and turns
    every lookahead into an intersection/complement over the concrete
    suffix; the reversal turns the untouched lookbehinds into
    lookaheads for pass two.  Nested assertions of mixed direction
    surface one layer per round; ``max_rounds`` bounds pathological
    nesting (returning None, never looping).
    """
    current = regex
    for _ in range(max_rounds):
        if not current.has_look:
            return current
        current = _collapse_edges(builder, current)
        current = _resolve_width1(builder, current)
        if not current.has_look:
            return current
        try:
            step = _tr(builder, current, builder.epsilon)
            step = reverse(builder, step)
            step = _tr(builder, step, builder.epsilon)
        except _CannotEliminate:
            return None
        current = reverse(builder, step)
    return current if not current.has_look else None
