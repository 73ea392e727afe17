"""Delta-debugging shrinker for failing regexes.

Given a regex and a *failure predicate* (``predicate(regex) -> bool``,
True while the bug still reproduces), :func:`shrink` greedily applies
size-reducing rewrites until no rewrite preserves the failure:

* replace any subterm by one of its children, by epsilon, or by the
  empty language;
* drop members of an ``&``/``|``/concatenation;
* narrow a character class to a single character;
* tighten loop bounds (``lo -> 0``, unbounded ``hi -> lo``,
  ``hi -> lo``) or drop the loop for its body.

Every accepted rewrite strictly decreases a cost (AST size plus the
number of multi-character classes), so the loop terminates; the
result is 1-minimal with respect to this rewrite set (no single
rewrite keeps the failure).  Predicates that crash on a candidate
count as "bug gone" — the shrinker never lets a broken candidate
escape.
"""

from repro.regex.ast import (
    COMPL, CONCAT, INF, INTER, LOOK_KINDS, LOOP, PRED, UNION, fold_postorder,
)


def _pred_variants(builder, node, limit=4):
    """Single-character narrowings of a PRED node, when possible.

    ``pick`` only surfaces one member, so peel members off one at a
    time (up to ``limit``) — the failure may hinge on a specific
    character of the class.
    """
    algebra = builder.algebra
    if algebra.is_singleton(node.pred):
        return
    remaining = node.pred
    for _ in range(limit):
        if not algebra.is_sat(remaining):
            return
        try:
            char = algebra.pick(remaining)
        except Exception:
            return
        single = algebra.from_char(char)
        yield builder.pred(single)
        remaining = algebra.diff(remaining, single)


def _nary(builder, kind, parts):
    if kind == CONCAT:
        return builder.concat(parts)
    if kind == UNION:
        return builder.union(parts)
    return builder.inter(parts)


def _local_variants(builder, node):
    """Strictly simpler replacements for one node (not recursive)."""
    yield builder.epsilon
    yield builder.empty
    for child in node.children or ():
        yield child
    if node.kind == PRED:
        yield from _pred_variants(builder, node)
    elif node.kind == LOOP:
        body = node.children[0]
        lo, hi = node.lo, node.hi
        if lo > 0:
            yield builder.loop(body, 0, hi)
            yield builder.loop(body, 1, hi)
        if hi is INF:
            yield builder.loop(body, lo, max(lo, 1))
        elif hi > lo:
            yield builder.loop(body, lo, lo)
    elif node.kind in (CONCAT, UNION, INTER) and node.children:
        parts = node.children
        if len(parts) > 2:
            for i in range(len(parts)):
                yield _nary(
                    builder, node.kind, list(parts[:i] + parts[i + 1:])
                )


def _rebuild(builder, node, index, replacement):
    """``node`` with child ``index`` replaced."""
    parts = list(node.children)
    parts[index] = replacement
    if node.kind == COMPL:
        return builder.compl(parts[0])
    if node.kind in LOOK_KINDS:
        return builder.look(node.kind, parts[0])
    if node.kind == LOOP:
        return builder.loop(parts[0], node.lo, node.hi)
    return _nary(builder, node.kind, parts)


def candidates(builder, regex):
    """All one-rewrite reductions of ``regex`` (any position)."""

    def walk(node):
        # rewrites at this position
        yield from _local_variants(builder, node)
        # rewrites below, re-wrapped
        for index, child in enumerate(node.children or ()):
            for replacement in walk(child):
                if replacement is child:
                    continue
                yield _rebuild(builder, node, index, replacement)

    seen = {regex.uid}
    for candidate in walk(regex):
        if candidate.uid in seen:
            continue
        seen.add(candidate.uid)
        yield candidate


def _cost(builder, regex):
    """Shrink ordering: AST size, breaking ties toward regexes with
    fewer multi-character classes (``[01]`` and ``1`` have the same
    node count, but the singleton is the better reproducer)."""
    algebra = builder.algebra
    # over the tree, like ``size``: a shared class counts per occurrence
    wide = fold_postorder(
        regex,
        lambda node, kids: sum(kids) + (
            node.kind == PRED and not algebra.is_singleton(node.pred)
        ),
    )
    return regex.size() + wide


def shrink(builder, regex, predicate, max_checks=5000):
    """Greedy fixpoint reduction preserving ``predicate``.

    ``predicate(regex)`` must be True on entry (the caller observed
    the failure); the return value is a regex on which it is still
    True and which no single rewrite can reduce further.  Every
    accepted rewrite strictly decreases :func:`_cost`, so the loop
    terminates.
    """
    current = regex
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        current_cost = _cost(builder, current)
        for candidate in candidates(builder, current):
            if _cost(builder, candidate) >= current_cost:
                continue
            checks += 1
            try:
                still_failing = bool(predicate(candidate))
            except Exception:
                still_failing = False
            if still_failing:
                current = candidate
                improved = True
                break
            if checks >= max_checks:
                break
    return current
