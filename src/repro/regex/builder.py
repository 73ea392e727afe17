"""Smart constructors for hash-consed EREs.

A :class:`RegexBuilder` is tied to one character algebra and interns
every node it creates, applying the algebraic laws of Section 4
("Algebraic Properties") at construction time:

* ``.*`` is absorbing for ``|`` and the unit of ``&``;
* ``bottom`` is the unit of ``|`` and absorbing for ``&`` and ``.``;
* ``&`` and ``|`` are idempotent, associative, commutative (children
  are flattened, deduplicated and sorted by uid);
* ``~~R = R``; adjacent character predicates in ``|``/``&`` fuse into
  one predicate of the algebra;
* loop bounds normalize (``R{1,1} = R``, ``R{0,0} = eps``, ``(R*)* =
  R*``, ...).

Working modulo these similarity rules is what makes the set of
derivatives finite (Theorem 7.1) without full language-equivalence
checks — the algebra is deliberately *not* extensional at the regex
level.
"""

from repro.errors import AlgebraError
from repro.regex.ast import (
    COMPL, CONCAT, EMPTY, EPSILON, INF, INTER, LOOK_KINDS, LOOKAHEAD,
    LOOKBEHIND, LOOP, NEG_LOOKAHEAD, NEG_LOOKBEHIND, NEGATED_LOOK, PRED,
    Regex, UNION,
)


def _foreign(regex):
    return AlgebraError(
        "regex %r belongs to a different builder; regexes cannot be "
        "mixed across builders" % (regex,)
    )


class RegexBuilder:
    """Factory and interning table for :class:`Regex` nodes."""

    def __init__(self, algebra):
        self.algebra = algebra
        self._table = {}
        self._next_uid = 0
        self.empty = self._intern(EMPTY, None, (), None, None, nullable=False)
        self.epsilon = self._intern(EPSILON, None, (), None, None, nullable=True)
        #: ``.`` — any single character.
        self.dot = self._intern(PRED, algebra.top, (), None, None, nullable=False)
        #: ``.*`` — the full language, the paper's top regex.
        self.full = self._intern(LOOP, None, (self.dot,), 0, INF, nullable=True)

    # -- interning ---------------------------------------------------------

    def _intern(self, kind, pred, children, lo, hi, nullable):
        # one pass over the children: the key holds their integer uids,
        # and a lookaround anywhere below makes this node positional.
        # Every constructor has already checked its operands' owner.
        uids = []
        has_look = kind in LOOK_KINDS
        for child in children:
            uids.append(child.uid)
            if child.has_look:
                has_look = True
        key = (kind, pred, tuple(uids), lo, hi)
        node = self._table.get(key)
        if node is None:
            node = Regex(
                kind, pred, tuple(children), lo, hi, self._next_uid,
                nullable, has_look, self,
            )
            self._next_uid += 1
            self._table[key] = node
        return node

    @property
    def interned_count(self):
        """Number of distinct regexes created so far (a state-space
        metric reported by the benchmarks)."""
        return len(self._table)

    # -- leaves ---------------------------------------------------------------

    def pred(self, phi):
        """Single-character language ``[[phi]]``; ``phi`` must be a
        predicate of this builder's algebra."""
        if not self.algebra.is_sat(self.algebra.owned(phi)):
            return self.empty
        return self._intern(PRED, phi, (), None, None, nullable=False)

    def char(self, c):
        """The singleton one-character string language ``{c}``."""
        return self.pred(self.algebra.from_char(c))

    def string(self, s):
        """The singleton language ``{s}``."""
        return self.concat([self.char(c) for c in s])

    def ranges(self, pairs):
        """Character class from inclusive (lo, hi) codepoint ranges."""
        return self.pred(self.algebra.from_ranges(pairs))

    # -- concatenation ----------------------------------------------------------

    def concat(self, parts):
        """Concatenation, flattened; ``bottom`` absorbs, ``eps`` is unit."""
        flat = []
        nullable = True
        absorbed = False
        for part in parts:
            if part.owner is not self:
                raise _foreign(part)
            kind = part.kind
            if kind == EMPTY:
                # absorbs, but the parts after it are still checked
                absorbed = True
                continue
            if kind == EPSILON:
                continue
            if kind == CONCAT:
                flat.extend(part.children)
            else:
                flat.append(part)
            if not part.nullable:
                nullable = False
        if absorbed:
            return self.empty
        if not flat:
            return self.epsilon
        if len(flat) == 1:
            return flat[0]
        return self._intern(CONCAT, None, flat, None, None, nullable)

    def seq(self, *parts):
        """Variadic convenience wrapper around :meth:`concat`."""
        return self.concat(list(parts))

    # -- boolean combinators -------------------------------------------------------

    def union(self, parts):
        """Disjunction ``|`` with the ACI + unit/absorber laws applied."""
        return self._boolean(parts, UNION)

    def inter(self, parts):
        """Conjunction ``&`` with the ACI + unit/absorber laws applied."""
        return self._boolean(parts, INTER)

    def _boolean(self, parts, kind):
        union = kind == UNION
        unit = self.empty if union else self.full
        absorber = self.full if union else self.empty
        members = {}
        pred_acc = None
        stack = list(parts)
        for part in stack:
            if part.owner is not self:
                raise _foreign(part)
        while stack:
            part = stack.pop()
            if part is absorber:
                return absorber
            if part is unit:
                continue
            if part.kind == kind:
                stack.extend(part.children)
            elif part.kind == PRED and union:
                pred_acc = part.pred if pred_acc is None else self.algebra.disj(
                    pred_acc, part.pred
                )
            else:
                members[part.uid] = part
        if pred_acc is not None:
            fused = self.pred(pred_acc)
            if fused is absorber:
                return absorber
            if fused is not unit:
                members[fused.uid] = fused
        if not union and self.epsilon.uid in members:
            # eps & R = eps when eps in L(R), else bottom — but only
            # when no member carries assertions: positionally,
            # eps & (?!a) *is* the assertion, not eps
            rest = [m for m in members.values() if m.kind != EPSILON]
            if not any(m.has_look for m in rest):
                if all(m.nullable for m in rest):
                    return self.epsilon
                return self.empty
        if not members:
            return unit
        if len(members) == 1:
            (member,) = members.values()
            return member
        children = []
        any_nullable = False
        all_nullable = True
        for uid in sorted(members):
            child = members[uid]
            # R | ~R = .*  and  R & ~R = bottom
            if child.kind == COMPL and child.children[0].uid in members:
                return absorber
            children.append(child)
            if child.nullable:
                any_nullable = True
            else:
                all_nullable = False
        nullable = any_nullable if union else all_nullable
        return self._intern(kind, None, children, None, None, nullable)

    def alt(self, *parts):
        """Variadic convenience wrapper around :meth:`union`."""
        return self.union(list(parts))

    def both(self, *parts):
        """Variadic convenience wrapper around :meth:`inter`."""
        return self.inter(list(parts))

    def compl(self, r):
        """Complement ``~R`` with ``~~R = R``, ``~bottom = .*``."""
        if r.owner is not self:
            raise _foreign(r)
        if r.kind == COMPL:
            return r.children[0]
        if r is self.empty:
            return self.full
        if r is self.full:
            return self.empty
        return self._intern(COMPL, None, (r,), None, None, not r.nullable)

    # -- zero-width assertions -------------------------------------------------

    def lookahead(self, r):
        """``(?=R)`` — the suffix from here has a prefix in ``L(R)``."""
        return self.look(LOOKAHEAD, r)

    def neg_lookahead(self, r):
        """``(?!R)`` — no prefix of the suffix from here is in ``L(R)``."""
        return self.look(NEG_LOOKAHEAD, r)

    def lookbehind(self, r):
        """``(?<=R)`` — the prefix up to here has a suffix in ``L(R)``."""
        return self.look(LOOKBEHIND, r)

    def neg_lookbehind(self, r):
        """``(?<!R)`` — no suffix of the prefix up to here is in ``L(R)``."""
        return self.look(NEG_LOOKBEHIND, r)

    def look(self, kind, r):
        """Assertion of ``kind`` over body ``r``, with the identities:

        * a nullable body always has the empty match available at the
          current position, so the positive assertion is vacuously true
          (``eps``) and the negative one vacuously false (``bottom``);
        * an empty body can never match, so the positive assertion is
          ``bottom`` (``(?=bottom) = bottom``) and the negative ``eps``;
        * an assertion of an assertion collapses: asserting that a
          zero-width assertion "matches here" *is* that assertion, and
          negating one flips its polarity (``(?!(?!R)) = (?=R)``) —
          note the body's own direction wins, not the wrapper's.
        """
        if kind not in LOOK_KINDS:
            raise AlgebraError("not an assertion kind: %r" % (kind,))
        if r.owner is not self:
            raise _foreign(r)
        positive = kind in (LOOKAHEAD, LOOKBEHIND)
        if r.kind == EMPTY:
            return self.empty if positive else self.epsilon
        if r.nullable and not r.has_look:
            # only sound for assertion-free bodies: a nullable body
            # with assertions inside (e.g. the ``$`` body ``\n?(?!.)``)
            # matches the empty span only at *some* positions
            return self.epsilon if positive else self.empty
        if r.kind in LOOK_KINDS:
            if positive:
                return r
            return self.look(NEGATED_LOOK[r.kind], r.children[0])
        # ``nullable`` stores "" in L(R) under fullmatch: on the empty
        # string the assertion holds iff its body matches the empty
        # string (the only span available on either side), so the bit
        # is the body's, negated for negative assertions.  General
        # empty-*span* matching stays positional and is decided by the
        # reference matcher, not this bit.
        nullable = r.nullable if positive else not r.nullable
        return self._intern(kind, None, (r,), None, None, nullable)

    #: Anchor bodies (``^``/``$``/``\b``) are built in the parser from
    #: these assertions; see ``repro.regex.parser``.

    def diff(self, r, s):
        """Difference ``R & ~S`` (SMT-LIB ``re.diff``)."""
        return self.inter([r, self.compl(s)])

    # -- iteration -------------------------------------------------------------------

    def loop(self, r, lo, hi=INF):
        """Bounded/unbounded iteration ``R{lo,hi}`` (``hi=None`` = inf)."""
        if r.owner is not self:
            raise _foreign(r)
        if lo < 0 or (hi is not INF and hi < lo):
            raise AlgebraError("bad loop bounds {%r,%r}" % (lo, hi))
        if hi == 0:
            return self.epsilon
        if r.kind == EPSILON:
            return self.epsilon
        if r.kind == EMPTY:
            return self.epsilon if lo == 0 else self.empty
        if r.kind in LOOK_KINDS:
            # iterating a zero-width assertion re-checks it at the same
            # position: {0,..} may always take zero copies (plain eps),
            # {lo>=1,..} is one check
            return self.epsilon if lo == 0 else r
        if lo == 1 and hi == 1:
            return r
        if lo == 0 and hi == 1 and r.nullable and not r.has_look:
            # R? = R when eps is already in L(R).  Not valid under
            # assertions: their empty-span match is context-dependent,
            # while R? may always skip (e.g. ``(?!a)?`` is eps, not
            # ``(?!a)``).
            return r
        if r.kind == LOOP:
            if r.lo == 0 and r.hi is INF:
                # (R*){lo,hi} = R*: powers of R* collapse to R* and the
                # k=0 term only contributes eps, already in R*.
                return r
            if lo == 0 and hi is INF and r.lo == 0:
                # (R{0,k})* = R*.
                return self.loop(r.children[0], 0, INF)
        nullable = lo == 0 or r.nullable
        return self._intern(LOOP, None, (r,), lo, hi, nullable)

    def star(self, r):
        """Kleene star ``R*``."""
        return self.loop(r, 0, INF)

    def plus(self, r):
        """``R+`` = ``R{1,inf}``."""
        return self.loop(r, 1, INF)

    def opt(self, r):
        """``R?`` = ``R{0,1}``."""
        return self.loop(r, 0, 1)

    # -- misc -------------------------------------------------------------------------

    def any_length(self, lo, hi=INF):
        """``.{lo,hi}`` — all strings whose length is in the window."""
        return self.loop(self.dot, lo, hi)

    def contains(self, r):
        """``.*R.*`` — all strings with a factor in ``L(R)``."""
        return self.concat([self.full, r, self.full])

    def starts_with(self, r):
        """``R.*``."""
        return self.concat([r, self.full])

    def ends_with(self, r):
        """``.*R``."""
        return self.concat([self.full, r])
