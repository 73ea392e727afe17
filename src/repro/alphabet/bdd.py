"""BDD-based character algebra.

Predicates are reduced ordered binary decision diagrams over the bits
of the codepoint (most significant bit first).  ROBDDs are canonical,
so this algebra is extensional like the others.  dZ3 represents its
transition structure with multi-terminal BDDs (the paper cites MONA's
implementation secrets); this module provides the same predicate
backbone as an alternative to interval sets, and the benchmark suite
compares the two.
"""

import itertools

from repro.alphabet.algebra import BooleanAlgebra
from repro.errors import AlgebraError

#: Mints the ``key`` of every BDD node and terminal at creation.  Nodes
#: are canonical per manager, so within one algebra equal keys are one
#: node and equal sets are one key.
_keys = itertools.count()


class BDDNode:
    """An interned BDD node: branch on ``var`` (bit index, 0 = MSB)."""

    __slots__ = ("var", "lo", "hi", "manager_id", "_hash", "key")

    def __init__(self, var, lo, hi, manager_id):
        self.var = var
        self.lo = lo  # child when the bit is 0
        self.hi = hi  # child when the bit is 1
        self.manager_id = manager_id
        self._hash = hash((var, id(lo), id(hi), manager_id))
        self.key = next(_keys)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "BDDNode(var=%d)" % self.var


class _Terminal:
    __slots__ = ("value", "key")

    def __init__(self, value):
        self.value = value
        self.key = next(_keys)

    def __repr__(self):
        return "BDD-%s" % ("TRUE" if self.value else "FALSE")


class BDDAlgebra(BooleanAlgebra):
    """Character algebra whose predicates are ROBDDs over codepoint bits.

    ``bits`` is the codepoint width: 16 covers the BMP, 21 all of
    Unicode, smaller values give compact test domains of size
    ``2**bits``.
    """

    def __init__(self, bits=16):
        if bits < 1:
            raise AlgebraError("need at least one bit")
        self.bits = bits
        self.max_code = (1 << bits) - 1
        self._id = id(self)
        self._false = _Terminal(False)
        self._true = _Terminal(True)
        self._nodes = {}
        self._apply_cache = {}
        self._neg_cache = {}

    def cache_entries(self):
        return len(self._apply_cache) + len(self._neg_cache)

    def clear_caches(self):
        """Drop the apply and negation caches.  ``_nodes`` stays: it is
        the representation (a predicate is canonical because ``_mk``
        finds its node there), not a cache."""
        self._apply_cache.clear()
        self._neg_cache.clear()

    # -- node construction -------------------------------------------------

    def _mk(self, var, lo, hi):
        if lo is hi:
            return lo
        key = (var, id(lo), id(hi))
        node = self._nodes.get(key)
        if node is None:
            node = BDDNode(var, lo, hi, self._id)
            self._nodes[key] = node
        return node

    def _is_terminal(self, node):
        return isinstance(node, _Terminal)

    def owned(self, phi):
        if phi is self._true or phi is self._false or (
            isinstance(phi, BDDNode) and phi.manager_id == self._id
        ):
            return phi
        raise AlgebraError("predicate %r belongs to a different algebra" % (phi,))

    # -- the distinguished predicates ---------------------------------------

    @property
    def bot(self):
        return self._false

    @property
    def top(self):
        return self._true

    # -- connectives ---------------------------------------------------------

    def _apply(self, op, a, b):
        if self._is_terminal(a) and self._is_terminal(b):
            if op == "and":
                return self._true if a.value and b.value else self._false
            if op == "or":
                return self._true if a.value or b.value else self._false
            raise AlgebraError("unknown op %r" % op)
        # short circuits
        if op == "and":
            if a is self._false or b is self._false:
                return self._false
            if a is self._true:
                return b
            if b is self._true:
                return a
            if a is b:
                return a
        else:  # or
            if a is self._true or b is self._true:
                return self._true
            if a is self._false:
                return b
            if b is self._false:
                return a
            if a is b:
                return a
        key = (op, id(a), id(b)) if id(a) <= id(b) else (op, id(b), id(a))
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        var_a = a.var if not self._is_terminal(a) else self.bits
        var_b = b.var if not self._is_terminal(b) else self.bits
        var = min(var_a, var_b)
        a_lo, a_hi = (a.lo, a.hi) if var_a == var else (a, a)
        b_lo, b_hi = (b.lo, b.hi) if var_b == var else (b, b)
        result = self._mk(
            var, self._apply(op, a_lo, b_lo), self._apply(op, a_hi, b_hi)
        )
        self._apply_cache[key] = result
        return result

    def conj(self, phi, psi):
        self._op_count += 1
        return self._apply("and", phi, psi)

    def disj(self, phi, psi):
        self._op_count += 1
        return self._apply("or", phi, psi)

    def neg(self, phi):
        self._op_count += 1
        return self._neg(phi)

    def _neg(self, phi):
        if phi is self._true:
            return self._false
        if phi is self._false:
            return self._true
        cached = self._neg_cache.get(id(phi))
        if cached is not None:
            return cached
        result = self._mk(phi.var, self._neg(phi.lo), self._neg(phi.hi))
        self._neg_cache[id(phi)] = result
        self._neg_cache[id(result)] = phi
        return result

    # -- decision problems -----------------------------------------------------

    def is_sat(self, phi):
        self._sat_count += 1
        return phi is not self._false

    def is_valid(self, phi):
        self._sat_count += 1
        return phi is self._true

    def member(self, char, phi):
        code = ord(char) if isinstance(char, str) else int(char)
        if code > self.max_code:
            return False  # out-of-domain: clean non-match, never an error
        node = phi
        while not self._is_terminal(node):
            bit = code >> (self.bits - 1 - node.var) & 1
            node = node.hi if bit else node.lo
        return node.value

    def in_domain(self, char):
        code = ord(char) if isinstance(char, str) else int(char)
        return code <= self.max_code

    def pick(self, phi):
        if phi is self._false:
            raise AlgebraError("cannot pick from the empty predicate")
        code = 0
        node = phi
        var = 0
        while not self._is_terminal(node):
            # fill skipped (don't-care) bits with 0
            var = node.var
            if node.lo is not self._false:
                node = node.lo
            else:
                code |= 1 << (self.bits - 1 - var)
                node = node.hi
        return chr(code)

    # -- construction --------------------------------------------------------

    def from_char(self, char):
        code = ord(char) if isinstance(char, str) else int(char)
        return self.from_ranges([(code, code)])

    def from_chars(self, chars):
        result = self._false
        for char in chars:
            result = self.disj(result, self.from_char(char))
        return result

    def from_ranges(self, ranges):
        result = self._false
        for lo, hi in ranges:
            lo = ord(lo) if isinstance(lo, str) else int(lo)
            hi = ord(hi) if isinstance(hi, str) else int(hi)
            lo, hi = max(lo, 0), min(hi, self.max_code)
            if lo <= hi:
                result = self.disj(result, self._range(lo, hi, 0))
        return result

    def _range(self, lo, hi, var):
        """BDD for ``lo <= code <= hi`` deciding bits from ``var`` down."""
        if var == self.bits:
            return self._true
        width = self.bits - var
        full = (1 << width) - 1
        if lo == 0 and hi == full:
            return self._true
        if lo > hi:
            return self._false
        half = 1 << (width - 1)
        if hi < half:
            return self._mk(var, self._range(lo, hi, var + 1), self._false)
        if lo >= half:
            return self._mk(
                var, self._false, self._range(lo - half, hi - half, var + 1)
            )
        return self._mk(
            var,
            self._range(lo, half - 1, var + 1),
            self._range(0, hi - half, var + 1),
        )

    def count(self, phi):
        cache = {}

        def walk(node, var):
            if self._is_terminal(node):
                return (1 << (self.bits - var)) if node.value else 0
            key = (id(node), var)
            if key in cache:
                return cache[key]
            skipped = node.var - var
            total = (walk(node.lo, node.var + 1) + walk(node.hi, node.var + 1)) << skipped
            cache[key] = total
            return total

        return walk(phi, 0)

    def node_count(self, phi):
        """Number of distinct BDD nodes reachable from ``phi``."""
        seen = set()
        stack = [phi]
        while stack:
            node = stack.pop()
            if self._is_terminal(node) or id(node) in seen:
                continue
            seen.add(id(node))
            stack.append(node.lo)
            stack.append(node.hi)
        return len(seen)

    def __repr__(self):
        return "BDDAlgebra(bits=%d)" % self.bits
