"""Codepoint-interval character algebra.

Predicates are canonical :class:`CharSet` values: sorted tuples of
disjoint, non-adjacent, inclusive codepoint ranges.  This mirrors how
Z3 (and dZ3) represent Unicode character predicates, supports the full
Unicode range including the Basic Multilingual Plane the paper calls
out, and is *extensional*: two predicates denote the same set iff they
are equal.

:class:`IntervalAlgebra` hands out *canonical* sets: a unique table
keyed by ``ranges`` makes every constructor and operation return one
object per set, and per-algebra caches answer repeated ``conj``,
``disj``, ``neg`` and ``pick`` calls without recomputing the interval
merge.  Equality stays structural, so a set from another algebra, a
snapshot or a cleared table still compares (and hashes) equal to its
canonical twin; identity is only a fast path.

The caches key by each set's integer ``key``, drawn once per object
from one process-wide counter: it works like ``id()`` except that a
key is never reused, so equal keys always mean the same object and
hence the same set.  A key taken from one algebra's unique table would
be unsound, because ``owned`` accepts a same-domain set of another
algebra, so one object can be canonical in two algebras.  Canonical
sets merely raise the caches' hit rates; no answer depends on them.
"""

import itertools

from repro.alphabet.algebra import BooleanAlgebra
from repro.errors import AlgebraError

#: Mints every :class:`CharSet`'s ``key``; never reset, so never reused.
_keys = itertools.count()

#: Highest codepoint of the Basic Multilingual Plane (Plane 0).
BMP_MAX = 0xFFFF

#: Highest Unicode codepoint.
UNICODE_MAX = 0x10FFFF


def _as_codepoint(value):
    """Accept an int codepoint or a 1-character string."""
    if isinstance(value, str):
        if len(value) != 1:
            raise AlgebraError("expected a single character, got %r" % (value,))
        return ord(value)
    return int(value)


class CharSet:
    """An immutable set of codepoints stored as canonical ranges.

    ``ranges`` is a tuple of ``(lo, hi)`` pairs, inclusive on both ends,
    sorted, pairwise disjoint, and with no two ranges adjacent (so the
    representation of any set is unique).  ``key`` is unique to this
    object in the process (see the module docstring); it is never
    serialized.
    """

    __slots__ = ("ranges", "_hash", "key")

    def __init__(self, ranges):
        self.ranges = tuple(ranges)
        self._hash = hash(self.ranges)
        self.key = next(_keys)

    @staticmethod
    def normalize(pairs):
        """Build a :class:`CharSet` from arbitrary (lo, hi) pairs."""
        cleaned = sorted(
            (lo, hi) for lo, hi in pairs if lo <= hi
        )
        merged = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1] + 1:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return CharSet(tuple(merged))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CharSet) and self.ranges == other.ranges
        )

    def __hash__(self):
        return self._hash

    def __contains__(self, char):
        code = _as_codepoint(char)
        lo_idx, hi_idx = 0, len(self.ranges)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            lo, hi = self.ranges[mid]
            if code < lo:
                hi_idx = mid
            elif code > hi:
                lo_idx = mid + 1
            else:
                return True
        return False

    def __bool__(self):
        return bool(self.ranges)

    def __len__(self):
        return sum(hi - lo + 1 for lo, hi in self.ranges)

    def __iter__(self):
        for lo, hi in self.ranges:
            for code in range(lo, hi + 1):
                yield code

    def min(self):
        if not self.ranges:
            raise AlgebraError("empty CharSet has no minimum")
        return self.ranges[0][0]

    def __repr__(self):
        parts = []
        for lo, hi in self.ranges[:8]:
            if lo == hi:
                parts.append("%#x" % lo)
            else:
                parts.append("%#x-%#x" % (lo, hi))
        if len(self.ranges) > 8:
            parts.append("...")
        return "CharSet[%s]" % ", ".join(parts)


# The uncached set operations: the algebra's caches call these on a
# miss, and the tests use them as the oracle for the cached results.

def _union(a, b):
    return CharSet.normalize(a.ranges + b.ranges)


def _complement(a, max_code):
    out = []
    prev = 0
    for lo, hi in a.ranges:
        if prev < lo:
            out.append((prev, lo - 1))
        prev = hi + 1
    if prev <= max_code:
        out.append((prev, max_code))
    return CharSet(tuple(out))


def _intersection(a, b):
    out = []
    i = j = 0
    ra, rb = a.ranges, b.ranges
    while i < len(ra) and j < len(rb):
        lo = max(ra[i][0], rb[j][0])
        hi = min(ra[i][1], rb[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if ra[i][1] < rb[j][1]:
            i += 1
        else:
            j += 1
    return CharSet(tuple(out))


_PRINTABLE = CharSet(((0x20, 0x7E),))


def _pick(a):
    """Some member of nonempty ``a``, preferring printable ASCII so that
    generated witnesses are readable."""
    printable = _intersection(a, _PRINTABLE)
    return chr(printable.min() if printable.ranges else a.min())


class IntervalAlgebra(BooleanAlgebra):
    """The default character theory: canonical codepoint interval sets.

    ``max_code`` bounds the domain; the default covers the BMP, use
    ``IntervalAlgebra(UNICODE_MAX)`` for all of Unicode or a small value
    (e.g. 127 for ASCII) for compact test domains.
    """

    def __init__(self, max_code=BMP_MAX):
        if max_code < 0:
            raise AlgebraError("domain must be nonempty")
        self.max_code = max_code
        self._bot = CharSet(())
        self._top = CharSet(((0, max_code),))
        self.clear_caches()

    # -- canonical sets and their caches ------------------------------------

    def _canonical(self, charset):
        """The unique table's set equal to ``charset`` (entering it when
        new)."""
        return self._unique.setdefault(charset.ranges, charset)

    def cache_entries(self):
        # bot and top stay in the unique table through every clear
        return (
            len(self._unique) - 2 + len(self._conj_cache)
            + len(self._disj_cache) + len(self._neg_cache)
            + len(self._pick_cache)
        )

    def clear_caches(self):
        """Drop every cached set and result except ``bot`` and ``top``.

        Sets handed out before stay valid: equality is structural, they
        merely stop being the canonical object for their ranges."""
        self._unique = {
            self._bot.ranges: self._bot, self._top.ranges: self._top,
        }
        self._conj_cache = {}
        self._disj_cache = {}
        self._neg_cache = {}
        self._pick_cache = {}

    def owned(self, phi):
        """Any :class:`CharSet` inside ``[0, max_code]``: equality is
        structural, so a set of another algebra over the same domain is
        this algebra's set too."""
        if isinstance(phi, CharSet) and (
            not phi.ranges or phi.ranges[-1][1] <= self.max_code
        ):
            return phi
        raise AlgebraError(
            "predicate %r is not a set within this algebra's domain "
            "(max %#x)" % (phi, self.max_code)
        )

    @property
    def bot(self):
        return self._bot

    @property
    def top(self):
        return self._top

    # The counters count *requested* operations, so a cache hit counts
    # like the computation it saves.

    def conj(self, phi, psi):
        self._op_count += 1
        if phi is self._top:
            return psi
        if psi is self._top:
            return phi
        key = (phi.key, psi.key)
        result = self._conj_cache.get(key)
        if result is None:
            result = self._conj_cache[key] = self._canonical(
                _intersection(phi, psi)
            )
        return result

    def disj(self, phi, psi):
        self._op_count += 1
        if phi is self._bot:
            return psi
        if psi is self._bot:
            return phi
        key = (phi.key, psi.key)
        result = self._disj_cache.get(key)
        if result is None:
            result = self._disj_cache[key] = self._canonical(_union(phi, psi))
        return result

    def neg(self, phi):
        self._op_count += 1
        result = self._neg_cache.get(phi.key)
        if result is None:
            result = self._neg_cache[phi.key] = self._canonical(
                _complement(phi, self.max_code)
            )
        return result

    def is_sat(self, phi):
        self._sat_count += 1
        return bool(phi.ranges)

    def is_valid(self, phi):
        self._sat_count += 1
        return phi == self._top

    def member(self, char, phi):
        code = _as_codepoint(char)
        if code > self.max_code:
            return False  # out-of-domain: clean non-match, never an error
        return code in phi

    def in_domain(self, char):
        return _as_codepoint(char) <= self.max_code

    def pick(self, phi):
        """Pick a member, preferring printable ASCII for readable models."""
        if not phi.ranges:
            raise AlgebraError("cannot pick from the empty predicate")
        char = self._pick_cache.get(phi.key)
        if char is None:
            char = self._pick_cache[phi.key] = _pick(phi)
        return char

    def _in_domain_code(self, char):
        code = _as_codepoint(char)
        if code > self.max_code:
            raise AlgebraError(
                "codepoint %#x outside domain (max %#x)" % (code, self.max_code)
            )
        return code

    def from_char(self, char):
        code = self._in_domain_code(char)
        return self._canonical(CharSet(((code, code),)))

    def from_ranges(self, ranges):
        """The canonical set of arbitrary inclusive ``(lo, hi)`` pairs,
        each clipped to ``[0, max_code]``.  One linear pass: pairs that
        arrive sorted, disjoint and non-adjacent (as ``pred_ranges``
        writes them) are taken as they are; any others are normalized."""
        max_code = self.max_code
        pairs = []
        sorted_apart = True
        last = -2
        for lo, hi in ranges:
            lo, hi = _as_codepoint(lo), _as_codepoint(hi)
            if lo < 0:
                lo = 0
            if hi > max_code:
                hi = max_code
            if lo <= hi:
                if lo <= last + 1:
                    sorted_apart = False
                last = hi
                pairs.append((lo, hi))
        return self._canonical(
            CharSet(pairs) if sorted_apart else CharSet.normalize(pairs)
        )

    def from_chars(self, chars):
        """Predicate for a finite set of characters; every one must lie
        in the domain, as for :meth:`from_char`."""
        return self._canonical(CharSet.normalize(
            [(c, c) for c in map(self._in_domain_code, chars)]
        ))

    def count(self, phi):
        return len(phi)

    def equiv(self, phi, psi):
        return phi == psi

    def __repr__(self):
        return "IntervalAlgebra(max_code=%#x)" % self.max_code
