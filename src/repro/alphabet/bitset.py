"""Bitmask character algebra over a small explicit alphabet.

Useful for exhaustive testing: with an alphabet of, say, ``"ab01"``,
every predicate is one of 16 bitmasks and every property can be checked
by brute force against the interval algebra or against language
enumeration.
"""

from repro.alphabet.algebra import BooleanAlgebra
from repro.errors import AlgebraError


class BitsetPred:
    """A predicate over a finite alphabet, as a bitmask of members."""

    __slots__ = ("mask", "algebra_id")

    def __init__(self, mask, algebra_id):
        self.mask = mask
        self.algebra_id = algebra_id

    def __eq__(self, other):
        return (
            isinstance(other, BitsetPred)
            and self.mask == other.mask
            and self.algebra_id == other.algebra_id
        )

    def __hash__(self):
        return hash((self.mask, self.algebra_id))

    @property
    def key(self):
        """The mask: within one algebra, equal masks are equal sets."""
        return self.mask

    def __repr__(self):
        return "BitsetPred(%s)" % bin(self.mask)


class BitsetAlgebra(BooleanAlgebra):
    """Character algebra over an explicit, ordered, finite alphabet."""

    def __init__(self, alphabet):
        chars = list(alphabet)
        if not chars:
            raise AlgebraError("alphabet must be nonempty")
        if len(set(chars)) != len(chars):
            raise AlgebraError("alphabet contains duplicate characters")
        self.alphabet = "".join(chars)
        self._index = {c: i for i, c in enumerate(chars)}
        self._id = id(self)
        self._bot = BitsetPred(0, self._id)
        self._top = BitsetPred((1 << len(chars)) - 1, self._id)

    def owned(self, phi):
        if not isinstance(phi, BitsetPred) or phi.algebra_id != self._id:
            raise AlgebraError("predicate %r belongs to a different algebra" % (phi,))
        return phi

    @property
    def bot(self):
        return self._bot

    @property
    def top(self):
        return self._top

    def conj(self, phi, psi):
        self._op_count += 1
        return BitsetPred(self.owned(phi).mask & self.owned(psi).mask, self._id)

    def disj(self, phi, psi):
        self._op_count += 1
        return BitsetPred(self.owned(phi).mask | self.owned(psi).mask, self._id)

    def neg(self, phi):
        self._op_count += 1
        return BitsetPred(self._top.mask & ~self.owned(phi).mask, self._id)

    def is_sat(self, phi):
        self._sat_count += 1
        return self.owned(phi).mask != 0

    def is_valid(self, phi):
        self._sat_count += 1
        return self.owned(phi).mask == self._top.mask

    def member(self, char, phi):
        if char not in self._index:
            return False  # out-of-domain: clean non-match, never an error
        return bool(self.owned(phi).mask >> self._index[char] & 1)

    def in_domain(self, char):
        return char in self._index

    def pick(self, phi):
        mask = self.owned(phi).mask
        if mask == 0:
            raise AlgebraError("cannot pick from the empty predicate")
        return self.alphabet[(mask & -mask).bit_length() - 1]

    def from_char(self, char):
        if char not in self._index:
            raise AlgebraError("character %r outside alphabet %r" % (char, self.alphabet))
        return BitsetPred(1 << self._index[char], self._id)

    def from_chars(self, chars):
        mask = 0
        for char in chars:
            if char not in self._index:
                raise AlgebraError(
                    "character %r outside alphabet %r" % (char, self.alphabet)
                )
            mask |= 1 << self._index[char]
        return BitsetPred(mask, self._id)

    def from_ranges(self, ranges):
        chars = []
        for lo, hi in ranges:
            lo = ord(lo) if isinstance(lo, str) else lo
            hi = ord(hi) if isinstance(hi, str) else hi
            chars.extend(c for c in self.alphabet if lo <= ord(c) <= hi)
        return self.from_chars(chars)

    def count(self, phi):
        return bin(self.owned(phi).mask).count("1")

    def chars(self, phi):
        """All characters denoted by ``phi``, in alphabet order."""
        mask = self.owned(phi).mask
        return [c for i, c in enumerate(self.alphabet) if mask >> i & 1]

    def __repr__(self):
        return "BitsetAlgebra(%r)" % self.alphabet
