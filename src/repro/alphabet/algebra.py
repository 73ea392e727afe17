"""Effective Boolean algebras over a character domain (paper, Section 3).

An *effective Boolean algebra* is a tuple ``(D, Psi, [[_]], bot, top,
or, and, not)`` where ``Psi`` is a set of predicates closed under the
Boolean connectives, ``[[_]]`` maps predicates to subsets of the domain
``D``, and satisfiability of predicates is decidable.

Every concrete algebra in this package is additionally *extensional*:
equivalent predicates are represented by the same canonical object, so
semantic checks like ``phi /\\ psi == bot`` reduce to structural ones.
This is what keeps the "clean conditional regex" machinery of Section 4
cheap.

Concrete implementations:

* :class:`repro.alphabet.intervals.IntervalAlgebra` — codepoint
  interval sets (the default; models Z3's Unicode character theory).
* :class:`repro.alphabet.bitset.BitsetAlgebra` — tiny finite alphabets
  encoded as machine-integer bitmasks (handy for exhaustive testing).
* :class:`repro.alphabet.bdd.BDDAlgebra` — binary decision diagrams
  over the bit encoding of codepoints (models the BDD representation
  used by dZ3 / MONA-style transition sharing).
"""

from abc import ABC, abstractmethod


class BooleanAlgebra(ABC):
    """Abstract effective Boolean algebra over a character domain.

    Subclasses choose the predicate representation.  Predicates are
    opaque values as far as clients are concerned; only the operations
    below may be used to combine or inspect them.

    Every predicate carries an integer ``key``, which tables on the
    solve path use in place of hashing the predicate.  The contract:
    two predicates of one algebra with the same ``key`` denote the same
    set, and canonical predicates that are equal share a key.  Keys are
    never serialized.
    """

    # -- telemetry hooks ----------------------------------------------------
    #
    # Counting stays on always: concrete algebras bump the plain ints
    # ``_op_count`` in conj/disj/neg and ``_sat_count`` in
    # is_sat/is_valid — a bare ``+=`` is cheaper than any instrument
    # call at predicate-operation frequencies.  ``bind_metrics`` has a
    # registry's ``algebra`` scope read the totals in place; a *live*
    # span recorder additionally shadows ``is_sat`` with a
    # span-emitting wrapper, so untraced runs pay nothing for it.

    _op_count = 0
    _sat_count = 0

    def bind_metrics(self, registry, tracer=None):
        """Attach this algebra to a :class:`~repro.obs.metrics.
        MetricsRegistry` (``algebra`` scope) and optionally a span
        recorder."""
        registry.scope("algebra").read_from(self._counters)
        if tracer is not None and tracer.enabled:
            inner = type(self).is_sat

            def traced_is_sat(phi, _inner=inner, _self=self, _span=tracer.span):
                with _span("algebra.sat_check"):
                    return _inner(_self, phi)

            self.is_sat = traced_is_sat
        return self

    def _counters(self):
        return {"ops": self._op_count, "sat_checks": self._sat_count}

    @property
    def op_count(self):
        """Boolean connective applications on this algebra."""
        return self._op_count

    @property
    def sat_check_count(self):
        """``is_sat``/``is_valid`` decisions on this algebra."""
        return self._sat_count

    # -- operation caches ----------------------------------------------------
    #
    # An algebra may memoize its operations; the engine-state lifecycle
    # (:mod:`repro.solver.lifecycle`) accounts for those entries and
    # drops them when it compacts, so they stay bounded in long-lived
    # processes.  Predicates handed out before a clear stay valid.

    def cache_entries(self):
        """Number of entries :meth:`clear_caches` would drop."""
        return 0

    def clear_caches(self):
        """Drop memoized operation results (never a predicate's meaning)."""

    # -- The two distinguished predicates ---------------------------------

    @property
    @abstractmethod
    def bot(self):
        """The predicate denoting the empty set."""

    @property
    @abstractmethod
    def top(self):
        """The predicate denoting the whole domain."""

    # -- Boolean connectives ----------------------------------------------

    @abstractmethod
    def conj(self, phi, psi):
        """Conjunction: ``[[conj(phi, psi)]] = [[phi]] & [[psi]]``."""

    @abstractmethod
    def disj(self, phi, psi):
        """Disjunction: ``[[disj(phi, psi)]] = [[phi]] | [[psi]]``."""

    @abstractmethod
    def neg(self, phi):
        """Negation: ``[[neg(phi)]] = D \\ [[phi]]``."""

    # -- Ownership -----------------------------------------------------------

    @abstractmethod
    def owned(self, phi):
        """Return ``phi`` if it is a predicate of this algebra, else
        raise :class:`AlgebraError`.

        Constant time: the regex builder checks every predicate that
        enters it, so a predicate of another domain can never reach a
        derivative or a witness.
        """

    # -- Decision problems --------------------------------------------------

    @abstractmethod
    def is_sat(self, phi):
        """True iff ``[[phi]]`` is nonempty."""

    @abstractmethod
    def is_valid(self, phi):
        """True iff ``[[phi]] = D``."""

    @abstractmethod
    def member(self, char, phi):
        """True iff ``char in [[phi]]``.

        Characters outside the domain ``D`` are in no predicate's
        denotation, so ``member`` returns False for them — never an
        error (an astral-plane character fed to a BMP algebra is a
        non-match, not a crash).
        """

    def in_domain(self, char):
        """True iff ``char`` is an element of the domain ``D``.

        Matching entry points must check this *before* structural
        evaluation: languages are subsets of ``D*``, so a string with
        an out-of-domain character is in no language over ``D`` — not
        even a complemented one (complement is relative to ``D*``).
        Predicate-level ``member`` checks alone cannot enforce this,
        because valid predicates (e.g. ``.``) are short-circuited to
        unconditional branches during derivative construction.
        """
        return True

    @abstractmethod
    def pick(self, phi):
        """Return some element of ``[[phi]]``.

        Raises :class:`AlgebraError` if ``phi`` is unsatisfiable.
        Implementations prefer printable characters when available so
        that generated witnesses are readable.
        """

    # -- Construction --------------------------------------------------------

    @abstractmethod
    def from_char(self, char):
        """Singleton predicate ``{char}``."""

    @abstractmethod
    def from_ranges(self, ranges):
        """Predicate for a union of inclusive codepoint ranges.

        ``ranges`` is an iterable of ``(lo, hi)`` pairs of codepoints
        (or single characters); the result denotes their union.
        """

    # -- Derived operations (shared implementations) -------------------------

    def diff(self, phi, psi):
        """Set difference ``[[phi]] \\ [[psi]]``."""
        return self.conj(phi, self.neg(psi))

    def disj_all(self, phis):
        """Disjunction of an iterable of predicates (``bot`` if empty)."""
        result = self.bot
        for phi in phis:
            result = self.disj(result, phi)
            if result == self.top:
                break
        return result

    def equiv(self, phi, psi):
        """Semantic equivalence.  Extensional algebras make this ``==``."""
        return phi == psi

    def implies(self, phi, psi):
        """True iff ``[[phi]]`` is a subset of ``[[psi]]``."""
        return not self.is_sat(self.diff(phi, psi))

    def is_singleton(self, phi):
        """True iff ``[[phi]]`` contains exactly one character."""
        count = self.count(phi)
        return count == 1

    def count(self, phi):
        """Number of characters in ``[[phi]]`` (may be expensive)."""
        raise NotImplementedError


def pred_ranges(algebra, pred):
    """Serialize a predicate as sorted inclusive codepoint ranges (a
    list of ``[lo, hi]`` pairs), or None when the algebra offers no
    serializable view.  Certificates and warm-store fragments both
    store guards this way."""
    ranges = getattr(pred, "ranges", None)
    if ranges is not None:
        return [[lo, hi] for lo, hi in ranges]
    if not hasattr(algebra, "chars"):
        return None
    out = []
    for code in sorted(ord(c) for c in algebra.chars(pred)):
        if out and code == out[-1][1] + 1:
            out[-1][1] = code
        else:
            out.append([code, code])
    return out
