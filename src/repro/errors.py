"""Exception hierarchy shared across the library, and the one
capability check that refuses zero-width assertions."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class AlgebraError(ReproError):
    """A character-theory operation was used incorrectly.

    Typical causes: mixing predicates from two different algebra
    instances, or asking for a witness of an unsatisfiable predicate.
    """


class RegexSyntaxError(ReproError):
    """A concrete regex or SMT-LIB regex term failed to parse."""

    def __init__(self, message, text=None, position=None):
        if text is not None and position is not None:
            message = "%s at position %d in %r" % (message, position, text)
        super().__init__(message)
        self.text = text
        self.position = position


class SmtLibError(ReproError):
    """An SMT-LIB script is malformed or uses an unsupported feature."""


class UnsupportedError(ReproError):
    """An engine refused a construct it has no sound rule for: zero-width
    assertions in every derivative and automaton engine, complement in
    the baselines.  Solver callers answer *unknown*, as real solvers do.
    Running out of a resource is :class:`BudgetExceeded` instead."""


class BudgetExceeded(ReproError):
    """A solver ran out of its fuel or wall-clock budget (a 'timeout')."""

    def __init__(self, message="budget exceeded", fuel_used=None, elapsed=None):
        super().__init__(message)
        self.fuel_used = fuel_used
        self.elapsed = elapsed


def refuse_lookarounds(regex, engine):
    """The one capability check for zero-width assertions.

    Every derivative and automaton engine calls this on the root it was
    handed, before doing any work.  ``has_look`` is a subtree flag, so
    the root check covers every node.  No engine has a sound assertion
    rule: an assertion's truth depends on context a derivative state
    does not carry, so a node-local rule derives wrong answers through
    concatenation.  Eliminate lookarounds first
    (:func:`repro.regex.transform.eliminate_lookarounds`).
    """
    if regex.has_look:
        raise UnsupportedError(
            "%s: zero-width assertions are unsupported; eliminate "
            "lookarounds first" % engine
        )
