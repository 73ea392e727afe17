"""Verdict provenance: checkable certificates for every solver answer.

The decision procedure of Section 5 is itself a proof object: a ``sat``
answer is a concrete path of minterm choices through conditional
derivatives ending in a nullable state, and an ``unsat`` answer is a
finite explored closure in which no state is nullable.  This module
captures that evidence instead of discarding it:

* :class:`ExplainRecorder` — a per-query provenance recorder threaded
  through :class:`~repro.solver.engine.RegexSolver`; when enabled it
  collects the witness path (sat) or the explored closure with the
  minterm partition and transition rows at every state (unsat);
* :class:`Explanation` — the typed evidence attached to
  :class:`~repro.solver.result.SolverResult`, with a one-line
  ``summary()``, a human narrative, and a JSON ``certificate()``;
* :func:`check_certificate` — an **independent checker** that
  re-verifies nullability (reference semantics), minterm-cover
  exhaustiveness (algebra only), and transition correctness (fresh
  re-derivation plus classical-Brzozowski spot checks) without ever
  touching the producing engine's caches, graph, or interned tables,
  so a tampered or stale certificate is rejected.

Trust boundary (see DESIGN.md "Verdict provenance"): the checker
trusts the character algebra, the reference membership semantics
(:mod:`repro.regex.semantics`), the classical derivative rules
(:mod:`repro.derivatives.brzozowski`) and the derivative-rule code it
re-runs on a *fresh* builder — it trusts nothing produced by the
engine instance whose verdict is being certified.
"""

import json

from repro.alphabet.algebra import pred_ranges
from repro.errors import ReproError

#: Version stamp embedded in every certificate.  Bump on any change to
#: the schema; the checker rejects certificates from the future.
CERT_SCHEMA_VERSION = 1

#: Closure-size cap for recording: an explanation whose closure would
#: exceed this many states is marked truncated and carries no
#: certificate (the narrative still reports what happened).
DEFAULT_MAX_STATES = 20000


class CertificateError(ReproError):
    """A certificate could not be recorded or is structurally broken."""


# -- predicate (de)serialization ----------------------------------------------


def algebra_spec(algebra):
    """A JSON-serializable description of ``algebra``, sufficient for
    the checker to rebuild an equivalent instance from scratch."""
    max_code = getattr(algebra, "max_code", None)
    if max_code is not None:
        return {"kind": "interval", "max_code": max_code}
    alphabet = getattr(algebra, "alphabet", None)
    if alphabet is not None:
        return {"kind": "bitset", "alphabet": alphabet}
    raise CertificateError(
        "cannot serialize certificates over %r (no interval/bitset "
        "description)" % (algebra,)
    )


def algebra_from_spec(spec):
    """Rebuild a fresh algebra from :func:`algebra_spec` output."""
    kind = spec.get("kind")
    if kind == "interval":
        from repro.alphabet.intervals import IntervalAlgebra

        return IntervalAlgebra(int(spec["max_code"]))
    if kind == "bitset":
        from repro.alphabet.bitset import BitsetAlgebra

        return BitsetAlgebra(spec["alphabet"])
    raise CertificateError("unknown algebra spec %r" % (spec,))


def _guard_ranges(algebra, guard):
    """A guard's :func:`~repro.alphabet.algebra.pred_ranges`, or
    :class:`CertificateError` when it has none."""
    ranges = pred_ranges(algebra, guard)
    if ranges is None:
        raise CertificateError("cannot serialize predicate %r" % (guard,))
    return ranges


def _canon_ranges(ranges):
    """Hashable canonical form of serialized guard ranges."""
    return tuple((int(lo), int(hi)) for lo, hi in ranges)


# -- the recorder --------------------------------------------------------------


class ExplainRecorder:
    """Per-query provenance collector owned by a ``RegexSolver``.

    The solver feeds it the transition rows it computes anyway (so the
    common path records for free) and, at query end, asks it to build
    the :class:`Explanation`: for unsat verdicts any states skipped by
    the ``bot`` rule (proved dead in an earlier query) have their rows
    filled in from the memoized derivative trees.
    """

    __slots__ = ("solver", "max_states", "rows", "sat_steps")

    def __init__(self, solver, max_states=DEFAULT_MAX_STATES):
        self.solver = solver
        self.max_states = max_states
        #: regex -> list of (guard, frozenset-of-successor-regexes),
        #: bottom rows included (empty successor sets), so the guards
        #: of each state partition the whole character domain
        self.rows = {}
        #: (state, guard, char, successor) steps left behind by the
        #: exploration loop when it reaches a nullable state
        self.sat_steps = None

    def record_rows(self, state, rows):
        """Remember the full (bottom rows included) transition rows of
        one expanded state."""
        self.rows[state] = rows

    # -- explanation construction ------------------------------------------

    def sat(self, root, witness, steps):
        """Explanation for a sat verdict from the exploration's parent
        chain: ``steps`` is a list of (state, guard, char, successor)."""
        states = [root]
        seen = {root}
        for state, _guard, _char, successor in steps:
            for node in (state, successor):
                if node not in seen:
                    seen.add(node)
                    states.append(node)
        return Explanation(
            "sat", root, self.solver.algebra, witness=witness,
            steps=list(steps), states=states,
        )

    def unsat(self, root):
        """Explanation for an unsat verdict: the explored closure.

        The closure walk is *deferred*: this method only captures the
        per-query row table (already recorded for free) and a thunk;
        :class:`Explanation` runs the walk on first access to its
        states/rows.  The solve path therefore pays nothing beyond the
        row recording itself — the proof is assembled only when
        somebody asks for it.
        """
        solver = self.solver
        recorded = self.rows
        max_states = self.max_states

        def materialize(explanation):
            # Walks the derivative graph from the root over the rows
            # recorded during the query, computing rows for any
            # reachable state the exploration skipped (dead ends
            # proved by earlier queries never get expanded again — the
            # ``bot`` rule — but their rows are one memoized tree-walk
            # away).  Deterministic whenever it runs: the recorded
            # rows are frozen per query and the engine's transitions
            # are memoized pure functions of the state.
            engine = solver.engine
            graph = solver.graph
            states = []
            rows = {}
            stack = [root]
            seen = {root}
            while stack:
                state = stack.pop()
                states.append(state)
                state_rows = recorded.get(state)
                if state_rows is None:
                    state_rows = engine.transitions(state)
                rows[state] = state_rows
                for _guard, targets in state_rows:
                    for target in targets:
                        if target not in seen:
                            if len(seen) >= max_states:
                                explanation.kind = "truncated"
                                explanation.reason = (
                                    "closure exceeds %d states" % max_states
                                )
                                return
                            seen.add(target)
                            stack.append(target)
            explanation._states = states
            explanation._rows = rows
            explanation._flags = {
                state: graph.classify(state) for state in states
            }

        return Explanation(
            "unsat", root, self.solver.algebra, pending=materialize,
        )

    def unknown(self, root, reason):
        return Explanation(
            "unknown", root, self.solver.algebra, reason=reason,
        )


def explain_witness(solver, root, witness):
    """Rebuild a checkable witness path for a known witness string.

    Used by solvers that find witnesses without a parent chain (the
    rule-by-rule :class:`~repro.reference.rules.PropagationEngine`): walks
    the conditional trees from ``root``, choosing at each position the
    row whose guard admits the witness character and, among its
    alternatives, a successor that still accepts the remaining suffix
    (decided by the reference semantics, so the chosen path is exactly
    what the checker will re-verify).  Returns None if no such path
    exists — which, for a genuine witness, cannot happen.
    """
    from repro.regex.semantics import Matcher

    engine = solver.engine
    algebra = solver.algebra
    semantics = Matcher(algebra)
    state = root
    steps = []
    for i, char in enumerate(witness):
        suffix = witness[i + 1:]
        chosen = None
        for guard, targets in engine.transitions(state):
            if not algebra.member(char, guard):
                continue
            for target in targets:
                if semantics.matches(target, suffix):
                    chosen = (state, guard, char, target)
                    break
            break  # the guards partition the domain: only one row fits
        if chosen is None:
            return None
        steps.append(chosen)
        state = chosen[3]
    if not state.nullable:
        return None
    recorder = ExplainRecorder(solver)
    return recorder.sat(root, witness, steps)


# -- the typed evidence --------------------------------------------------------


class Explanation:
    """Typed provenance for one verdict.

    ``kind`` is ``"sat"``, ``"unsat"``, ``"unknown"`` or
    ``"truncated"``.  Regexes and guards are held live; serialization
    to the JSON certificate happens lazily in :meth:`certificate` (and
    is cached), so enabled-mode recording never pays rendering costs
    unless somebody exports.

    Unsat closures are doubly lazy: the recorder hands over a
    ``pending`` thunk instead of the walked closure, and the first
    access to :attr:`states`/:attr:`rows`/:attr:`flags` runs it (an
    over-large closure flips ``kind`` to ``"truncated"`` at that
    point).  The solve path never pays for proof assembly.
    """

    __slots__ = (
        "kind", "root", "algebra", "witness", "steps", "_states", "_rows",
        "_flags", "reason", "checked", "_certificate", "_pending",
    )

    def __init__(self, kind, root, algebra, witness=None, steps=None,
                 states=None, rows=None, flags=None, reason=None,
                 pending=None):
        self.kind = kind
        self.root = root
        self.algebra = algebra
        self.witness = witness
        self.steps = steps if steps is not None else []
        self._states = states if states is not None else []
        self._rows = rows if rows is not None else {}
        self._flags = flags if flags is not None else {}
        self.reason = reason
        #: tri-state: None until :meth:`check` runs, then True/False
        self.checked = None
        self._certificate = None
        self._pending = pending

    def _materialize(self):
        if self._pending is not None:
            thunk, self._pending = self._pending, None
            thunk(self)

    @property
    def states(self):
        self._materialize()
        return self._states

    @property
    def rows(self):
        self._materialize()
        return self._rows

    @property
    def flags(self):
        self._materialize()
        return self._flags

    # -- summaries ----------------------------------------------------------

    @property
    def witness_length(self):
        return len(self.witness) if self.witness is not None else None

    @property
    def closure_size(self):
        return len(self.states) if self.kind == "unsat" else 0

    def row_count(self):
        return sum(len(rows) for rows in self.rows.values())

    def summary(self):
        """The one-line form printed by ``--stats`` and batch reports."""
        checked = {None: "unchecked", True: "yes", False: "NO"}[self.checked]
        if self.kind == "sat":
            return ("sat: witness length %d, path %d steps, %d states, "
                    "certificate checked: %s") % (
                self.witness_length, len(self.steps), len(self.states),
                checked,
            )
        if self.kind == "unsat":
            return ("unsat: closure %d states, %d transition rows, "
                    "certificate checked: %s") % (
                self.closure_size, self.row_count(), checked,
            )
        return "%s: %s" % (self.kind, self.reason or "no certificate")

    def to_dict(self):
        """Compact JSON-ready summary embedded in ``SolverResult.
        to_dict()`` (the full certificate stays behind
        :meth:`certificate` — it can be large)."""
        out = {
            "kind": self.kind,
            "witness_length": self.witness_length,
            "closure_size": self.closure_size,
            "rows": self.row_count(),
            "certificate_checked": self.checked,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out

    # -- certificate --------------------------------------------------------

    def certifiable(self):
        # materialize first: an over-large unsat closure only reveals
        # itself (kind -> "truncated") once the deferred walk runs
        self._materialize()
        return self.kind in ("sat", "unsat")

    def certificate(self):
        """The self-contained, JSON-serializable proof object.

        Everything the independent checker needs is embedded: the
        algebra description, every state as re-parseable pattern text
        with its claimed nullability, and — per kind — the witness path
        or the full transition-row table.  Raises
        :class:`CertificateError` for unknown/truncated explanations.
        """
        if self._certificate is not None:
            return self._certificate
        if not self.certifiable():
            raise CertificateError(
                "no certificate for a %r explanation (%s)"
                % (self.kind, self.reason or "not a concrete verdict")
            )
        from repro.regex.printer import to_pattern

        algebra = self.algebra
        uids = {}
        states = []
        for state in self.states:
            uids[state] = state.uid
            states.append({
                "uid": state.uid,
                "pattern": to_pattern(state, algebra),
                "nullable": state.nullable,
            })
        cert = {
            "v": CERT_SCHEMA_VERSION,
            "kind": self.kind,
            "algebra": algebra_spec(algebra),
            "root": self.root.uid,
            "pattern": to_pattern(self.root, algebra),
            "states": states,
        }
        if self.kind == "sat":
            cert["witness"] = self.witness
            cert["path"] = [
                {
                    "state": state.uid,
                    "guard": _guard_ranges(algebra, guard),
                    "char": ord(char),
                    "successor": successor.uid,
                }
                for state, guard, char, successor in self.steps
            ]
        else:
            rows = {}
            for state, state_rows in self.rows.items():
                rows[str(state.uid)] = [
                    {
                        "guard": _guard_ranges(algebra, guard),
                        "targets": sorted(t.uid for t in targets),
                    }
                    for guard, targets in state_rows
                ]
            for entry in states:
                entry["rows"] = rows.get(str(entry["uid"]), [])
        self._certificate = cert
        return cert

    def check(self):
        """Run the independent checker on this explanation's
        certificate; stamps and returns the :class:`CheckResult`."""
        if not self.certifiable():
            return CheckResult(False, ["%s explanation carries no "
                                       "certificate" % self.kind])
        outcome = check_certificate(self.certificate())
        self.checked = outcome.ok
        return outcome

    # -- narrative ----------------------------------------------------------

    def narrative(self):
        """Step-by-step textual rendering (the ``repro explain`` body)."""
        from repro.regex.printer import render_pred, to_pattern

        algebra = self.algebra
        lines = []
        if self.kind == "sat":
            lines.append(
                "sat: %r is a witness for %s" % (
                    self.witness, to_pattern(self.root, algebra),
                )
            )
            for i, (state, guard, char, successor) in enumerate(self.steps):
                lines.append(
                    "  step %d: %s --[%s, chose %r]--> %s" % (
                        i + 1, to_pattern(state, algebra),
                        render_pred(guard, algebra), char,
                        to_pattern(successor, algebra),
                    )
                )
            final = self.steps[-1][3] if self.steps else self.root
            lines.append(
                "  final state %s is nullable: it accepts the empty "
                "suffix" % to_pattern(final, algebra)
            )
        elif self.kind == "unsat":
            lines.append(
                "unsat: the closure of %s has %d states, none nullable"
                % (to_pattern(self.root, algebra), len(self.states))
            )
            for state in self.states:
                marks = [
                    name for name in ("final", "dead", "closed")
                    if self.flags.get(state, {}).get(name)
                ]
                lines.append("  state %s%s" % (
                    to_pattern(state, algebra),
                    "  [%s]" % ", ".join(marks) if marks else "",
                ))
                for guard, targets in self.rows.get(state, ()):
                    lines.append("    --[%s]--> %s" % (
                        render_pred(guard, algebra),
                        "{%s}" % ", ".join(
                            sorted(to_pattern(t, algebra) for t in targets)
                        ) if targets else "bottom (dead end)",
                    ))
        else:
            lines.append("%s: %s" % (self.kind,
                                     self.reason or "no explanation"))
        if self.checked is not None:
            lines.append("certificate checked: %s"
                         % ("yes" if self.checked else "NO — REJECTED"))
        return "\n".join(lines)

    def __repr__(self):
        return "Explanation(%s)" % self.summary()


class SmtExplanation:
    """Boolean-structure wrapper: per-variable regex explanations.

    The lazy-DNF front end of :class:`~repro.solver.smt.SmtSolver` is
    not itself certified (the trust boundary is the per-variable ERE
    verdicts); this container holds, for a sat model, one certified
    explanation per variable of the satisfied branch, and for unsat
    the refuting explanation of every enumerated branch.
    """

    __slots__ = ("kind", "branches", "checked")

    def __init__(self, kind, branches):
        self.kind = kind
        #: list of {"case": int, "var": str, "explanation": Explanation}
        self.branches = branches
        self.checked = None

    def summary(self):
        checked = {None: "unchecked", True: "yes", False: "NO"}[self.checked]
        return "%s: %d certified sub-verdicts, certificates checked: %s" % (
            self.kind, len(self.branches), checked,
        )

    def to_dict(self):
        return {
            "kind": self.kind,
            "branches": [
                {
                    "case": b["case"],
                    "var": b["var"],
                    "explanation": b["explanation"].to_dict(),
                }
                for b in self.branches
            ],
            "certificate_checked": self.checked,
        }

    def certifiable(self):
        return self.kind in ("sat", "unsat") and bool(self.branches)

    def certificate(self):
        return {
            "v": CERT_SCHEMA_VERSION,
            "kind": "smt-" + self.kind,
            "branches": [
                {
                    "case": b["case"],
                    "var": b["var"],
                    "certificate": b["explanation"].certificate(),
                }
                for b in self.branches
            ],
        }

    def check(self):
        """Check every embedded per-variable certificate."""
        errors = []
        for branch in self.branches:
            outcome = branch["explanation"].check()
            if not outcome.ok:
                errors.extend(
                    "case %d var %s: %s" % (branch["case"], branch["var"], e)
                    for e in outcome.errors
                )
        self.checked = not errors
        return CheckResult(self.checked, errors)

    def narrative(self):
        lines = [self.summary()]
        for branch in self.branches:
            lines.append("case %d, variable %s:" % (branch["case"],
                                                    branch["var"]))
            lines.extend(
                "  " + line
                for line in branch["explanation"].narrative().splitlines()
            )
        return "\n".join(lines)

    def __repr__(self):
        return "SmtExplanation(%s)" % self.summary()


# -- the independent checker ---------------------------------------------------


class CheckResult:
    """Outcome of :func:`check_certificate`: ``ok`` plus the full list
    of verification failures (empty iff ``ok``)."""

    __slots__ = ("ok", "errors", "states_checked", "rows_checked")

    def __init__(self, ok, errors, states_checked=0, rows_checked=0):
        self.ok = ok
        self.errors = list(errors)
        self.states_checked = states_checked
        self.rows_checked = rows_checked

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return ("CheckResult(ok, %d states, %d rows)"
                    % (self.states_checked, self.rows_checked))
        return "CheckResult(REJECTED: %s)" % "; ".join(self.errors[:3])


def check_certificate(cert):
    """Independently re-verify a certificate produced by
    :meth:`Explanation.certificate`.

    Everything is rebuilt from the certificate alone: a fresh algebra
    from its spec, fresh regexes by re-parsing each state's pattern
    into a fresh builder.  The checks, in order:

    1. schema shape and internal uid references;
    2. **nullability** of every state, via the reference membership
       semantics (``"" in L(q)``), cross-checked against the builder's
       structural bit;
    3. for sat — the witness path: chained uids, satisfiable guards
       containing the chosen characters, the witness equal to the
       concatenated choices, and — decisively — every path suffix
       accepted by its state under the reference semantics;
    4. for unsat — **minterm-cover exhaustiveness** (each state's
       guards pairwise disjoint, individually satisfiable, and jointly
       covering the whole domain, by algebra operations alone),
       closure-membership of every transition target, **transition
       correctness** (the rows recomputed by the derivative rules on
       the fresh builder must match the recorded rows exactly), and a
       classical-Brzozowski spot check per row (the derivative at a
       sampled character of each guard must not be nullable).

    Returns a :class:`CheckResult`; never raises on malformed input.
    """
    errors = []
    states_checked = 0
    rows_checked = 0
    try:
        if not isinstance(cert, dict):
            return CheckResult(False, ["certificate is not a mapping"])
        version = cert.get("v")
        if version != CERT_SCHEMA_VERSION:
            return CheckResult(False, [
                "unsupported certificate schema %r (checker knows %d)"
                % (version, CERT_SCHEMA_VERSION)
            ])
        kind = cert.get("kind")
        if kind not in ("sat", "unsat"):
            return CheckResult(False, ["unknown certificate kind %r" % kind])
        try:
            algebra = algebra_from_spec(cert.get("algebra") or {})
        except (CertificateError, KeyError, TypeError, ValueError) as exc:
            return CheckResult(False, ["bad algebra spec: %s" % exc])

        from repro.regex import RegexBuilder, parse
        from repro.regex.semantics import Matcher

        builder = RegexBuilder(algebra)
        semantics = Matcher(algebra)
        by_uid = {}
        node_to_uid = {}
        for entry in cert.get("states", ()):
            uid = entry.get("uid")
            try:
                node = parse(builder, entry["pattern"])
            except ReproError as exc:
                errors.append("state %r: unparseable pattern %r (%s)"
                              % (uid, entry.get("pattern"), exc))
                continue
            if uid in by_uid:
                errors.append("duplicate state uid %r" % uid)
                continue
            if node in node_to_uid:
                errors.append(
                    "states %r and %r denote the same regex %r"
                    % (node_to_uid[node], uid, entry["pattern"])
                )
                continue
            by_uid[uid] = (node, entry)
            node_to_uid[node] = uid
        if errors:
            return CheckResult(False, errors)
        root_uid = cert.get("root")
        if root_uid not in by_uid:
            return CheckResult(
                False, ["root uid %r not among the states" % root_uid]
            )

        # 2. nullability, by the reference semantics
        for uid, (node, entry) in sorted(by_uid.items()):
            states_checked += 1
            claimed = bool(entry.get("nullable"))
            semantic = semantics.matches(node, "")
            if semantic != claimed:
                errors.append(
                    "state %r claims nullable=%s but the reference "
                    "semantics says %s" % (uid, claimed, semantic)
                )
            if node.nullable != semantic:
                errors.append(
                    "state %r: structural nullability disagrees with "
                    "the reference semantics" % uid
                )
        if errors:
            return CheckResult(False, errors,
                               states_checked, rows_checked)

        if kind == "sat":
            rows_checked = _check_sat(
                cert, algebra, semantics, by_uid, root_uid, errors
            )
        else:
            rows_checked = _check_unsat(
                cert, algebra, builder, semantics, by_uid, node_to_uid,
                root_uid, errors,
            )
    except Exception as exc:  # malformed input must reject, not raise
        errors.append("malformed certificate: %s: %s"
                      % (type(exc).__name__, exc))
    return CheckResult(not errors, errors, states_checked, rows_checked)


def _check_sat(cert, algebra, semantics, by_uid, root_uid, errors):
    witness = cert.get("witness")
    path = cert.get("path", [])
    if witness is None:
        errors.append("sat certificate without a witness")
        return 0
    chars = []
    for step in path:
        code = step.get("char")
        try:
            chars.append(chr(code))
        except (TypeError, ValueError):
            errors.append("step has unusable char %r" % (code,))
            return len(path)
    if "".join(chars) != witness:
        errors.append(
            "witness %r is not the concatenation of the path "
            "characters %r" % (witness, "".join(chars))
        )
    # the chain of uids: root -> ... -> final
    chain = [root_uid]
    for i, step in enumerate(path):
        if step.get("state") != chain[-1]:
            errors.append(
                "step %d starts at state %r, expected %r"
                % (i + 1, step.get("state"), chain[-1])
            )
            return len(path)
        chain.append(step.get("successor"))
    for uid in chain:
        if uid not in by_uid:
            errors.append("path references unknown state uid %r" % uid)
            return len(path)
    # guards: satisfiable, containing the chosen character
    for i, step in enumerate(path):
        guard = algebra.from_ranges(
            [(lo, hi) for lo, hi in step.get("guard", ())]
        )
        if not algebra.is_sat(guard):
            errors.append("step %d guard is unsatisfiable" % (i + 1))
        elif not algebra.member(chars[i], guard):
            errors.append(
                "step %d chose %r outside its guard" % (i + 1, chars[i])
            )
        if not algebra.in_domain(chars[i]):
            errors.append("step %d chose out-of-domain %r"
                          % (i + 1, chars[i]))
    # the decisive check: every suffix is accepted by its state,
    # including the full witness at the root and "" at the final state
    for i, uid in enumerate(chain):
        node, _entry = by_uid[uid]
        suffix = witness[i:]
        if not semantics.matches(node, suffix):
            errors.append(
                "suffix %r is not in L(state %r) per the reference "
                "semantics" % (suffix, uid)
            )
    final_node, _ = by_uid[chain[-1]]
    if not semantics.matches(final_node, ""):
        errors.append("final state %r is not nullable" % chain[-1])
    return len(path)


def _check_unsat(cert, algebra, builder, semantics, by_uid, node_to_uid,
                 root_uid, errors):
    from repro.derivatives.brzozowski import brzozowski
    from repro.derivatives.condtree import DerivativeEngine

    rows_checked = 0
    # no state of the closure may be nullable (the per-state semantic
    # check above already validated the bits; here we insist they are
    # all False — a nullable state in the closure breaks the proof)
    for uid, (node, entry) in sorted(by_uid.items()):
        if entry.get("nullable"):
            errors.append(
                "state %r is nullable: the closure cannot prove unsat"
                % uid
            )
    if errors:
        return rows_checked

    # a fresh derivative engine: same rules, empty caches — nothing of
    # the producing engine's memo tables or graph is consulted
    engine = DerivativeEngine(builder)
    for uid, (node, entry) in sorted(by_uid.items()):
        recorded = entry.get("rows")
        if recorded is None:
            errors.append("state %r has no transition rows" % uid)
            continue
        # (a) cover exhaustiveness: pairwise disjoint, each satisfiable,
        # union the whole domain — algebra operations only
        union = algebra.bot
        guards = []
        for i, row in enumerate(recorded):
            guard = algebra.from_ranges(
                [(lo, hi) for lo, hi in row.get("guard", ())]
            )
            guards.append(guard)
            if not algebra.is_sat(guard):
                errors.append("state %r row %d: unsatisfiable guard"
                              % (uid, i))
            if algebra.is_sat(algebra.conj(union, guard)):
                errors.append(
                    "state %r row %d: guard overlaps an earlier row "
                    "(minterms must be disjoint)" % (uid, i)
                )
            union = algebra.disj(union, guard)
        if not algebra.is_valid(union):
            errors.append(
                "state %r: guards do not cover the whole domain — "
                "the cover is not exhaustive" % uid
            )
        # (b) closure: every successor is in the certified state set
        for i, row in enumerate(recorded):
            for target in row.get("targets", ()):
                if target not in by_uid:
                    errors.append(
                        "state %r row %d: successor uid %r escapes "
                        "the closure" % (uid, i, target)
                    )
        if errors:
            continue
        # (c) transition correctness: recompute the rows with the
        # derivative rules on the fresh builder and compare exactly
        want = {}
        for row in recorded:
            want[_canon_ranges(row.get("guard", ()))] = frozenset(
                row.get("targets", ())
            )
        got = {}
        recompute_failed = False
        for guard, targets in engine.transitions(node):
            target_uids = set()
            for target in targets:
                target_uid = node_to_uid.get(target)
                if target_uid is None:
                    errors.append(
                        "state %r: re-derivation reaches a regex "
                        "missing from the certificate" % uid
                    )
                    recompute_failed = True
                    break
                target_uids.add(target_uid)
            if recompute_failed:
                break
            got[_canon_ranges(_guard_ranges(algebra, guard))] = frozenset(
                target_uids
            )
        if recompute_failed:
            continue
        if got != want:
            errors.append(
                "state %r: recorded rows disagree with the derivative "
                "rules (recorded %d rows, recomputed %d; first "
                "difference at guard %r)" % (
                    uid, len(want), len(got),
                    next(iter(
                        sorted(set(want) ^ set(got))
                        or sorted(k for k in want if want[k] != got.get(k))
                    ), None),
                )
            )
            continue
        rows_checked += len(recorded)
        # (d) classical-Brzozowski spot check: at a sampled character
        # of every guard, the reference derivative must not be
        # nullable (otherwise root reaches acceptance through this
        # closure, contradicting unsat)
        for guard in guards:
            if not algebra.is_sat(guard):
                continue
            char = algebra.pick(guard)
            derived = brzozowski(builder, node, char)
            if semantics.matches(derived, ""):
                errors.append(
                    "state %r: classical derivative at %r is nullable "
                    "— a one-step acceptance the certificate hides"
                    % (uid, char)
                )
    return rows_checked


# -- conveniences --------------------------------------------------------------


def explain_pattern(pattern, max_char=None, fuel=None, seconds=None,
                    check=True):
    """One-shot: parse, solve with provenance enabled, optionally
    check, and return the :class:`~repro.solver.result.SolverResult`
    (whose ``explanation`` is populated for concrete verdicts).

    This is the engine behind the ``repro explain`` CLI subcommand and
    the flight recorder's artifact enrichment.
    """
    from repro.alphabet import IntervalAlgebra
    from repro.regex import RegexBuilder, parse
    from repro.solver.engine import RegexSolver
    from repro.solver.result import Budget

    algebra = IntervalAlgebra(max_char) if max_char else IntervalAlgebra()
    builder = RegexBuilder(algebra)
    solver = RegexSolver(builder, explain=True)
    budget = Budget(fuel=fuel, seconds=seconds)
    result = solver.is_satisfiable(parse(builder, pattern), budget)
    if check and result.explanation is not None \
            and result.explanation.certifiable():
        result.explanation.check()
    return result


def certificate_for_task(kind, payload, config, check=True):
    """Re-solve a batch task with provenance enabled; returns a JSON
    dict (summary + certificate + check outcome) or None for task
    kinds with no certified form.  Used to enrich slow-query flight
    artifacts; exceptions are the caller's problem to contain."""
    if kind == "pattern":
        result = explain_pattern(
            payload, max_char=config.get("max_char"),
            fuel=config.get("fuel"), seconds=config.get("seconds"),
            check=check,
        )
        explanation = result.explanation
    elif kind == "smt2":
        from repro.alphabet import IntervalAlgebra
        from repro.regex import RegexBuilder
        from repro.smtlib.interp import run_script
        from repro.solver.engine import RegexSolver
        from repro.solver.result import Budget
        from repro.solver.smt import SmtSolver

        max_char = config.get("max_char")
        algebra = IntervalAlgebra(max_char) if max_char else IntervalAlgebra()
        builder = RegexBuilder(algebra)
        solver = SmtSolver(builder, RegexSolver(builder, explain=True))
        result = run_script(
            builder, payload, solver=solver,
            budget=Budget(fuel=config.get("fuel"),
                          seconds=config.get("seconds")),
        )
        explanation = result.explanation
        if check and explanation is not None:
            explanation.check()
    else:
        return None
    if explanation is None:
        return None
    out = {
        "status": result.status,
        "summary": explanation.summary(),
        "explanation": explanation.to_dict(),
    }
    try:
        out["certificate"] = explanation.certificate()
    except CertificateError:
        pass
    return out


def certificate_to_json(cert, indent=None):
    """Serialize a certificate dict to JSON text (round-trip helper)."""
    return json.dumps(cert, sort_keys=True, indent=indent)


def certificate_from_json(text):
    """Parse JSON text back to a certificate dict."""
    return json.loads(text)
