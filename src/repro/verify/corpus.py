"""The frozen-failure corpus under ``tests/corpus/``.

Every bug the verification campaigns find is shrunk and frozen as one
JSON file here; the tier-1 suite replays every entry forever after
(``make corpus-replay``), so a fixed bug cannot silently return.

Entry schema (one JSON object per file)::

    {
      "id":          stable slug, also the file name,
      "kind":        "search" | "sat" | "smt2" | "print",
      "description": what was wrong, one sentence,
      "found_by":    how it was found (campaign seed, by hand, ...),
      ... kind-specific payload and expectation ...
    }

Kinds:

* ``search`` — ``pattern``/``text``/``expected`` span: the matcher's
  leftmost-shortest search must return exactly that span;
* ``sat`` — ``pattern``/``expected`` status: every engine that
  answers concretely must answer ``expected``, with valid witnesses;
* ``smt2`` — ``script``/``expected``: the mini-SMT front end on an
  SMT-LIB script;
* ``print`` — ``pattern`` (or a ``repeat`` spec for deep nesting):
  parse, print, reparse to the identical node, serialize to SMT-LIB
  and compute structural bounds — none of which may crash, however
  deep the term.
"""

import json
import os

from repro.solver import Budget

#: Replay budgets: generous for a CI box, small enough that a frozen
#: entry can never stall the tier-1 suite.
REPLAY_FUEL = 300000
REPLAY_SECONDS = 10.0


def default_corpus_dir():
    """``tests/corpus/`` resolved relative to the repository root."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "corpus")


def freeze(entry, directory=None):
    """Write one corpus entry; returns the file path."""
    directory = directory or default_corpus_dir()
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s.json" % entry["id"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_all(directory=None):
    """All corpus entries, sorted by id."""
    directory = directory or default_corpus_dir()
    entries = []
    if not os.path.isdir(directory):
        return entries
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            entries.append(json.load(handle))
    return entries


def entry_pattern(entry):
    """The concrete pattern text of an entry (expands ``repeat``)."""
    if "repeat" in entry:
        spec = entry["repeat"]
        return (
            spec["prefix"] * spec["count"]
            + spec["core"]
            + spec["suffix"] * spec["count"]
        )
    return entry["pattern"]


def replay_entry(entry, builder=None):
    """Replay one entry.  Returns ``(ok, detail)``."""
    from repro.alphabet import IntervalAlgebra
    from repro.regex import RegexBuilder

    builder = builder or RegexBuilder(IntervalAlgebra(0x110000))
    kind = entry["kind"]
    if kind == "search":
        return _replay_search(builder, entry)
    if kind == "sat":
        return _replay_sat(builder, entry)
    if kind == "smt2":
        return _replay_smt2(builder, entry)
    if kind == "print":
        return _replay_print(builder, entry)
    return False, "unknown corpus kind %r" % kind


def _replay_search(builder, entry):
    from repro.matcher import RegexMatcher
    from repro.regex import parse

    matcher = RegexMatcher(builder, parse(builder, entry["pattern"]))
    found = matcher.search(entry["text"])
    expected = entry["expected"]
    got = None if found is None else list(found.span())
    if got != expected:
        return False, "search(%r, %r) returned %s, expected %s" % (
            entry["pattern"], entry["text"], got, expected,
        )
    return True, "span %s" % got


def _replay_sat(builder, entry):
    from repro.regex import parse
    from repro.regex.semantics import Matcher
    from repro.verify.oracle import make_engines

    regex = parse(builder, entry["pattern"])
    expected = entry["expected"]
    semantics = Matcher(builder.algebra)
    for name, engine in make_engines(builder).items():
        result = engine.is_satisfiable(
            regex, Budget(fuel=REPLAY_FUEL, seconds=REPLAY_SECONDS)
        )
        if result.status not in ("sat", "unsat"):
            continue
        if result.status != expected:
            return False, "%s answered %s for %r, expected %s" % (
                name, result.status, entry["pattern"], expected,
            )
        if result.status == "sat" and result.witness is not None and \
                not semantics.matches(regex, result.witness):
            return False, "%s produced invalid witness %r for %r" % (
                name, result.witness, entry["pattern"],
            )
    return True, "all engines agree on %s" % expected


def _replay_smt2(builder, entry):
    from repro.smtlib.parser import parse_script
    from repro.solver import SmtSolver
    from repro.solver import formula as F

    script = parse_script(builder, entry["script"])
    assertions = list(script.assertions)
    if not assertions:
        return False, "script has no assertions"
    formula = assertions[0] if len(assertions) == 1 else F.And(assertions)
    result = SmtSolver(builder).solve(
        formula, Budget(fuel=REPLAY_FUEL, seconds=REPLAY_SECONDS)
    )
    if result.status != entry["expected"]:
        return False, "smt solver answered %s, expected %s" % (
            result.status, entry["expected"],
        )
    return True, "solver answered %s" % result.status


def _replay_print(builder, entry):
    from repro.analysis.lengths import structural_max, structural_min
    from repro.regex import parse, to_pattern
    from repro.smtlib.writer import regex_to_smtlib

    pattern = entry_pattern(entry)
    regex = parse(builder, pattern)
    text = to_pattern(regex, builder.algebra)
    back = parse(builder, text)
    if back is not regex:
        return False, "print/reparse is not the identity"
    regex_to_smtlib(regex, builder.algebra)
    structural_min(regex)
    structural_max(regex)
    return True, "printed and reparsed %d chars" % len(text)
