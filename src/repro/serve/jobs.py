"""Job descriptions for the batched solving layer.

A :class:`Job` is a self-contained, *picklable* unit of work: the
formula travels as SMT-LIB text (or a concrete regex pattern), never as
live AST nodes — regexes are hash-consed per :class:`~repro.regex.
builder.RegexBuilder` and cannot cross a process boundary.  Workers
re-parse the payload against their own builder, which is exactly what
keeps every worker's interning table, derivative memos and persistent
graph ``G`` private to it.

Job kinds:

* ``smt2`` — payload is a full SMT-LIB script; solved by the worker's
  persistent :class:`~repro.solver.smt.SmtSolver`.
* ``pattern`` — payload is an extended-regex pattern; satisfiability
  checked by the worker's persistent :class:`~repro.solver.engine.
  RegexSolver`.
* ``crash`` — fault-injection hook for the crash-isolation tests and
  the CI smoke: payload ``"kill"`` hard-kills the worker process,
  ``"hang"`` blocks it until it is reaped.
"""

import json
import os

KINDS = ("smt2", "pattern", "crash")


class Job:
    """One unit of batch work; see the module docstring for kinds."""

    __slots__ = ("name", "kind", "payload", "expected")

    def __init__(self, name, kind, payload, expected=None):
        if kind not in KINDS:
            raise ValueError("unknown job kind %r" % (kind,))
        self.name = name
        self.kind = kind
        self.payload = payload
        self.expected = expected    # "sat" / "unsat" / None

    def to_task(self, index, attempts=0):
        """The plain-dict form shipped over the worker task queue."""
        return {
            "index": index,
            "name": self.name,
            "kind": self.kind,
            "payload": self.payload,
            "expected": self.expected,
            "attempts": attempts,
        }

    def __repr__(self):
        return "Job(%s, %s)" % (self.name, self.kind)


def jobs_from_directory(path):
    """One ``smt2`` job per ``.smt2`` file under ``path`` (sorted, so
    batch order — and therefore result order — is deterministic)."""
    jobs = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".smt2"):
                continue
            full = os.path.join(dirpath, filename)
            with open(full, "r", encoding="utf-8") as handle:
                text = handle.read()
            jobs.append(Job(os.path.relpath(full, path), "smt2", text))
    return jobs


def jobs_from_files(paths):
    """One ``smt2`` job per named file, in the order given."""
    jobs = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            jobs.append(Job(path, "smt2", handle.read()))
    return jobs


def jobs_from_jsonl(path):
    """Jobs from a JSONL file, one JSON object per non-empty line.

    Recognized keys: ``name`` (optional; defaults to the line number),
    ``expected`` (optional ``"sat"``/``"unsat"``), and exactly one of
    ``smt2`` (script text), ``pattern`` (regex pattern), or ``crash``
    (``"kill"``/``"hang"``, the fault-injection hook).
    """
    jobs = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    "%s:%d: bad JSON: %s" % (path, lineno, exc)
                ) from None
            if not isinstance(entry, dict):
                raise ValueError(
                    "%s:%d: expected a JSON object" % (path, lineno)
                )
            present = [k for k in ("smt2", "pattern", "crash") if k in entry]
            if len(present) != 1:
                raise ValueError(
                    "%s:%d: need exactly one of smt2/pattern/crash"
                    % (path, lineno)
                )
            kind = present[0]
            jobs.append(Job(
                entry.get("name", "line-%d" % lineno),
                kind,
                entry[kind],
                expected=entry.get("expected"),
            ))
    return jobs


def load_jobs(path):
    """Jobs from a path: a directory of ``.smt2`` files, a ``.jsonl``
    job file, or a single ``.smt2`` file."""
    if os.path.isdir(path):
        return jobs_from_directory(path)
    if path.endswith(".jsonl"):
        return jobs_from_jsonl(path)
    return jobs_from_files([path])
