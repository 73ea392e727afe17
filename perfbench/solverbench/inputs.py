"""Seeded inputs for the three workloads.

Every function here is a pure function of its seed: the same seed gives
byte-identical texts, and the program under test only ever sees those
texts.  The seed varies what can vary without moving the *cost
distribution* of a pass: the order of every pass, which RegExLib
pattern holds which zipf rank (they all cost about the same), and which
suite problems the serving mix borrows.  A benchmark whose medians move
with the seed could not gate a change.
"""

import hashlib
import json
import random
from collections import namedtuple

from repro.alphabet import IntervalAlgebra
from repro.bench.generators import lookarounds
from repro.bench.generators.patterns import PATTERN_NAMES, PATTERNS
from repro.bench.snapshot import suite_key
from repro.bench.suites import all_suites
from repro.bench.warm import DISTINCT_PATTERNS
from repro.errors import SmtLibError
from repro.regex import RegexBuilder, to_pattern
from repro.smtlib.writer import script_text

SMT2 = "smt2"
PATTERN = "pattern"

#: One unit of work as the program receives it: a daemon job kind and
#: its payload text.  ``name`` and ``suite`` are bookkeeping only.
Query = namedtuple("Query", "name suite kind text")

#: Queries in one zipf_store pass, split over the ranks by the zipf profile.
ZIPF_PASS = 600
#: Every third pattern of the warm-store and lookaround sources, from the
#: second on, is left out of the prewarmed snapshot, so every query on
#: it misses the store.
ABSENT_EVERY = 3
#: Pattern jobs in one serve_closed pass ...
SERVE_PATTERN_PASS = 200
#: ... plus this many smt2 jobs drawn from each smt_cold suite.
SERVE_SMT2_PER_SUITE = 2
#: Evenly spaced picks replaced by the next problem of their suite: each
#: takes 10 to 40 ms cold, where every other pick takes under 5 ms.  The
#: daemon's poll loop hides service times up to about 15 ms, so these two
#: alone (one job in 116) would sit at the serving p99 and flip it
#: between 43 and 70 ms as the host's speed drifts.
SERVE_SMT2_SKIP = frozenset(("ab_offset_k40", "all_months_excluded"))


def new_builder():
    """A fresh builder over the default (BMP) domain: the one ``repro
    solve``, ``repro check`` and the daemon's workers use."""
    return RegexBuilder(IntervalAlgebra())


def shuffled(items, *seed_parts):
    """A copy of ``items`` in an order seeded by ``seed_parts``.  String
    seeds hash through SHA-512, so orders do not depend on
    ``PYTHONHASHSEED``."""
    order = list(items)
    random.Random("/".join(str(part) for part in seed_parts)).shuffle(order)
    return order


def digest(texts):
    """A stable fingerprint of a list of input texts."""
    return hashlib.sha256(json.dumps(list(texts)).encode("utf-8")).hexdigest()


def suite_problems():
    """``(builder, problems, queries)`` for every problem of
    :func:`repro.bench.suites.all_suites`, index-aligned.

    Problems travel as SMT-LIB scripts without a ``:status`` line: the
    label stays with the benchmark.  The lookaround problems have no
    SMT-LIB form (the ``re`` theory has no zero-width assertions) and
    travel as pattern text instead.
    """
    builder = new_builder()
    problems = all_suites(builder)
    queries = []
    for problem in problems:
        try:
            kind, text = SMT2, script_text(problem.formula, builder.algebra)
        except SmtLibError:
            kind = PATTERN
            text = to_pattern(problem.formula.regex, builder.algebra)
        queries.append(Query(problem.name, suite_key(problem), kind, text))
    return builder, problems, queries


def zipf_ranked(seed):
    """The ranked pattern inventory of the zipf generator (rank 0 is the
    most frequent), and the set of its patterns kept out of the store.

    Three sources interleave round-robin, so each holds ranks across the
    whole profile: the warm-store inventory
    (:data:`repro.bench.warm.DISTINCT_PATTERNS`, derivative-heavy), the
    lookaround/anchor patterns of the handwritten suite, and the
    RegExLib patterns.  The seed permutes the RegExLib source only.  The
    absent patterns come from the first two sources, whose order is
    fixed: a miss costs a cold solve plus a capture, so the misses set
    the tail, and a seeded choice of them would move it with the seed.
    """
    builder = new_builder()
    looks = [
        to_pattern(problem.formula.regex, builder.algebra)
        for problem in lookarounds.generate(builder)
    ]
    regexlib = shuffled(
        [PATTERNS[name] for name in PATTERN_NAMES], "regexlib", seed,
    )
    sources = [list(DISTINCT_PATTERNS), looks, regexlib]
    ranked = []
    for i in range(max(len(source) for source in sources)):
        for source in sources:
            if i < len(source) and source[i] not in ranked:
                ranked.append(source[i])
    absent = {
        pattern for source in sources[:2]
        for pattern in source[1::ABSENT_EVERY]
    }
    return ranked, absent


def zipf_counts(ranks, total):
    """Per-rank query counts of one pass: rank ``i`` gets weight
    ``1/(i+1)``.  Exact counts rather than draws, so every pass of every
    seed has the same profile and only the order changes."""
    weights = [1.0 / (i + 1) for i in range(ranks)]
    scale = total / sum(weights)
    return [max(1, round(weight * scale)) for weight in weights]


def zipf_stream(ranked, counts):
    """One pass's patterns, each rank repeated by its count (unordered)."""
    return [ranked[i] for i, count in enumerate(counts) for _ in range(count)]


def serve_smt2(queries):
    """The smt2 share of the serving mix: :data:`SERVE_SMT2_PER_SUITE`
    evenly spaced problems from every suite, each in
    :data:`SERVE_SMT2_SKIP` replaced by the next one.  The pick is the
    same for every seed (the seed places them in the stream): suite
    problems differ in cost by two orders of magnitude, so a seeded pick
    of a few would move the serving tail with the seed."""
    by_suite = {}
    for query in queries:
        if query.kind == SMT2:
            by_suite.setdefault(query.suite, []).append(query)
    picked = []
    for suite in sorted(by_suite):
        members = by_suite[suite]
        step = len(members) / SERVE_SMT2_PER_SUITE
        for i in range(SERVE_SMT2_PER_SUITE):
            at = int(i * step)
            while members[at].name in SERVE_SMT2_SKIP:
                at += 1
            picked.append(members[at])
    return picked
