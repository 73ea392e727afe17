#!/usr/bin/env python
"""Differential-verification CI gate.

Replays every frozen reproducer in ``tests/corpus/`` (a corpus
regression is an immediate failure), runs a seeded differential sweep
of real-world anchor/lookaround patterns against Python ``re`` and one
of the reference semantics against classical Brzozowski matching on
long strings, then runs a seeded, wall-clock-budgeted fuzz campaign
that solves random EREs with all four engines, diffs their verdicts,
validates every sat witness, checks the metamorphic identities (the
``atom-bound`` identity among them: Theorem 7.3 on the condtree engine
for every clean ``B(RE)`` case), and cross-checks leftmost search (and
a random lookaround stream) against Python's ``re``.  Any
disagreement is shrunk to a minimal reproducer and printed.

Exit status: 0 when the corpus replays clean, both sweeps agree, and
the campaign found no unexplained disagreement (one whose shrunk
pattern is not already frozen in the corpus); 1 otherwise.

Solver output follows set iteration order, and so the string hash
seed.  Unless ``PYTHONHASHSEED`` names one, the script re-executes
itself under ``PYTHONHASHSEED`` = ``--seed``, and the campaign line
prints the hash seed, so every finding reruns exactly.

Examples::

    PYTHONPATH=src python scripts/verify_ci.py --seed 0 --budget 60 --jobs 2
    PYTHONPATH=src python scripts/verify_ci.py --budget 5 --jobs 1 \\
        --max-cases 100
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.verify import load_all, replay_entry, run_campaign

#: Real-world anchor/lookaround shapes the solver must stay truthful
#: on: password rules, word boundaries, line/string anchors.  Each is
#: run differentially against Python ``re`` on seeded texts plus a
#: solver-soundness check (see ``lookaround_mismatch``).
LOOKAROUND_PATTERNS = [
    "^ab$",
    "^a+b*$",
    "(?=a)a",
    "(?!ab)a.",
    "a(?<=a)b",
    "ab(?<!a)",
    r"\ba\b",
    r"\bab\b a",
    r"\Bb",
    r"\Aab\Z",
    "^(?=.*a)(?=.*b).{2,4}$",
    "^(?!.*ba).*$",
    "a$|^b",
    r"(?=a*b)a+",
    r"(?:(?!aa).)*",
]


def lookaround_sweep(seed, fuel, seconds):
    """Deterministic differential sweep of the curated patterns.

    Returns the number of failures (each printed as one line).
    """
    import random

    from repro.verify.campaign import (
        _fresh_builder, _sample_texts, lookaround_mismatch,
    )

    rng = random.Random(seed)
    failures = 0
    for pattern in LOOKAROUND_PATTERNS:
        builder = _fresh_builder("ab01")
        texts = _sample_texts(rng, "ab01")
        mismatch = lookaround_mismatch(
            builder, pattern, texts, fuel, seconds
        )
        if mismatch is not None:
            failures += 1
            print("lookaround %-28s FAIL %s" % (
                pattern, json.dumps(mismatch, sort_keys=True),
            ))
    print("lookarounds: %d patterns, %d failures" % (
        len(LOOKAROUND_PATTERNS), failures,
    ))
    return failures


#: Loop-bound and closure shapes for the semantics sweep: counted
#: repetition, nullable and nested loop bodies, and loops under
#: complement and intersection, where the reference matcher's
#: position-set closure does its work.
SEMANTICS_PATTERNS = [
    "(a|ab){3,9}b*",
    "((ab)?){4,12}",
    "(a?b?){7,}",
    "(a{2,3}){5,9}",
    "((a|b){2}|0){10,40}",
    "((a|b)*0){2,}1?",
    "~((a|b){5,})",
    "(.{3}&(a.*)){2,6}",
    "(~(.*00.*)1){3,}",
    ".*a.{8}",
    "(.*a.{4})&(.{4}b.*)",
    "~(.*01.*)&.{20,60}",
]

#: Wall-clock budget of the semantics sweep's random stream, seconds.
SEMANTICS_BUDGET_S = 3.0

#: Chunks for long texts near the patterns' languages (uniform random
#: text over four letters almost never matches a loop-heavy pattern).
_CHUNKS = ["a", "b", "0", "1", "ab", "ba", "aab", "01", "00"]


def _long_texts(rng, count=6):
    texts = []
    for k in range(count):
        n = rng.randint(20, 80)
        if k % 2:
            letters = rng.sample("ab01", rng.randint(1, 4))
            texts.append("".join(rng.choice(letters) for _ in range(n)))
        else:
            text = ""
            while len(text) < n:
                text += rng.choice(_CHUNKS)
            texts.append(text)
    return texts


def semantics_sweep(seed, budget=SEMANTICS_BUDGET_S):
    """Seeded differential of :class:`repro.regex.semantics.Matcher`
    against classical Brzozowski matching on texts of 20-80 characters:
    every curated pattern, then random EREs until ``budget`` seconds
    have passed.  Returns the number of disagreements (each printed as
    one line)."""
    import random

    from repro.derivatives import brzozowski
    from repro.regex import parse, to_pattern
    from repro.regex.semantics import Matcher
    from repro.verify.campaign import RegexGen, _fresh_builder

    rng = random.Random(seed)
    builder = _fresh_builder("ab01")
    gen = RegexGen(rng, builder)
    curated = [parse(builder, p) for p in SEMANTICS_PATTERNS]
    started = time.monotonic()
    regexes = texts = accepted = failures = 0
    while regexes < len(curated) \
            or time.monotonic() - started < budget:
        if regexes < len(curated):
            regex = curated[regexes]
        else:
            regex = gen.regex(rng.randint(2, 4))
        regexes += 1
        matcher = Matcher(builder.algebra)
        for text in _long_texts(rng):
            texts += 1
            ours = matcher.matches(regex, text)
            theirs = brzozowski.matches(builder, regex, text)
            accepted += ours
            if ours != theirs:
                failures += 1
                print("semantics %s FAIL %s" % (
                    to_pattern(regex), json.dumps({
                        "text": text, "semantics": ours,
                        "brzozowski": theirs,
                    }, sort_keys=True),
                ))
    print("semantics: %d regexes, %d texts (%d accepted), %d failures" % (
        regexes, texts, accepted, failures,
    ))
    return failures


def build_parser():
    parser = argparse.ArgumentParser(
        prog="verify_ci",
        description="cross-engine differential verification gate",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign base seed (worker i uses seed+i; "
                             "default 0)")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="campaign wall-clock budget in seconds "
                             "(default 60)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2; 1 = in-process)")
    parser.add_argument("--max-cases", type=int, default=None,
                        help="stop each worker after N cases (for quick "
                             "smoke runs)")
    parser.add_argument("--skip-corpus", action="store_true",
                        help="skip the corpus replay phase")
    parser.add_argument("--report", metavar="FILE", default=None,
                        help="write the campaign report as JSON to FILE")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    status = 0

    if not args.skip_corpus:
        entries = load_all()
        failures = 0
        for entry in entries:
            ok, detail = replay_entry(entry)
            marker = "ok" if ok else "FAIL"
            print("corpus %-40s %s  %s" % (entry["id"], marker, detail))
            if not ok:
                failures += 1
        print("corpus: %d entries, %d failures" % (len(entries), failures))
        if failures:
            status = 1

    from repro.verify.campaign import CASE_FUEL, CASE_SECONDS

    if lookaround_sweep(args.seed, CASE_FUEL, CASE_SECONDS):
        status = 1
    if semantics_sweep(args.seed):
        status = 1

    started = time.monotonic()
    report = run_campaign(
        seed=args.seed, budget_seconds=args.budget, jobs=args.jobs,
        max_cases=args.max_cases,
    )
    elapsed = time.monotonic() - started
    print(
        "campaign: %d cases in %.1fs (seed=%d hashseed=%s jobs=%d), "
        "%d findings, %d unexplained" % (
            report["cases"], elapsed, report["seed"],
            os.environ.get("PYTHONHASHSEED", "random"), report["jobs"],
            len(report["findings"]), report["unexplained"],
        )
    )
    for finding in report["findings"]:
        print("  [%s] seed=%d case=%d" % (
            finding["stream"], finding["seed"], finding["case"],
        ))
        print("    pattern: %s" % finding["pattern"])
        print("    shrunk:  %s" % finding["shrunk"])
        for detail in finding["details"]:
            print("    %s" % json.dumps(detail, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote report to %s" % args.report)
    if report["unexplained"]:
        status = 1
    return status


def pin_hash_seed(seed):
    """Re-execute this script under ``PYTHONHASHSEED`` = ``seed``
    unless a hash seed is set already."""
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        os.environ["PYTHONHASHSEED"] = str(seed % (1 << 32))
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    pin_hash_seed(build_parser().parse_args().seed)
    sys.exit(main())
