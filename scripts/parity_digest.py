"""Print every answer and work count of the benchmark's inputs, one JSON
line each, so two checkouts can be compared by diffing their output.

    PYTHONHASHSEED=1 python scripts/parity_digest.py > digest.jsonl

It solves each of the ``smt_cold`` problems on a fresh stack, then, for
seeds 1 and 7, prewarms the ``zipf_store`` snapshot and solves every
query of one pass against it, each on a fresh stack.  The inputs come
from ``perfbench/solverbench/inputs.py``, the solve budget from its
oracle, and the program from the ``src/`` beside this script.  A line
holds the verdict, the witness or model and the per-query counts that
``perfbench`` reports; each seed's snapshot line holds its sha256.

Answers follow set iteration order, so the digest is only comparable
under one ``PYTHONHASHSEED``: the script refuses to run without one.
To digest another checkout, copy this file into its ``scripts/``.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from repro.regex import parse  # noqa: E402
from repro.smtlib.parser import parse_script  # noqa: E402
from repro.solver.engine import RegexSolver  # noqa: E402
from repro.solver.smt import SmtSolver  # noqa: E402
from repro.solver.store import SolverStore  # noqa: E402

from solverbench import inputs  # noqa: E402
from solverbench.oracle import budget  # noqa: E402

#: The zipf_store seeds digested.
ZIPF_SEEDS = (1, 7)


def counts(builder, solver):
    """One fresh stack's work counts, named as ``perfbench`` names its
    per-layer counts."""
    snapshot = solver.obs.metrics.snapshot()
    engine = solver.engine
    return {
        "solver.explored": snapshot.get("solver.explored", 0),
        "solver.case_splits": snapshot.get("smt.case_splits", 0),
        "solver.store.hits": snapshot.get("store.hits", 0),
        "solver.store.misses": snapshot.get("store.misses", 0),
        "alphabet.ops": builder.algebra.op_count,
        "alphabet.sat_checks": builder.algebra.sat_check_count,
        "regex.interned": builder.interned_count,
        "derivatives.deriv_memo_misses": engine.deriv_memo_misses,
        "derivatives.meld_memo_misses": engine.meld_memo_misses,
        "derivatives.meld_memo_hits": engine.meld_memo_hits,
    }


def answer(result):
    out = {"status": result.status}
    if result.witness is not None:
        out["witness"] = result.witness
    if result.model is not None:
        out["model"] = {str(var): value for var, value in result.model.items()}
    return out


def smt_cold_lines():
    _builder, _problems, queries = inputs.suite_problems()
    for query in queries:
        builder = inputs.new_builder()
        if query.kind == inputs.SMT2:
            formula = parse_script(builder, query.text).formula
            smt = SmtSolver(builder)
            result = smt.solve(formula, budget())
            solver = smt.engine
        else:
            solver = RegexSolver(builder)
            regex = parse(builder, query.text)
            result = solver.is_satisfiable(regex, budget())
        line = {"workload": "smt_cold", "name": query.name}
        line.update(answer(result))
        line["counts"] = counts(builder, solver)
        yield line


def zipf_store_lines(seed):
    ranked, absent = inputs.zipf_ranked(seed)
    capture = SolverStore()
    for pattern in ranked:
        if pattern not in absent:
            builder = inputs.new_builder()
            RegexSolver(builder, store=capture).is_satisfiable(
                parse(builder, pattern), budget()
            )
    snapshot = capture.to_dict()
    text = json.dumps(snapshot, sort_keys=True).encode("utf-8")
    yield {"workload": "zipf_store", "seed": seed, "snapshot_sha256":
           hashlib.sha256(text).hexdigest()}
    stream = inputs.zipf_stream(
        ranked, inputs.zipf_counts(len(ranked), inputs.ZIPF_PASS)
    )
    for pattern in inputs.shuffled(stream, "zipf_store", seed, 0):
        builder = inputs.new_builder()
        solver = RegexSolver(builder, store=SolverStore().from_dict(snapshot))
        result = solver.is_satisfiable(parse(builder, pattern), budget())
        line = {"workload": "zipf_store", "seed": seed, "pattern": pattern}
        line.update(answer(result))
        line["counts"] = counts(builder, solver)
        yield line


def main():
    if not os.environ.get("PYTHONHASHSEED"):
        print("parity_digest: set PYTHONHASHSEED; answers depend on it",
              file=sys.stderr)
        return 2
    print(json.dumps({"hashseed": os.environ["PYTHONHASHSEED"]}))
    for line in smt_cold_lines():
        print(json.dumps(line, sort_keys=True))
    for seed in ZIPF_SEEDS:
        for line in zipf_store_lines(seed):
            print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
