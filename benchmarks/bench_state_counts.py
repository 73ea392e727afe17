"""Theorem 7.3 measured: SBFA state counts vs the ``#(R)+3`` bound.

Builds SBFA(R) for every regex appearing in the handwritten suites and
for the RegExLib pattern library, recording state count vs bound; the
ratio table goes to ``benchmarks/out/state_counts.txt``.
"""

from repro.bench.generators.patterns import PATTERN_NAMES, PATTERNS
from repro.reference.sbfa.sbfa import from_regex
from repro.regex import parse

from conftest import write_artifact, write_json_artifact


def expanded_pred_count(regex):
    from repro.regex.ast import INF, LOOP, PRED

    if regex.kind == PRED:
        return 1
    total = sum(expanded_pred_count(c) for c in regex.children or ())
    if regex.kind == LOOP:
        factor = (regex.lo + 1) if regex.hi is INF else max(regex.hi, 1)
        total *= factor
    return total


def test_state_counts_on_regexlib(benchmark, builder):
    regexes = {
        name: parse(builder, PATTERNS[name]) for name in PATTERN_NAMES
    }

    def build_all():
        return {name: from_regex(builder, r) for name, r in regexes.items()}

    sbfas = benchmark.pedantic(build_all, rounds=1, iterations=1)
    lines = ["%-16s %8s %8s %8s" % ("pattern", "states", "bound", "ratio")]
    cells = {}
    worst = 0.0
    for name in PATTERN_NAMES:
        states = sbfas[name].state_count
        bound = expanded_pred_count(regexes[name]) + 3
        assert states <= bound, name
        ratio = states / bound
        worst = max(worst, ratio)
        lines.append("%-16s %8d %8d %8.2f" % (name, states, bound, ratio))
        cells[name] = {"states": states, "bound": bound, "ratio": ratio}
    lines.append("worst ratio: %.2f (1.00 would saturate Theorem 7.3)" % worst)
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("state_counts.txt", text)
    write_json_artifact("state_counts.json",
                        {"patterns": cells, "worst_ratio": worst})
