"""Theorem 7.3 measured on the product engine: reachable atoms vs the
``#(R)+3`` bound.

For every pattern of the RegExLib library, counts the atoms of the
derivative states the condtree engine reaches (the first nodes under
their ``|``/``&``/``~`` layer; see :func:`repro.verify.metamorphic.
reachable_atoms`) against the loop-expanded bound; the ratio table
goes to ``benchmarks/out/state_counts.txt``.
"""

from repro.bench.generators.patterns import PATTERN_NAMES, PATTERNS
from repro.derivatives.condtree import DerivativeEngine
from repro.regex import parse
from repro.verify.metamorphic import expanded_pred_count, reachable_atoms

from conftest import write_artifact, write_json_artifact


def test_state_counts_on_regexlib(benchmark, builder):
    regexes = {
        name: parse(builder, PATTERNS[name]) for name in PATTERN_NAMES
    }

    def count_all():
        engine = DerivativeEngine(builder)
        return {
            name: len(reachable_atoms(engine, r)) for name, r in regexes.items()
        }

    counts = benchmark.pedantic(count_all, rounds=1, iterations=1)
    lines = ["%-16s %8s %8s %8s" % ("pattern", "atoms", "bound", "ratio")]
    cells = {}
    worst = 0.0
    for name in PATTERN_NAMES:
        atoms = counts[name]
        bound = expanded_pred_count(regexes[name]) + 3
        assert atoms <= bound, name
        ratio = atoms / bound
        worst = max(worst, ratio)
        lines.append("%-16s %8d %8d %8.2f" % (name, atoms, bound, ratio))
        cells[name] = {"atoms": atoms, "bound": bound, "ratio": ratio}
    lines.append("total atoms: %d" % sum(counts.values()))
    lines.append("worst ratio: %.2f (1.00 would saturate Theorem 7.3)" % worst)
    text = "\n".join(lines)
    print("\n" + text)
    write_artifact("state_counts.txt", text)
    write_json_artifact("state_counts.json",
                        {"patterns": cells, "worst_ratio": worst})
