"""The same seed gives the same inputs and the same counts; another seed
gives other inputs.

Counts are compared within one process: the solver's work depends on
the string hash seed, which ``perfbench/run.py`` pins to the workload
seed for every run.
"""

import pytest

from solverbench.inputs import digest
from solverbench.workloads import (
    WORKLOADS, Entry, count_metrics, e2e_metrics,
)

#: The counts that must repeat exactly, per workload.  serve_closed's
#: solver work happens in worker processes and is not counted here.
REPEATED = {
    "smt_cold": ("solver.explored", "alphabet.ops", "solved_ratio"),
    "zipf_store": ("solver.explored", "alphabet.ops",
                   "solver.store.hit_ratio", "solved_ratio"),
    "serve_closed": ("solved_ratio",),
}


def _one_pass(name, seed):
    """Input fingerprint and counts of one pass, from a fresh set-up."""
    workload = WORKLOADS[name](seed)
    try:
        workload.setup()
        window = workload.measure(0.0, Entry())
        metrics = count_metrics(window)
        metrics.update(e2e_metrics(window, [0.0], workload.child_pids()))
        texts = workload.pass_texts(0)
    finally:
        workload.close()
    assert window.passes == 1 and window.failed == 0
    return digest(texts), {key: metrics[key][0] for key in REPEATED[name]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_counts(name):
    first = _one_pass(name, 5)
    second = _one_pass(name, 5)
    assert first == second


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_changes_the_inputs(name):
    texts = {}
    for seed in (5, 6):
        workload = WORKLOADS[name](seed)
        workload.generate()
        texts[seed] = digest(workload.pass_texts(0))
    assert texts[5] != texts[6]
