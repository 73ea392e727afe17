"""repro.verify — cross-engine differential verification.

The solver stack has four independent deciders for the same question
(dZ3's lazy derivative search and the eager-automata, Antimirov and
minterm baselines), a reference semantics, and a matcher.  This
package turns that redundancy into an oracle:

* :mod:`repro.verify.oracle` — solve each constraint with every
  engine, diff the verdicts, and validate every sat witness against
  the reference semantics and the matcher;
* :mod:`repro.verify.metamorphic` — identities that need no second
  engine: the derivative expansion of sat, reversal invariance,
  Boolean-algebra laws, length-analysis consistency, and Theorem 7.3's
  atom bound;
* :mod:`repro.verify.shrink` — a delta-debugging reducer that turns a
  failing regex into a minimal reproducer;
* :mod:`repro.verify.corpus` — frozen reproducers under
  ``tests/corpus/``, replayed by the tier-1 suite forever after;
* :mod:`repro.verify.campaign` — the seeded, budgeted, pool-parallel
  fuzz driver behind ``repro verify`` and ``scripts/verify_ci.py``.
"""

from repro.verify.oracle import CrossEngineOracle, Disagreement
from repro.verify.metamorphic import check_identities
from repro.verify.shrink import shrink
from repro.verify.corpus import (
    default_corpus_dir, freeze, load_all, replay_entry,
)
from repro.verify.campaign import RegexGen, run_campaign

__all__ = [
    "CrossEngineOracle",
    "Disagreement",
    "check_identities",
    "shrink",
    "freeze",
    "load_all",
    "replay_entry",
    "default_corpus_dir",
    "RegexGen",
    "run_campaign",
]
