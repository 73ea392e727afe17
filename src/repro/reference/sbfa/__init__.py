"""Symbolic Boolean finite automata (Section 7) and the classical
correspondences of Section 8 (BFA, SAFA)."""

from repro.reference.sbfa.sbfa import SBFA, delta_plus, from_regex
from repro.reference.sbfa.safa import SAFA
from repro.reference.sbfa import bfa, boolstate, safa

__all__ = ["SBFA", "SAFA", "delta_plus", "from_regex", "bfa", "safa", "boolstate"]
