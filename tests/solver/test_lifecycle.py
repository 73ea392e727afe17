"""Engine-state lifecycle: accounting, compaction, pin/hold semantics.

The load-bearing property is *verdict parity*: a solver that compacts
aggressively between queries must answer every query exactly as an
unbounded solver does, because compaction only retires cache entries —
never semantic facts about live regexes — and retired facts are
recomputed on demand.
"""

import itertools

import pytest

from repro.alphabet.bdd import BDDAlgebra
from repro.alphabet.intervals import IntervalAlgebra
from repro.matcher.dfa_cache import LazyDfa
from repro.matcher.matcher import RegexMatcher
from repro.regex.builder import RegexBuilder
from repro.regex.parser import parse
from repro.solver import formula as F
from repro.solver.baselines import MintermSolver
from repro.solver.engine import RegexSolver
from repro.solver.lifecycle import CompactionPolicy, EngineState
from repro.solver.smt import SmtSolver


PATTERNS = [
    "a*b",
    "~(a*)&[a-c]{2,5}",
    "(ab|cd)*ef",
    "a{3,7}&~(b)",
    "[x-z]+y[x-z]+",
    "(a|b)*&~((a|b)*aa(a|b)*)",
    "abc|abd|abe",
    "~([a-m]*)&[a-z]{4}",
    ".*foo.*&~(.*bar.*)",
    "(0|1)*00(0|1)*",
]


@pytest.fixture
def builder():
    return RegexBuilder(IntervalAlgebra())


def fresh_solver(compaction=None):
    return RegexSolver(RegexBuilder(IntervalAlgebra()), compaction=compaction)


class TestAccounting:
    def test_cache_sizes_keys(self, builder):
        solver = RegexSolver(builder)
        solver.is_satisfiable(parse(builder, "a*b"))
        sizes = solver.state.cache_sizes()
        for key in (
            "regex_nodes", "deriv_trees", "deriv_memo", "meld_memo",
            "restrict_memo", "graph_vertices", "graph_edges",
            "entries_total", "approx_bytes",
        ):
            assert key in sizes
            assert sizes[key] >= 0
        assert sizes["regex_nodes"] == len(builder._table)
        assert sizes["entries_total"] > 0
        assert sizes["approx_bytes"] > 0

    def test_gauges_published_at_query_boundary(self, builder):
        solver = RegexSolver(builder)
        solver.is_satisfiable(parse(builder, "a*b"))
        snapshot = solver.obs.metrics.snapshot()
        assert snapshot["cache.regex_nodes"] == len(builder._table)
        assert snapshot["cache.entries_total"] > 0

    def test_dfa_rows_accounted(self, builder):
        solver = RegexSolver(builder)
        state = solver.state
        dfa = LazyDfa(builder, engine=solver.engine, state=state)
        regex = parse(builder, "(ab)*c")
        for _ in dfa.run(regex, "ababc"):
            pass
        assert state.cache_sizes()["dfa_rows"] == len(dfa._rows) > 0


class TestCompaction:
    def test_compact_retires_dead_queries(self, builder):
        solver = RegexSolver(builder)
        for pattern in PATTERNS:
            solver.is_satisfiable(parse(builder, pattern))
        before = solver.state.cache_sizes()["entries_total"]
        keep = parse(builder, PATTERNS[0])
        report = solver.state.compact(keep=(keep,))
        after = solver.state.cache_sizes()["entries_total"]
        assert report["retired"] > 0
        assert after == before - report["retired"]

    def test_reset_drops_to_primordials(self, builder):
        solver = RegexSolver(builder)
        for pattern in PATTERNS[:3]:
            solver.is_satisfiable(parse(builder, pattern))
        solver.state.reset()
        # empty/epsilon/dot/full plus nothing else in the builder
        assert len(builder._table) == 4
        assert len(solver.engine._deriv_memo) == 0
        # only primordial vertices (e.g. .*) may remain in the graph
        primordials = {builder.empty, builder.epsilon, builder.dot, builder.full}
        assert set(solver.graph.vertices) <= primordials

    def test_keep_root_survives_with_closure(self, builder):
        solver = RegexSolver(builder)
        regex = parse(builder, "~(a*)&[a-c]{2,5}")
        solver.is_satisfiable(regex)
        solver.state.compact(keep=(regex,))
        assert regex in solver.graph
        # the kept subgraph is successor-closed
        for vertex in list(solver.graph.vertices):
            for succ in solver.graph.successors(vertex):
                assert succ in solver.graph

    def test_graph_facts_survive_compaction(self, builder):
        solver = RegexSolver(builder)
        regex = parse(builder, "a&b")  # unsat: explored to a dead end
        assert solver.is_satisfiable(regex).is_unsat
        assert solver.graph.is_dead(regex)
        solver.state.compact(keep=(regex,))
        assert solver.graph.is_dead(regex)

    def test_interning_stays_canonical_after_compaction(self, builder):
        solver = RegexSolver(builder)
        regex = parse(builder, "(ab|cd)*ef")
        solver.is_satisfiable(regex)
        solver.state.compact(keep=(regex,))
        assert parse(builder, "(ab|cd)*ef") is regex

    def test_stale_nodes_stay_sound(self, builder):
        solver = RegexSolver(builder)
        stale = parse(builder, "a{3,7}&~(b)")
        verdict = solver.is_satisfiable(stale).status
        solver.state.compact(keep=())  # retire it
        # the caller-held node still answers identically (it merely
        # re-interns its successors under fresh uids)
        assert solver.is_satisfiable(stale).status == verdict

    def test_dfa_rows_compact_and_rebuild(self, builder):
        engine_state = EngineState(builder)
        dfa = LazyDfa(builder, state=engine_state)
        regex = parse(builder, "(ab)*c")
        matcher = RegexMatcher(builder, regex, dfa=dfa, state=engine_state)
        assert matcher.fullmatch("ababc") is True
        engine_state.compact(keep=())  # regex survives via the pin
        assert matcher.fullmatch("ababc") is True
        assert matcher.fullmatch("abab") is False


class TestVerdictParity:
    def test_solver_parity_under_aggressive_compaction(self):
        plain = fresh_solver()
        compacting = fresh_solver(
            compaction=CompactionPolicy(max_entries=1, min_retained=0)
        )
        for pattern in PATTERNS:
            expected = plain.is_satisfiable(
                parse(plain.builder, pattern)
            )
            actual = compacting.is_satisfiable(
                parse(compacting.builder, pattern)
            )
            assert actual.status == expected.status, pattern
            if expected.witness is not None:
                # witnesses may differ; both must be members
                assert compacting.membership(
                    actual.witness, parse(compacting.builder, pattern)
                )

    def test_repeated_queries_stay_correct(self):
        compacting = fresh_solver(
            compaction=CompactionPolicy(max_entries=1, min_retained=0)
        )
        builder = compacting.builder
        for _ in range(3):
            for pattern in PATTERNS:
                result = compacting.is_satisfiable(parse(builder, pattern))
                assert result.status in ("sat", "unsat")

    def test_smt_parity(self):
        def formula(builder):
            x = F.InRe("x", parse(builder, "a+b"))
            y = F.InRe("y", parse(builder, "[a-c]{2}"))
            return F.And([x, F.Or([y, F.Not(y)])])

        plain = SmtSolver(RegexBuilder(IntervalAlgebra()))
        bounded_engine = fresh_solver(
            compaction=CompactionPolicy(max_entries=1, min_retained=0)
        )
        bounded = SmtSolver(bounded_engine.builder, regex_engine=bounded_engine)
        expected = plain.solve(formula(plain.builder))
        actual = bounded.solve(formula(bounded.builder))
        assert actual.status == expected.status == "sat"

    def test_baseline_parity(self):
        plain = MintermSolver(RegexBuilder(IntervalAlgebra()))
        bounded = MintermSolver(
            RegexBuilder(IntervalAlgebra()),
            compaction=CompactionPolicy(max_entries=1, min_retained=0),
        )
        for pattern in PATTERNS[:5]:
            expected = plain.is_satisfiable(parse(plain.builder, pattern))
            actual = bounded.is_satisfiable(parse(bounded.builder, pattern))
            assert actual.status == expected.status, pattern


class TestPolicy:
    def test_bounded_growth_across_queries(self):
        policy = CompactionPolicy(max_entries=500, min_retained=0)
        solver = fresh_solver(compaction=policy)
        builder = solver.builder
        peaks = []
        for i in range(40):
            pattern = PATTERNS[i % len(PATTERNS)]
            solver.is_satisfiable(parse(builder, "%s|x{%d}" % (pattern, i + 1)))
            peaks.append(solver.state.cache_sizes()["entries_total"])
        # post-query sizes stay near the watermark instead of growing
        # linearly with the number of distinct queries
        assert max(peaks[20:]) <= max(peaks[:20]) + policy.max_entries

    def test_no_policy_means_no_compaction(self, builder):
        solver = RegexSolver(builder)
        for pattern in PATTERNS:
            solver.is_satisfiable(parse(builder, pattern))
        sizes = solver.state.cache_sizes()
        assert sizes["deriv_memo"] > 0
        assert solver.obs.metrics.snapshot().get("cache.compactions", 0) == 0

    def test_compaction_counter_increments(self):
        solver = fresh_solver(
            compaction=CompactionPolicy(max_entries=1, min_retained=0)
        )
        solver.is_satisfiable(parse(solver.builder, "a*b&~(ab)"))
        assert solver.obs.metrics.snapshot()["cache.compactions"] >= 1


class TestAlgebraMemo:
    """The character algebra's operation caches are a managed cache
    like the rest: accounted, dropped by compaction, bounded by the
    policy, and dropping them changes no answer."""

    def test_cache_sizes_report_algebra_memo(self, builder):
        solver = RegexSolver(builder)
        solver.is_satisfiable(parse(builder, "~(a*)&[a-c]{2,5}"))
        sizes = solver.state.cache_sizes()
        assert sizes["algebra_memo"] == builder.algebra.cache_entries() > 0
        assert sizes["entries_total"] == sum(sizes[key] for key in (
            "regex_nodes", "deriv_trees", "deriv_memo", "meld_memo",
            "restrict_memo", "graph_vertices", "algebra_memo",
        ))

    @pytest.mark.parametrize("drop", ["compact", "reset"])
    def test_compaction_empties_algebra_memo(self, builder, drop):
        solver = RegexSolver(builder)
        for pattern in PATTERNS:
            solver.is_satisfiable(parse(builder, pattern))
        keep = parse(builder, PATTERNS[0])
        entries = builder.algebra.cache_entries()
        assert entries > 0
        if drop == "compact":
            report = solver.state.compact(keep=(keep,))
        else:
            report = solver.state.reset()
        assert report["algebra_memo"] == entries
        assert solver.state.cache_sizes()["algebra_memo"] == 0

    def test_policy_bounds_algebra_memo_with_parity(self):
        letters = "acegikmoqsuwy"
        templates = (
            "[{0}-{1}]+&~(.*{0}.*)", "[{0}-{1}]{{2}}&[{1}-z]{{2}}",
            "({0}|[^{0}-{1}])*{1}", "~([{0}-{1}]*)&[a-{1}]{{1,3}}",
        )
        patterns = [
            template.format(lo, hi)
            for lo, hi in itertools.combinations(letters, 2)
            for template in templates
        ]
        plain = fresh_solver()
        policy = CompactionPolicy(max_entries=300, min_retained=0)
        bounded = fresh_solver(compaction=policy)
        peak = 0
        for pattern in patterns:
            expected = plain.is_satisfiable(parse(plain.builder, pattern))
            actual = bounded.is_satisfiable(parse(bounded.builder, pattern))
            assert (actual.status, actual.witness) == (
                expected.status, expected.witness), pattern
            peak = max(peak, bounded.state.cache_sizes()["algebra_memo"])
        assert peak <= policy.max_entries
        assert plain.builder.algebra.cache_entries() > 2 * policy.max_entries

    def test_bdd_clear_caches_keeps_nodes(self):
        builder = RegexBuilder(BDDAlgebra(8))
        algebra = builder.algebra
        regex = parse(builder, "~(a*)&[a-c]{2,5}")
        expected = RegexSolver(builder).is_satisfiable(regex)
        nodes = dict(algebra._nodes)
        assert algebra.cache_entries() > 0
        algebra.clear_caches()
        assert algebra.cache_entries() == 0
        assert algebra._nodes == nodes
        # a fresh engine recomputes every derivative through the cleared
        # caches and reaches the same canonical nodes and answer
        actual = RegexSolver(builder).is_satisfiable(regex)
        assert (actual.status, actual.witness) == (
            expected.status, expected.witness)
        assert algebra._nodes == nodes


class TestPinAndHold:
    def test_pin_survives_reset(self, builder):
        state = EngineState(builder)
        regex = parse(builder, "(ab|cd)*ef")
        state.pin(regex)
        state.reset()
        assert parse(builder, "(ab|cd)*ef") is regex
        state.unpin(regex)
        state.reset()
        assert regex.uid not in {n.uid for n in builder._table.values()}

    def test_hold_blocks_compaction(self, builder):
        state = EngineState(builder, policy=CompactionPolicy(max_entries=0))
        parse(builder, "(ab|cd)*ef")
        with state.hold():
            assert state.end_query() is None
            with pytest.raises(RuntimeError):
                state.compact()
        # released: the policy fires again
        assert state.end_query() is not None

    def test_hold_is_reentrant(self, builder):
        state = EngineState(builder)
        with state.hold():
            with state.hold():
                assert state.held
            assert state.held
        assert not state.held
