"""The warm store: canonical keys, fragments, persistence, and the
compaction-pinning invariant.

The adversarial compaction tests exercise the stale-uid resurrection
bug the store's root provider exists to prevent: without pinning,
``EngineState.compact`` would evict a node the store still keys into,
a later ``parse`` of the same pattern would re-intern it under a *new*
uid, and the fragment's recorded rows — still referencing the old
node — would silently stop matching (warm hits turning cold, or
worse, rows applied to a node that is no longer the table's canonical
representative).  See DESIGN.md, compaction soundness.
"""

import json

import pytest

from repro.alphabet import BDDAlgebra, IntervalAlgebra
from repro.regex import RegexBuilder, parse, to_pattern
from repro.solver import store as store_module
from repro.solver.engine import RegexSolver
from repro.solver.lifecycle import CompactionPolicy
from repro.solver.store import (
    STORE_SCHEMA_VERSION,
    LazyFragment,
    SolverStore,
    build_fragment,
    canonical_pattern,
)


@pytest.fixture
def builder():
    return RegexBuilder(IntervalAlgebra(127))


# -- canonical keys ---------------------------------------------------------


def test_canonical_key_is_spelling_independent(builder):
    a = parse(builder, "(a|b)*abb")
    b = parse(builder, "(b|a)*abb")
    assert a is b
    key = canonical_pattern(builder, a)
    assert key is not None
    assert parse(builder, key) is a
    # print of the reparse equals the key: the fixpoint
    assert to_pattern(parse(builder, key), builder.algebra) == key


def test_canonical_key_none_for_unprintable_pred():
    bdd = RegexBuilder(BDDAlgebra(bits=8))
    # BDD predicates have no pattern rendering; the key must be None
    # (uncacheable), never a wrong-but-parseable spelling
    regex = bdd.pred(bdd.algebra.from_char("a"))
    assert canonical_pattern(bdd, regex) is None


# -- fragments --------------------------------------------------------------


def _solve_capturing(store, pattern, max_char=127):
    builder = RegexBuilder(IntervalAlgebra(max_char))
    solver = RegexSolver(builder, store=store)
    result = solver.is_satisfiable(parse(builder, pattern))
    return builder, solver, result


def test_fragment_roundtrips_through_fresh_builder():
    store = SolverStore()
    _solve_capturing(store, "(a|b)*abb")
    [fragment] = store.export_new()
    # the key is the *canonical* spelling ((a|b) interns to the class
    # [ab]), not whatever the query happened to type
    assert fragment["key"] == "[ab]*abb"
    # decode against a brand-new builder: same states, same rows
    fresh = RegexBuilder(IntervalAlgebra(127))
    lazy = LazyFragment(fresh, fragment)
    rows = {
        lazy.node(int(idx)): lazy.rows_for(int(idx))
        for idx in fragment["rows"]
    }
    assert None not in rows and None not in rows.values()
    root = parse(fresh, fragment["key"])
    assert root in rows
    for node, node_rows in rows.items():
        for guard, targets in node_rows:
            assert fresh.algebra.is_sat(guard) or not targets
            for target in targets:
                assert target.uid is not None


def test_fragment_too_many_states_is_not_built():
    store = SolverStore()
    builder, solver, _ = _solve_capturing(store, "(a|b)*abb")
    regex = parse(builder, "[ab]*abb")
    key = canonical_pattern(builder, regex)
    rows = dict(solver._warm_rows.values())
    assert rows, "capture left no rows to rebuild from"
    assert build_fragment(builder, regex, key, rows, max_states=1) is None
    assert build_fragment(builder, regex, key, rows) is not None


def test_capture_stores_only_a_program_that_replays(monkeypatch):
    # the program is the one encoding of the states: capture replays
    # it on the capturing builder, and a program that lands on other
    # nodes (here two states' slots swapped) is never stored
    store = SolverStore()
    builder, solver, _ = _solve_capturing(store, "(a|b)*abb")
    regex = parse(builder, "[ab]*abb")
    rows = dict(solver._warm_rows.values())
    encode = store_module._encode_states

    def swapped(states, guards):
        ops, slots = encode(states, guards)
        slots[0], slots[1] = slots[1], slots[0]
        return ops, slots

    monkeypatch.setattr(store_module, "_encode_states", swapped)
    assert build_fragment(builder, regex, "[ab]*abb", rows) is None
    fresh = SolverStore()
    _, _, result = _solve_capturing(fresh, "(a|b)*abb")
    assert result.is_sat
    assert len(fresh) == 0


def test_fragment_guard_table_is_distinct_and_indexed():
    # each distinct guard sits once in the table, and every row and
    # predicate op names an entry of it
    store = SolverStore()
    for pattern in ("(a|b)*abb", "~(a*)&(a|b)+", "[a-c]x|[b-d]y"):
        _solve_capturing(store, pattern)
    for fragment in store.export_new():
        guards = fragment["guards"]
        assert guards
        assert len({json.dumps(g) for g in guards}) == len(guards)
        refs = [ref for rows in fragment["rows"].values()
                for ref, _targets in rows]
        refs += [op[1] for op in fragment["code"] if op[0] == "p"]
        assert refs
        assert all(isinstance(r, int) and 0 <= r < len(guards)
                   for r in refs)


def test_fragment_json_safe():
    store = SolverStore()
    _solve_capturing(store, "(ab){2,4}c?")
    [fragment] = store.export_new()
    json.dumps(fragment)  # must not raise


# -- the store collection ----------------------------------------------------


def test_lookup_counts_hits_and_misses():
    store = SolverStore()
    assert store.lookup("alg", "a*") is None
    assert store.misses == 1
    store.insert({"key": "a*", "algebra": "alg", "states": ["a*"],
                  "rows": {"0": []}})
    assert store.lookup("alg", "a*") is not None
    assert store.hits == 1


def test_insert_is_first_write_wins():
    store = SolverStore()
    first = {"key": "k", "algebra": "alg", "states": ["k"], "rows": {}}
    second = {"key": "k", "algebra": "alg", "states": ["other"], "rows": {}}
    assert store.insert(first)
    assert not store.insert(second)
    assert store.lookup("alg", "k")["states"] == ["k"]


def _fragment(key):
    """A minimal well-shaped fragment: one epsilon state, no rows."""
    return {"key": key, "algebra": "alg", "guards": [], "rows": {},
            "code": [["e"]], "slots": [0]}


def test_export_new_excludes_loaded(tmp_path):
    store = SolverStore()
    store.insert(_fragment("a"))
    path = store.save(str(tmp_path / "store.json"))
    loaded = SolverStore()
    loaded.load(path)
    assert len(loaded) == 1
    assert loaded.export_new() == []
    loaded.insert(_fragment("b"))
    assert [f["key"] for f in loaded.export_new()] == ["b"]


def test_load_missing_file_is_cold_start(tmp_path):
    store = SolverStore()
    store.load(str(tmp_path / "nope.json"))
    assert len(store) == 0


def test_schema_mismatch_is_clean_cold_start(tmp_path):
    # any other schema version (older *or* newer) loads as an empty
    # store: starting cold is always correct, serving mis-keyed
    # fragments is not.  from_dict stays strict for programmatic use.
    for version in (1, 2, 3, 999):
        path = tmp_path / ("schema-%d.json" % version)
        path.write_text(json.dumps({"v": version, "fragments": []}))
        store = SolverStore().load(str(path))
        assert len(store) == 0
    with pytest.raises(ValueError):
        SolverStore().from_dict({"v": 999, "fragments": []})


def test_v1_snapshot_with_stale_pattern_key_is_ignored(tmp_path):
    # adversarial: a v1-era snapshot carrying a fragment keyed under a
    # pattern text whose meaning changed at v2 (``\b`` outside a class
    # is now a word boundary, not an error/backspace).  The version
    # gate must discard the file wholesale — before fragment keys are
    # even looked at — and the lookaround query then runs cold and
    # still gets the right verdict.
    path = tmp_path / "store.json"
    path.write_text(json.dumps({
        "v": 1,
        "fragments": [{
            "algebra": "interval:127",
            "key": "\\ba",
            "states": [["?", []]],
            "rows": {},
        }],
    }))
    store = SolverStore().load(str(path))
    assert len(store) == 0
    builder, _, result = _solve_capturing(store, r"\ba")
    assert result.is_sat
    from repro.regex.semantics import matches
    assert matches(builder.algebra, parse(builder, r"\ba"), result.witness)


def test_malformed_fragment_rejected():
    with pytest.raises(ValueError):
        SolverStore().from_dict(
            {"v": STORE_SCHEMA_VERSION, "fragments": [{"nonsense": 1}]}
        )
    with pytest.raises(ValueError):
        SolverStore().from_dict([1, 2, 3])


# -- engine integration ------------------------------------------------------


def test_warm_solve_matches_cold_verdict_and_witness():
    store = SolverStore()
    patterns = ["(a|b)*abb", "~(a*)&(a|b)+", "(ab){2,6}c?",
                "a{2,4}&~(.*b.*)", "[]", "()"]
    cold = [_solve_capturing(store, p)[2] for p in patterns]
    warm = [_solve_capturing(store, p)[2] for p in patterns]
    for c, w in zip(cold, warm):
        assert c.status == w.status
        assert c.witness == w.witness
    assert store.hits > 0


def test_store_hits_reported_in_stats():
    store = SolverStore()
    _solve_capturing(store, "(a|b)*abb")
    _, _, result = _solve_capturing(store, "(a|b)*abb")
    assert result.stats["store_hits"] == 1
    assert result.stats["store_misses"] == 0
    assert result.stats["lifetime"]["store_hits"] == 1


def test_store_metrics_counters():
    store = SolverStore()
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, store=store)
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    snapshot = solver.obs.metrics.snapshot()
    assert snapshot.get("store.misses") == 1
    # second query hits the in-process warm rows via the store
    assert snapshot.get("store.hits") == 1


# -- compaction vs pinning (the adversarial satellite) -----------------------


def _churn(solver, builder, rng_range):
    """Interleave garbage queries that inflate the caches enough to
    trip the compaction watermark repeatedly."""
    for i in rng_range:
        noise = parse(
            builder, "(a|b){%d,%d}(c|d)*%s" % (i % 3, i % 3 + 2, "e" * (i % 4))
        )
        solver.is_satisfiable(noise)


def test_compaction_keeps_store_entries_warm():
    store = SolverStore()
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(
        builder, store=store,
        compaction=CompactionPolicy(max_entries=60, min_retained=1),
    )
    hot = "(a|b)*abb"
    first = solver.is_satisfiable(parse(builder, hot))
    compactions_before = solver.state.obs.metrics.snapshot().get(
        "cache.compactions", 0
    )
    _churn(solver, builder, range(12))
    compactions = solver.state.obs.metrics.snapshot().get(
        "cache.compactions", 0
    )
    assert compactions > compactions_before, "churn never tripped compaction"
    # the invariant: every warm-row node survived compaction as the
    # canonical interned node for its pattern — no stale-uid clone
    for node, _rows in solver._warm_rows.values():
        text = to_pattern(node, builder.algebra)
        assert parse(builder, text) is node, (
            "stale-uid resurrection: %r re-interned to a different node "
            "after compaction" % text
        )
    again = solver.is_satisfiable(parse(builder, hot))
    assert again.status == first.status
    assert again.witness == first.witness
    assert again.stats["store_hits"] == 1, (
        "compaction turned a warm pattern cold"
    )


def test_compaction_without_store_still_retires_entries():
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(
        builder, compaction=CompactionPolicy(max_entries=60, min_retained=1),
    )
    _churn(solver, builder, range(12))
    retired = solver.state.obs.metrics.snapshot().get(
        "cache.retired_entries", 0
    )
    assert retired > 0


def test_store_roots_pin_exactly_the_warm_rows():
    store = SolverStore()
    builder = RegexBuilder(IntervalAlgebra(127))
    solver = RegexSolver(builder, store=store)
    solver.is_satisfiable(parse(builder, "(a|b)*abb"))
    roots = solver._store_roots()
    assert roots, "capture left no warm rows to pin"
    nodes = []
    for uid, (node, rows) in solver._warm_rows.items():
        assert uid == node.uid
        nodes.append(node)
        for _guard, targets in rows:
            nodes.extend(targets)
    assert set(r.uid for r in roots) == set(n.uid for n in nodes)
