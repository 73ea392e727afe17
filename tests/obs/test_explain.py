"""Verdict provenance: recorder, certificates, the independent
checker, and the adversarial cases — every mutation of a valid
certificate (dropped rows, widened minterms, flipped nullability,
spliced successors, escaped states, future schema versions) must be
rejected, and valid certificates must survive a JSON round trip."""

import copy
import json

import pytest

from repro.obs.explain import (
    CERT_SCHEMA_VERSION, CertificateError, Explanation, SmtExplanation,
    certificate_from_json, certificate_to_json, check_certificate,
)
from repro.reference.rules import PropagationEngine, explain_witness
from repro.regex import parse
from repro.solver import Budget, RegexSolver
from repro.solver.smt import SmtSolver
from repro.visualize import render_explanation


def solve_explained(builder, pattern, fuel=100000):
    solver = RegexSolver(builder, explain=True)
    return solver.is_satisfiable(parse(builder, pattern), Budget(fuel=fuel))


def certificate_of(builder, pattern, fuel=100000):
    result = solve_explained(builder, pattern, fuel)
    return result.explanation.certificate()


# -- recording ----------------------------------------------------------------


def test_default_off_records_nothing(ascii_builder):
    solver = RegexSolver(ascii_builder)
    result = solver.is_satisfiable(parse(ascii_builder, "a|b"))
    assert result.explanation is None
    assert "explanation" not in result.to_dict()


def test_sat_explanation_and_certificate(ascii_builder):
    result = solve_explained(ascii_builder, "ab*c")
    explanation = result.explanation
    assert result.is_sat
    assert explanation.kind == "sat"
    assert explanation.witness == result.witness
    # path steps concatenate to the witness and end in a nullable state
    assert "".join(s[2] for s in explanation.steps) == result.witness
    assert explanation.steps[-1][3].nullable
    assert explanation.check().ok
    assert explanation.checked is True
    assert "certificate checked: yes" in explanation.summary()


def test_unsat_explanation_and_certificate(ascii_builder):
    result = solve_explained(ascii_builder, "(ab)*&b.*")
    explanation = result.explanation
    assert result.is_unsat
    assert explanation.kind == "unsat"
    assert explanation.closure_size >= 1
    # the root is in the closure and no closure state is nullable
    assert explanation.root in explanation.states
    assert not any(s.nullable for s in explanation.states)
    assert explanation.check().ok


def test_unknown_explanation_has_no_certificate(ascii_builder):
    solver = RegexSolver(ascii_builder, explain=True)
    pattern = "~(.*a.{30})&~(.*b.{30})&(a|b){40}"
    result = solver.is_satisfiable(
        parse(ascii_builder, pattern), Budget(fuel=3)
    )
    explanation = result.explanation
    assert result.is_unknown
    assert explanation.kind == "unknown"
    assert not explanation.certifiable()
    with pytest.raises(CertificateError):
        explanation.certificate()
    assert not explanation.check().ok


def test_bitset_algebra_certificates(bitset_builder):
    sat = solve_explained(bitset_builder, "(a|b)*1")
    unsat = solve_explained(bitset_builder, "a+&b+")
    assert sat.explanation.check().ok
    assert unsat.explanation.check().ok
    # the algebra travels inside the certificate
    assert sat.explanation.certificate()["algebra"]["kind"] == "bitset"


def test_solver_result_to_dict_summary(ascii_builder):
    result = solve_explained(ascii_builder, "(ab)*&b.*")
    result.explanation.check()
    summary = result.to_dict()["explanation"]
    assert summary["kind"] == "unsat"
    assert summary["certificate_checked"] is True
    # summary only: the full proof stays behind .certificate()
    assert "states" not in summary


def test_derived_queries_carry_explanations(ascii_builder):
    solver = RegexSolver(ascii_builder, explain=True)
    empty = solver.is_empty(parse(ascii_builder, "a&b"))
    assert empty.is_sat  # "is empty" holds
    assert empty.explanation.kind == "unsat"
    assert empty.explanation.check().ok


# -- the independent checker, adversarially -----------------------------------


@pytest.fixture
def unsat_cert(ascii_builder):
    """An unsat certificate with >= 2 states and >= 2 rows somewhere,
    so that row/state mutations are observable."""
    cert = certificate_of(ascii_builder, "ab&a[cd]")
    assert check_certificate(cert).ok
    # the mutations below need structure to chew on
    assert len(cert["states"]) >= 2
    assert sum(len(s["rows"]) for s in cert["states"]) >= 3
    return copy.deepcopy(cert)


@pytest.fixture
def sat_cert(ascii_builder):
    cert = certificate_of(ascii_builder, "ab")
    assert check_certificate(cert).ok
    assert len(cert["path"]) == 2
    return copy.deepcopy(cert)


def test_reject_dropped_row(unsat_cert):
    victim = max(unsat_cert["states"], key=lambda s: len(s["rows"]))
    victim["rows"].pop()
    outcome = check_certificate(unsat_cert)
    assert not outcome.ok
    assert any("cover" in e or "derivative rules" in e
               for e in outcome.errors)


def test_reject_widened_minterm(unsat_cert):
    # widen one guard of a multi-row state so it overlaps a sibling
    victim = max(unsat_cert["states"], key=lambda s: len(s["rows"]))
    assert len(victim["rows"]) >= 2
    victim["rows"][-1]["guard"] = [[0, 127]]
    outcome = check_certificate(unsat_cert)
    assert not outcome.ok
    assert any("overlaps an earlier row" in e or "derivative rules" in e
               for e in outcome.errors)


@pytest.fixture
def ab_cert(ascii_builder):
    cert = certificate_of(ascii_builder, "(a|b)*a&(a|b)*b")
    assert cert["kind"] == "unsat" and check_certificate(cert).ok
    return copy.deepcopy(cert)


def test_accept_row_split_into_same_targets(ab_cert):
    # the same transition function in more rows is the same proof: a
    # fresh engine may split a state's derivative tree differently
    state, i = next(
        (state, i) for state in ab_cert["states"]
        for i, row in enumerate(state["rows"])
        if row["guard"][0][1] > row["guard"][0][0]
    )
    row = state["rows"][i]
    lo, hi = row["guard"][0]
    state["rows"][i:i + 1] = [
        {"guard": [[lo, lo]], "targets": list(row["targets"])},
        {"guard": [[lo + 1, hi]] + row["guard"][1:],
         "targets": list(row["targets"])},
    ]
    assert check_certificate(ab_cert).ok


def test_reject_swapped_row_targets(ab_cert):
    state = next(
        state for state in ab_cert["states"]
        if len({tuple(row["targets"]) for row in state["rows"]}) >= 2
    )
    first = state["rows"][0]
    second = next(row for row in state["rows"][1:]
                  if row["targets"] != first["targets"])
    first["targets"], second["targets"] = second["targets"], first["targets"]
    outcome = check_certificate(ab_cert)
    assert not outcome.ok
    assert any("derivative rules" in e for e in outcome.errors)


def test_reject_flipped_nullability(unsat_cert):
    unsat_cert["states"][0]["nullable"] = True
    outcome = check_certificate(unsat_cert)
    assert not outcome.ok
    assert any("nullable" in e for e in outcome.errors)


def test_reject_dropped_state(unsat_cert):
    # remove a non-root state that some row still targets
    targeted = {t for s in unsat_cert["states"]
                for row in s["rows"] for t in row["targets"]}
    victim = next(uid for uid in targeted if uid != unsat_cert["root"])
    unsat_cert["states"] = [
        s for s in unsat_cert["states"] if s["uid"] != victim
    ]
    outcome = check_certificate(unsat_cert)
    assert not outcome.ok
    assert any("escapes the closure" in e for e in outcome.errors)


def test_reject_spliced_successor(sat_cert):
    # point the first path step at the final state: the suffix check
    # (every remaining suffix accepted by its state) must catch it
    sat_cert["path"][0]["successor"] = sat_cert["path"][-1]["successor"]
    outcome = check_certificate(sat_cert)
    assert not outcome.ok
    assert any("suffix" in e or "expected" in e for e in outcome.errors)


def test_reject_wrong_witness(sat_cert):
    sat_cert["witness"] = "zz"
    outcome = check_certificate(sat_cert)
    assert not outcome.ok


def test_reject_char_outside_guard(sat_cert):
    sat_cert["path"][0]["char"] = ord("z")
    outcome = check_certificate(sat_cert)
    assert not outcome.ok


def test_reject_future_schema_version(unsat_cert):
    unsat_cert["v"] = CERT_SCHEMA_VERSION + 1
    outcome = check_certificate(unsat_cert)
    assert not outcome.ok
    assert any("schema" in e for e in outcome.errors)


def test_reject_garbage_without_raising():
    assert not check_certificate(None).ok
    assert not check_certificate({}).ok
    assert not check_certificate({"v": 1, "kind": "sat"}).ok
    assert not check_certificate(
        {"v": 1, "kind": "unsat", "algebra": {"kind": "nope"},
         "root": 0, "states": []}
    ).ok


def test_json_round_trip(ascii_builder):
    for pattern in ("ab*c", "(ab)*&b.*", "ab&a[cd]"):
        cert = certificate_of(ascii_builder, pattern)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert check_certificate(back).ok
        # the round trip is loss-free, keys and all
        assert json.loads(certificate_to_json(back)) == json.loads(text)


# -- the rules engine and the SMT layer ---------------------------------------


def test_rules_engine_explanations(ascii_builder):
    engine = PropagationEngine(RegexSolver(ascii_builder))
    sat = engine.solve(parse(ascii_builder, "a(b|c)d"), explain=True)
    assert sat.is_sat
    assert sat.explanation is not None
    assert sat.explanation.check().ok
    unsat = engine.solve(parse(ascii_builder, "a+&b+"), explain=True)
    assert unsat.is_unsat
    assert unsat.explanation.check().ok


def test_rules_engine_default_off(ascii_builder):
    engine = PropagationEngine(RegexSolver(ascii_builder))
    assert engine.solve(parse(ascii_builder, "ab")).explanation is None


def test_explain_witness_rebuilds_path(ascii_builder):
    solver = RegexSolver(ascii_builder)
    root = parse(ascii_builder, "a(bc)+d")
    explanation = explain_witness(solver, root, "abcd")
    assert explanation.kind == "sat"
    assert explanation.witness == "abcd"
    assert explanation.check().ok


def test_smt_explanations(ascii_builder):
    from repro.smtlib.interp import run_script

    smt = SmtSolver(
        ascii_builder, RegexSolver(ascii_builder, explain=True)
    )
    sat = run_script(
        ascii_builder,
        '(declare-fun x () String)'
        '(assert (str.in_re x (re.+ (str.to_re "ab"))))(check-sat)',
        solver=smt,
    )
    assert sat.is_sat
    assert isinstance(sat.explanation, SmtExplanation)
    assert sat.explanation.certifiable()
    assert sat.explanation.check().ok
    assert all(b["explanation"].kind == "sat"
               for b in sat.explanation.branches)

    unsat = run_script(
        ascii_builder,
        '(declare-fun x () String)'
        '(assert (str.in_re x (str.to_re "a")))'
        '(assert (str.in_re x (str.to_re "b")))(check-sat)',
        solver=smt,
    )
    assert unsat.is_unsat
    assert unsat.explanation.check().ok
    assert all(b["explanation"].kind == "unsat"
               for b in unsat.explanation.branches)


# -- rendering ----------------------------------------------------------------


def test_render_sat_explanation(ascii_builder):
    explanation = solve_explained(ascii_builder, "ab*c").explanation
    dot = render_explanation(explanation)
    assert dot.startswith("digraph")
    assert "color=red" in dot          # the witness path is highlighted
    assert "doublecircle" in dot       # the final state is accepting


def test_render_unsat_explanation(ascii_builder):
    explanation = solve_explained(ascii_builder, "ab&a[cd]").explanation
    dot = render_explanation(explanation)
    assert dot.startswith("digraph")
    assert "bot" in dot                # bottom rows prove the cover
    assert "doublecircle" not in dot   # nothing in the closure accepts


def test_render_unknown_explanation(ascii_builder):
    solver = RegexSolver(ascii_builder, explain=True)
    result = solver.is_satisfiable(
        parse(ascii_builder, "~(.*a.{30})&(a|b){40}"), Budget(fuel=3)
    )
    dot = render_explanation(result.explanation)
    assert dot.startswith("digraph") and "note" in dot


def test_narratives_mention_the_verdict(ascii_builder):
    sat = solve_explained(ascii_builder, "ab").explanation
    unsat = solve_explained(ascii_builder, "a&b").explanation
    assert "sat" in sat.narrative()
    assert "unsat" in unsat.narrative()


def test_deferred_unsat_proofs_check_after_compaction(ascii_builder):
    # every query boundary compacts the engine state; each pattern's
    # second solve meets its root already proved dead (the bot rule),
    # and no unsat closure is walked until every query has compacted
    from repro.solver.lifecycle import CompactionPolicy

    solver = RegexSolver(
        ascii_builder, explain=True,
        compaction=CompactionPolicy(max_entries=1, min_retained=0),
    )
    results = []
    for pattern in ("(ab)*&b.*", "ab*c", "ab&a[cd]", "(a|b){3,5}&.{4}",
                    "(a|b)*a&(a|b)*b", "~(a*)", "a{3}&a{5}", "a+&b+"):
        for _ in range(2):
            results.append(solver.is_satisfiable(
                parse(ascii_builder, pattern), Budget(fuel=100000)
            ))
    assert {result.status for result in results} == {"sat", "unsat"}
    assert any(result.is_unsat and result.stats["explored"] == 0
               for result in results)
    for result in results:
        assert result.explanation.check().ok
