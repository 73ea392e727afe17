"""Writer → parser round trips."""

from hypothesis import given, settings

from repro.regex.semantics import Matcher, enumerate_strings
from repro.smtlib.parser import parse_script
from repro.smtlib.writer import formula_to_smtlib, regex_to_smtlib, script_text
from repro.solver import formula as F
from tests.conftest import ALPHABET
from tests.strategies import extended_regexes


def test_regex_roundtrip_random(bitset_builder):
    b = bitset_builder
    matcher = Matcher(b.algebra)

    @settings(max_examples=100, deadline=None)
    @given(extended_regexes(b))
    def check(r):
        text = regex_to_smtlib(r, b.algebra)
        script = parse_script(
            b,
            "(set-logic QF_S)(declare-const x String)"
            "(assert (str.in_re x %s))(check-sat)" % text,
        )
        back = script.assertions[0].regex
        for s in enumerate_strings(ALPHABET, 3):
            assert matcher.matches(back, s) == matcher.matches(r, s)

    check()


def test_regex_roundtrip_exact_for_interval_algebra(bmp_builder):
    from repro.regex import parse as rx_parse

    b = bmp_builder
    # note: R{n,} has no direct SMT-LIB form; it serializes as
    # R{n}.R*, which re-parses to an equivalent but distinct regex —
    # covered by the semantic round-trip test above
    for pattern in [r"(.*\d.*)&~(.*01.*)", "a{2,5}|b+", "[a-f]{3,7}",
                    "~(x)&.{0,9}"]:
        r = rx_parse(b, pattern)
        text = regex_to_smtlib(r, b.algebra)
        script = parse_script(
            b,
            "(set-logic QF_S)(declare-const x String)"
            "(assert (str.in_re x %s))(check-sat)" % text,
        )
        assert script.assertions[0].regex is r


def test_formula_roundtrip(bmp_builder):
    from repro.regex import parse as rx_parse

    b = bmp_builder
    f = F.And((
        F.InRe("s", rx_parse(b, "a+")),
        F.Or((F.LenCmp("s", "<=", 9), F.Not(F.EqConst("s", "aa")))),
        F.Contains("t", "x"),
        F.PrefixOf("p", "t"),
        F.SuffixOf("q", "t"),
        F.LenCmp("t", "!=", 3),
    ))
    text = script_text(f, b.algebra, status="sat")
    script = parse_script(b, text)
    assert script.expected_status() == "sat"
    assert sorted(script.variables) == ["s", "t"]
    # semantic round trip: same models satisfy both
    from repro.solver.smt import SmtSolver

    solver = SmtSolver(b)
    result = solver.solve(script.formula)
    assert result.is_sat
    assert solver.check_model(f, result.model)


def test_loop_serialization_forms(bmp_builder):
    b = bmp_builder
    a = b.char("a")
    assert regex_to_smtlib(b.star(a), b.algebra) == '(re.* (str.to_re "a"))'
    assert regex_to_smtlib(b.plus(a), b.algebra) == '(re.+ (str.to_re "a"))'
    assert regex_to_smtlib(b.opt(a), b.algebra) == '(re.opt (str.to_re "a"))'
    assert "re.loop 2 4" in regex_to_smtlib(b.loop(a, 2, 4), b.algebra)
    assert "re.^ 3" in regex_to_smtlib(b.loop(a, 3, None), b.algebra)


def test_bottom_and_epsilon(bmp_builder):
    b = bmp_builder
    assert regex_to_smtlib(b.empty, b.algebra) == "re.none"
    assert regex_to_smtlib(b.epsilon, b.algebra) == '(str.to_re "")'
    assert regex_to_smtlib(b.dot, b.algebra) == "re.allchar"


def test_written_scripts_solve_to_their_labels(bmp_builder):
    from repro.bench.generators import passwords
    from repro.smtlib.interp import run_script
    from repro.solver import Budget

    b = bmp_builder
    for problem in passwords.generate(b)[:8]:
        text = script_text(problem.formula, b.algebra, status=problem.expected)
        result = run_script(b, text, budget=Budget(500000, 20.0))
        assert result.status == problem.expected, problem.name
        assert result.stats["expected"] == problem.expected
