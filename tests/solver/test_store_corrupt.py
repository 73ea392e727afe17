"""Corrupt warm-store snapshots degrade to a cold solve.

A snapshot is untrusted input.  A malformed shape fails ``from_dict``
with ValueError, which the CLI and the pool workers turn into a clean
cold start; a well-shaped fragment whose program, rows or guard table
do not decode (a cyclic or out-of-range slot, a guard index out of
range, a guard entry that is empty, unsorted, adjacent or out of the
domain, a state's rows that are not a list) decodes that state to
None, and the query solves cold.  Either way the answer is the cold
verdict and witness: never a hang, a traceback or a dead worker.  The
CLI runs in a subprocess under a wall bound, so a regression to the
old hang fails here instead of stalling the suite.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.alphabet import IntervalAlgebra
from repro.regex import RegexBuilder, parse
from repro.serve import Job, solve_batch
from repro.solver import Budget, RegexSolver
from repro.solver.store import LazyFragment, SolverStore

PATTERN = "(a|b)*abb"
BUDGET = {"fuel": 100000, "seconds": 5.0}
WALL_S = 30


def _snapshot():
    """A captured snapshot of ``PATTERN`` over the CLI's algebra."""
    builder = RegexBuilder(IntervalAlgebra())
    store = SolverStore()
    RegexSolver(builder, store=store).is_satisfiable(
        parse(builder, PATTERN), Budget(**BUDGET)
    )
    return store.to_dict()


def _cyclic(snapshot):
    snapshot["fragments"][0]["code"][0] = ["l", 0, 0, None]


def _forward_operand(snapshot):
    code = snapshot["fragments"][0]["code"]
    code[0] = ["n", len(code) - 1]


def _slot_out_of_range(snapshot):
    fragment = snapshot["fragments"][0]
    fragment["slots"][0] = len(fragment["code"])


def _negative_slot(snapshot):
    snapshot["fragments"][0]["slots"][0] = -1


def _target_out_of_range(snapshot):
    fragment = snapshot["fragments"][0]
    fragment["rows"]["0"][0][1] = [len(fragment["slots"])]


def _row_guard(fragment):
    """A row of state 0 whose guard no predicate op shares, so that
    corrupting its table entry leaves state 0's node decodable."""
    shared = {op[1] for op in fragment["code"] if op[0] == "p"}
    return next(row for row in fragment["rows"]["0"] if row[0] not in shared)


def _set_row_guard(snapshot, ranges):
    fragment = snapshot["fragments"][0]
    fragment["guards"][_row_guard(fragment)[0]] = ranges


def _empty_guard(snapshot):
    _set_row_guard(snapshot, [[5, 2]])


def _blank_guard(snapshot):
    _set_row_guard(snapshot, [])


def _unsorted_guard(snapshot):
    _set_row_guard(snapshot, [[98, 98], [97, 97]])


def _adjacent_guard(snapshot):
    _set_row_guard(snapshot, [[97, 97], [98, 98]])


def _guard_index_out_of_range(snapshot):
    fragment = snapshot["fragments"][0]
    _row_guard(fragment)[0] = len(fragment["guards"])


def _negative_guard_index(snapshot):
    _row_guard(snapshot["fragments"][0])[0] = -1


def _set_first_guard(snapshot, ranges):
    # state 0's first row reads ``a``, whose table entry the predicate
    # op for ``a`` shares: the state's program no longer decodes
    fragment = snapshot["fragments"][0]
    fragment["guards"][fragment["rows"]["0"][0][0]] = ranges


def _below_domain_guard(snapshot):
    _set_first_guard(snapshot, [[-5, -1]])


def _negative_low_guard(snapshot):
    _set_first_guard(snapshot, [[-5, 97]])


def _row_not_a_list(snapshot):
    snapshot["fragments"][0]["rows"]["0"] = {}


def _null_fragments(snapshot):
    snapshot["fragments"] = None


def _list_algebra(snapshot):
    fragment = snapshot["fragments"][0]
    fragment["algebra"] = [fragment["algebra"]]


def _list_rows(snapshot):
    fragment = snapshot["fragments"][0]
    fragment["rows"] = list(fragment["rows"].values())


def _null_guards(snapshot):
    snapshot["fragments"][0]["guards"] = None


def _text_only(snapshot):
    fragment = snapshot["fragments"][0]
    del fragment["code"], fragment["slots"]
    fragment["states"] = [PATTERN]


#: fragments that load but do not decode: the lookup hits, the state
#: solves cold
UNDECODABLE = [_cyclic, _forward_operand, _slot_out_of_range,
               _negative_slot, _target_out_of_range, _empty_guard,
               _blank_guard, _unsorted_guard, _adjacent_guard,
               _guard_index_out_of_range, _negative_guard_index,
               _below_domain_guard, _negative_low_guard, _row_not_a_list]
#: snapshots whose shape ``from_dict`` refuses: a clean cold start
MISSHAPEN = [_null_fragments, _list_algebra, _list_rows, _null_guards,
             _text_only]


def _write(tmp_path, corrupt):
    snapshot = _snapshot()
    corrupt(snapshot)
    path = tmp_path / "store.json"
    path.write_text(json.dumps(snapshot), encoding="utf-8")
    return str(path)


def _cli_check(*argv):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    return subprocess.run(
        [sys.executable, "-m", "repro"] + list(argv) + ["check", PATTERN],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        universal_newlines=True, timeout=WALL_S,
    )


@pytest.fixture(scope="module")
def cold_lines():
    """The cold run's verdict and witness lines."""
    done = _cli_check()
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[:2]


# -- decoding ----------------------------------------------------------------


@pytest.mark.parametrize("corrupt", [
    _cyclic, _forward_operand, _slot_out_of_range, _negative_slot,
    _below_domain_guard, _negative_low_guard,
])
def test_malformed_program_decodes_to_none(corrupt):
    snapshot = _snapshot()
    corrupt(snapshot)
    lazy = LazyFragment(RegexBuilder(IntervalAlgebra()),
                        snapshot["fragments"][0])
    assert lazy.node(0) is None


@pytest.mark.parametrize("corrupt", [
    _target_out_of_range, _empty_guard, _blank_guard, _unsorted_guard,
    _adjacent_guard, _guard_index_out_of_range, _negative_guard_index,
    _row_not_a_list,
])
def test_malformed_row_decodes_to_none(corrupt):
    snapshot = _snapshot()
    corrupt(snapshot)
    lazy = LazyFragment(RegexBuilder(IntervalAlgebra()),
                        snapshot["fragments"][0])
    assert lazy.node(0) is not None
    assert lazy.rows_for(0) is None


@pytest.mark.parametrize("corrupt", MISSHAPEN)
def test_misshapen_snapshot_is_a_value_error(corrupt):
    snapshot = _snapshot()
    corrupt(snapshot)
    store = SolverStore()
    with pytest.raises(ValueError):
        store.from_dict(snapshot)
    assert len(store) == 0


# -- the CLI -----------------------------------------------------------------


@pytest.mark.parametrize("corrupt", UNDECODABLE)
def test_cli_solves_an_undecodable_fragment_cold(tmp_path, cold_lines,
                                                 corrupt):
    done = _cli_check("--store", _write(tmp_path, corrupt))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == cold_lines
    assert "(1 hits, 0 misses)" in done.stdout  # the fragment was read
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("corrupt", MISSHAPEN)
def test_cli_starts_cold_on_a_misshapen_snapshot(tmp_path, cold_lines,
                                                 corrupt):
    done = _cli_check("--store", _write(tmp_path, corrupt))
    assert done.returncode == 0, done.stderr
    assert "store: starting cold" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.splitlines()[:2] == cold_lines


# -- the pool ----------------------------------------------------------------


@pytest.mark.parametrize("corrupt", [
    _cyclic, _empty_guard, _below_domain_guard, _negative_low_guard,
    _null_fragments, _list_algebra, _list_rows, _null_guards,
])
def test_batch_answers_every_job_cold(tmp_path, corrupt):
    report = solve_batch(
        [Job("j%d" % i, "pattern", PATTERN) for i in range(2)],
        workers=1, store_path=_write(tmp_path, corrupt), **BUDGET
    )
    assert [r.status for r in report.results] == ["sat", "sat"]
    assert [r.witness for r in report.results] == ["abb", "abb"]
