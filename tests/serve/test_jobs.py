"""Job construction and loading."""

import json

import pytest

from repro.serve import Job, jobs_from_directory, jobs_from_jsonl, load_jobs


def test_job_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Job("x", "nope", "a")


def test_to_task_is_plain_dict():
    task = Job("n", "pattern", "a|b", expected="sat").to_task(7)
    assert task == {
        "index": 7, "name": "n", "kind": "pattern", "payload": "a|b",
        "expected": "sat", "attempts": 0,
    }


def test_jobs_from_directory_sorted(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.smt2").write_text("(check-sat)")
    (tmp_path / "a.smt2").write_text("(check-sat)")
    (tmp_path / "sub" / "c.smt2").write_text("(check-sat)")
    (tmp_path / "notes.txt").write_text("ignored")
    jobs = jobs_from_directory(str(tmp_path))
    assert [j.name for j in jobs] == ["a.smt2", "b.smt2", "sub/c.smt2"]
    assert all(j.kind == "smt2" for j in jobs)


def test_jobs_from_jsonl(tmp_path):
    path = tmp_path / "batch.jsonl"
    path.write_text(
        json.dumps({"name": "p", "pattern": "a*", "expected": "sat"}) + "\n"
        + "\n"
        + json.dumps({"crash": "kill"}) + "\n"
    )
    jobs = jobs_from_jsonl(str(path))
    assert [(j.name, j.kind) for j in jobs] == [("p", "pattern"),
                                               ("line-3", "crash")]
    assert jobs[0].expected == "sat"


def test_jobs_from_jsonl_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"pattern": "a", "smt2": "x"}\n')
    with pytest.raises(ValueError, match="exactly one"):
        jobs_from_jsonl(str(path))
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="bad JSON"):
        jobs_from_jsonl(str(path))


def test_load_jobs_dispatch(tmp_path):
    (tmp_path / "a.smt2").write_text("(check-sat)")
    assert len(load_jobs(str(tmp_path))) == 1
    jsonl = tmp_path / "j.jsonl"
    jsonl.write_text('{"pattern": "a"}\n')
    assert load_jobs(str(jsonl))[0].kind == "pattern"
    assert load_jobs(str(tmp_path / "a.smt2"))[0].kind == "smt2"
