"""The pool's streaming core (what the daemon drives) and the batch
edge cases: empty batches, duplicate names, degraded priority."""

import time

import pytest

from repro.serve import Job, WorkerPool, solve_batch

BUDGET = {"fuel": 100000, "seconds": 5.0}
_POLL = 0.02


def pump_until(pool, want, timeout=60.0):
    """Drive pump()/take_completed() until ``want`` results arrive."""
    results = []
    deadline = time.monotonic() + timeout
    while len(results) < want:
        assert time.monotonic() < deadline, (
            "only %d/%d results before timeout" % (len(results), want)
        )
        if not pool.pump():
            time.sleep(_POLL)
        results.extend(pool.take_completed())
    return results


class TestStreamingCore:
    def test_submit_pump_take_across_waves(self):
        pool = WorkerPool(workers=2, **BUDGET)
        pool.start()
        try:
            # wave 1
            pool.submit(Job("w1-a", "pattern", "a*b").to_task(0))
            pool.submit(Job("w1-b", "pattern", "a&b").to_task(1))
            first = pump_until(pool, 2)
            by_name = {r.name: r for r in first}
            assert by_name["w1-a"].status == "sat"
            assert by_name["w1-b"].status == "unsat"
            # wave 2 on the SAME fleet — workers persisted
            pids_before = set(pool.worker_pids())
            pool.submit(Job("w2-a", "pattern", "(ab){2,4}c").to_task(2))
            second = pump_until(pool, 1)
            assert second[0].status == "sat"
            assert set(pool.worker_pids()) == pids_before
        finally:
            pool.stop()

    def test_take_completed_empties_and_sorts(self):
        pool = WorkerPool(workers=1, **BUDGET)
        pool.start()
        try:
            for i in range(3):
                pool.submit(Job("j%d" % i, "pattern", "a|b").to_task(i))
            results = pump_until(pool, 3)
            assert [r.index for r in results] == sorted(
                r.index for r in results
            )
            assert pool.take_completed() == []
        finally:
            pool.stop()

    def test_degraded_tasks_wait_for_normal_ones(self):
        pool = WorkerPool(workers=1, **BUDGET)
        pool.start()
        try:
            # keep the single worker busy so queues stay inspectable
            pool.submit(Job("busy", "pattern", "(a|b)*abb").to_task(0))
            while pool.inflight == 0:
                if not pool.pump():
                    time.sleep(_POLL)
            pool.submit(Job("deg", "pattern", "a*b").to_task(1),
                        degraded=True)
            pool.submit(Job("norm", "pattern", "a|b").to_task(2))
            assert pool.queued == 2
            # the next dispatched task must be the normal one
            worker = pool._fleet[0]
            task = pool._next_task(worker)
            assert task["name"] == "norm"
            task2 = pool._next_task(worker)
            assert task2["name"] == "deg"
            # put them back so shutdown accounting stays clean
            pool._pending.appendleft(task2)
            pool._pending.appendleft(task)
            pump_until(pool, 3)
        finally:
            pool.stop()

    def test_backlog_properties_track_queue_and_inflight(self):
        pool = WorkerPool(workers=1, **BUDGET)
        pool.start()
        try:
            assert pool.queued == 0 and pool.inflight == 0
            pool.submit(Job("a", "pattern", "(a|b)*abb").to_task(0))
            pool.submit(Job("b", "pattern", "a*b").to_task(1))
            assert pool.backlog == 2
            pump_until(pool, 2)
            assert pool.backlog == 0
        finally:
            pool.stop()

    def test_submit_before_start_raises(self):
        pool = WorkerPool(workers=1, **BUDGET)
        with pytest.raises(RuntimeError):
            pool.submit(Job("x", "pattern", "a").to_task(0))

    def test_double_start_raises(self):
        pool = WorkerPool(workers=1, **BUDGET)
        pool.start()
        try:
            with pytest.raises(RuntimeError):
                pool.start()
        finally:
            pool.stop()

    def test_kill_leaves_no_live_workers(self):
        pool = WorkerPool(workers=2, **BUDGET)
        pool.start()
        pids = pool.worker_pids()
        assert len(pids) == 2
        pool.kill()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_restart_after_stop(self):
        pool = WorkerPool(workers=1, **BUDGET)
        pool.start()
        pool.submit(Job("one", "pattern", "a|b").to_task(0))
        pump_until(pool, 1)
        pool.stop()
        # a stopped pool can fly again (the daemon never does this,
        # but the batch driver reuses pool objects)
        pool.start()
        try:
            pool.submit(Job("two", "pattern", "a&b").to_task(0))
            results = pump_until(pool, 1)
            assert results[0].status == "unsat"
        finally:
            pool.stop()


def _pid_alive(pid):
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True
    return True


class TestBatchEdgeCases:
    def test_empty_batch_returns_empty_report_without_spawning(self):
        import multiprocessing

        before = len(multiprocessing.active_children())
        report = solve_batch([], workers=4, **BUDGET)
        assert report.results == []
        assert report.wall_s == 0.0
        assert report.workers == 4
        assert report.counts == {
            "sat": 0, "unsat": 0, "unknown": 0, "error": 0,
        }
        assert len(multiprocessing.active_children()) == before

    def test_duplicate_job_names_raise_value_error(self):
        jobs = [
            Job("same", "pattern", "a"),
            Job("other", "pattern", "b"),
            Job("same", "pattern", "c"),
        ]
        with pytest.raises(ValueError, match="same"):
            solve_batch(jobs, workers=1, **BUDGET)

    def test_multiple_duplicates_all_reported(self):
        jobs = [
            Job("x", "pattern", "a"), Job("x", "pattern", "b"),
            Job("y", "pattern", "c"), Job("y", "pattern", "d"),
        ]
        with pytest.raises(ValueError) as excinfo:
            solve_batch(jobs, workers=1, **BUDGET)
        assert "x" in str(excinfo.value) and "y" in str(excinfo.value)

    def test_duplicate_check_runs_before_any_spawn(self):
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError):
            solve_batch(
                [Job("d", "pattern", "a"), Job("d", "pattern", "a")],
                workers=2, **BUDGET,
            )
        assert len(multiprocessing.active_children()) == before

    def test_exception_mid_batch_kills_without_stop_or_store_save(
            self, tmp_path):
        # not only a signal: any exception out of run() takes kill(),
        # never the graceful stop(), so no partial capture is saved
        store = tmp_path / "store.json"
        pids, stops = [], []

        def progress(_done, _total):
            pids.extend(pool.worker_pids())
            raise RuntimeError("progress callback failed")

        pool = WorkerPool(workers=2, progress=progress, store_path=str(store),
                          store_save=str(store), **BUDGET)
        graceful = pool.stop
        pool.stop = lambda: stops.append(1) or graceful()
        with pytest.raises(RuntimeError, match="progress callback"):
            pool.run([Job("a", "pattern", "a|b"),
                      Job("b", "pattern", "(a|b)*abb")])
        assert stops == []
        assert pids and not any(_pid_alive(pid) for pid in pids)
        assert not store.exists()
