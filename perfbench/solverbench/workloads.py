"""The three workloads, their measurement loop, and their metrics.

A run measures whole passes over a seeded input list and stops at the
first pass boundary after ``--seconds`` once it holds
:data:`MIN_VERDICTS` answers, so every count and ``solved_ratio``
repeats exactly for a seed.  Set-up (generation,
oracle labels, store prewarm, daemon start and warm-up) is timed apart
from the measured passes and repeated :data:`SETUP_REPEATS` times.
The serial workloads scale their times to a reference host
(:mod:`solverbench.calibrate`).
"""

import gc
import math
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from contextlib import nullcontext

from repro.regex import parse
from repro.serve.admission import AdmissionController
from repro.serve.daemon import SolverDaemon
from repro.smtlib.parser import parse_script
from repro.solver.engine import RegexSolver
from repro.solver.smt import SmtSolver
from repro.solver.store import SolverStore

from solverbench import inputs
from solverbench.calibrate import REFERENCE_S, Calibrator, Sampler
from solverbench.closed_loop import ClosedLoop
from solverbench.inputs import PATTERN, SMT2, new_builder, shuffled
from solverbench.oracle import (
    FUEL, ColdOracle, budget, replays, suite_labels,
)
from solverbench.spans import LAYER_TIMES, SpanRecorder

clock = time.perf_counter

#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A run measures at least this many verdicts, so that at least ten lie
#: beyond ``latency_p99_ms``.
MIN_VERDICTS = 1000

#: serve_closed runs min(nproc, this) workers and as many clients.
MAX_PARALLEL = 4

#: Where serve_closed puts its socket, relative to the working
#: directory: a Unix socket path must stay short, and the benchmark
#: writes only inside the checkout it runs from.
RUN_DIR = ".perfbench_run"

_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class Entry:
    """The entry points a workload calls and its query scope: plain in
    the untraced run, span-wrapped in the traced one."""

    def __init__(self, recorder=None):
        if recorder is None:
            self.parse = parse
            self.parse_script = parse_script
            self.query = nullcontext
        else:
            self.parse = recorder.wrap("regex.parse_ms", parse)
            self.parse_script = recorder.wrap("smtlib.parse_ms", parse_script)
            self.query = recorder.query


class Window:
    """What one measurement window saw."""

    def __init__(self):
        #: seconds per answered query, as the caller observed it
        self.latencies = []
        #: timed wall: the queries' own time when they run one at a
        #: time, the passes' wall when clients run concurrently
        self.busy_s = 0.0
        self.cpu_s = 0.0
        self.passes = 0
        #: verdicts of the passes run so far (serve_closed fills
        #: ``latencies`` only when it judges the answers, after the window)
        self.verdicts = 0
        self.counts = Counter()
        #: (client_s, latency_s, elapsed) per serve_closed reply
        self.serve = []
        #: (wall_s, cpu_s, calibration segment) per serial query
        self.samples = []

    def add(self, elapsed, cpu, segment):
        """Record one serial query."""
        self.latencies.append(elapsed)
        self.busy_s += elapsed
        self.cpu_s += cpu
        self.samples.append((elapsed, cpu, segment))

    @property
    def attempted(self):
        return self.counts["attempted"]

    @property
    def failed(self):
        return self.counts["wrong"] + self.counts["errors"]


def _tally_solver(counts, builder, solver):
    """Add one fresh stack's work counters to ``counts``."""
    snapshot = solver.obs.metrics.snapshot()
    engine = solver.engine
    algebra = builder.algebra
    counts["explored"] += snapshot.get("solver.explored", 0)
    counts["case_splits"] += snapshot.get("smt.case_splits", 0)
    counts["store_hits"] += snapshot.get("store.hits", 0)
    counts["store_misses"] += snapshot.get("store.misses", 0)
    counts["alphabet_ops"] += algebra.op_count
    counts["sat_checks"] += algebra.sat_check_count
    counts["interned"] += builder.interned_count
    counts["deriv_memo_misses"] += engine.deriv_memo_misses
    counts["meld_memo_misses"] += engine.meld_memo_misses
    counts["meld_memo_hits"] += engine.meld_memo_hits


def _classify(counts, status, error, agrees):
    """Count one answer as an error, wrong, solved or unknown."""
    if error is not None:
        counts["errors"] += 1
    elif not agrees:
        counts["wrong"] += 1
    elif status in ("sat", "unsat"):
        counts["solved"] += 1
    else:
        counts["unknown"] += 1


def _proc_cpu_s(pid):
    """CPU time of a live child: the run time of its threads in ns from
    ``/proc/<pid>/task/*/schedstat``, or, where the kernel keeps no
    schedstat, utime + stime in clock ticks from ``/proc/<pid>/stat``
    (too coarse to time one pass: a pass costs a worker tens of ticks)."""
    task_dir = "/proc/%d/task" % pid
    try:
        tasks = os.listdir(task_dir)
        total_ns = 0
        for task in tasks:
            try:
                with open("%s/%s/schedstat" % (task_dir, task), "r",
                          encoding="ascii") as handle:
                    total_ns += int(handle.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended after the listing
        return total_ns / 1e9
    except OSError:
        pass
    with open("/proc/%d/stat" % pid, "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def _proc_peak_rss_kb(pid):
    """VmHWM of a live child, from ``/proc/<pid>/status``."""
    with open("/proc/%d/status" % pid, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Workload:
    """A seeded input list, its oracle, and how one pass runs."""

    name = None
    #: Whether its times are scaled to the reference host
    #: (:mod:`solverbench.calibrate`).
    normalized = False

    def __init__(self, seed, speed=None):
        self.seed = seed
        if speed is None and self.normalized:
            speed = Calibrator()
        self.speed = speed

    def generate(self):
        """Build the seeded inputs (no oracle, no program state)."""
        raise NotImplementedError

    def setup(self):
        """Everything a run needs before timing starts."""
        raise NotImplementedError

    def pass_texts(self, index):
        """The input texts of pass ``index``, in order."""
        raise NotImplementedError

    def run_pass(self, index, entry, window):
        """Run pass ``index``, adding its time and counts to ``window``;
        returns the number of verdicts it got."""
        raise NotImplementedError

    def install_spans(self, recorder):
        recorder.patch_solver()

    def child_pids(self):
        return []

    def close(self):
        pass

    def parallelism(self):
        """(clients, workers) of this workload."""
        return 1, 1

    def measure(self, seconds, entry, window=None, min_verdicts=0):
        """Run whole passes until ``seconds`` have gone by and the window
        holds ``min_verdicts``, adding to ``window`` (a new one by
        default); returns the window."""
        window = window if window is not None else Window()
        started = clock()
        first = window.passes
        while (window.passes == first or clock() - started < seconds
               or window.verdicts < min_verdicts):
            window.verdicts += self.run_pass(window.passes, entry, window)
            window.passes += 1
        return window


class SmtCold(Workload):
    """The paper's suites, each problem on a fresh builder and solver."""

    name = "smt_cold"
    normalized = True

    def generate(self):
        self._builder, self._problems, self.queries = inputs.suite_problems()

    def setup(self):
        self.generate()
        self.labels = suite_labels(self._builder, self._problems)

    def _order(self, index):
        return shuffled(range(len(self.queries)), self.name, self.seed, index)

    def pass_texts(self, index):
        return [self.queries[i].text for i in self._order(index)]

    def run_pass(self, index, entry, window):
        counts = window.counts
        first = len(window.latencies)
        for i in self._order(index):
            query = self.queries[i]
            counts["attempted"] += 1
            self.speed.maybe_tick()
            with entry.query():
                cpu = time.process_time()
                started = clock()
                builder = new_builder()
                if query.kind == SMT2:
                    parsed = entry.parse_script(builder, query.text).formula
                    solver = SmtSolver(builder)
                    result = solver.solve(parsed, budget())
                    regex_solver = solver.engine
                else:
                    parsed = entry.parse(builder, query.text)
                    solver = regex_solver = RegexSolver(builder)
                    result = solver.is_satisfiable(parsed, budget())
                elapsed = clock() - started
                cpu = time.process_time() - cpu
            window.add(elapsed, cpu, self.speed.segment())
            _tally_solver(counts, builder, regex_solver)
            label = self.labels.get(i)
            status = result.status
            if status == "sat":
                agrees = label != "unsat" and replays(
                    query.kind, builder, parsed, result, solver
                )
            else:
                agrees = not (status == "unsat" and label == "sat")
                if status == "unsat" and label is None:
                    counts["unchecked"] += 1
            _classify(counts, status, result.error, agrees)
        return len(window.latencies) - first


class ZipfStore(Workload):
    """A zipfian pattern stream against a prewarmed store snapshot, each
    query on a fresh builder, solver and store loaded from the snapshot
    (the ``repro check --store FILE`` and recycled-worker regime)."""

    name = "zipf_store"
    normalized = True

    def generate(self):
        self.ranked, self.absent = inputs.zipf_ranked(self.seed)
        self.stream = inputs.zipf_stream(
            self.ranked, inputs.zipf_counts(len(self.ranked), inputs.ZIPF_PASS)
        )

    def setup(self):
        self.generate()
        capture = SolverStore()
        for pattern in self.ranked:
            if pattern not in self.absent:
                builder = new_builder()
                RegexSolver(builder, store=capture).is_satisfiable(
                    parse(builder, pattern), budget()
                )
        self.snapshot = capture.to_dict()
        self.oracle = ColdOracle(
            ((PATTERN, p) for p in self.ranked), exact_witness=True,
        )

    def pass_texts(self, index):
        return shuffled(self.stream, self.name, self.seed, index)

    def run_pass(self, index, entry, window):
        counts = window.counts
        snapshot = self.snapshot
        first = len(window.latencies)
        for pattern in self.pass_texts(index):
            counts["attempted"] += 1
            self.speed.maybe_tick()
            with entry.query():
                cpu = time.process_time()
                started = clock()
                builder = new_builder()
                store = SolverStore().from_dict(snapshot)
                solver = RegexSolver(builder, store=store)
                regex = entry.parse(builder, pattern)
                result = solver.is_satisfiable(regex, budget())
                elapsed = clock() - started
                cpu = time.process_time() - cpu
            window.add(elapsed, cpu, self.speed.segment())
            _tally_solver(counts, builder, solver)
            agrees = self.oracle.agrees(
                PATTERN, pattern, result.status, witness=result.witness
            )
            _classify(counts, result.status, result.error, agrees)
        return len(window.latencies) - first


class ServeClosed(Workload):
    """An in-process daemon on a Unix socket, driven by closed-loop
    clients with one request in flight each."""

    name = "serve_closed"

    def __init__(self, seed, speed=None):
        super().__init__(seed, speed)
        self.workers = min(len(os.sched_getaffinity(0)), MAX_PARALLEL)
        self.daemon = None
        self.loop = None
        self._rundir = None
        self._pending = []
        #: (monotonic start, end, raw CPU s) per measured pass
        self._pass_cpu = []

    def parallelism(self):
        return self.workers, self.workers

    def generate(self):
        _builder, _problems, queries = inputs.suite_problems()
        ranked, _absent = inputs.zipf_ranked("serve-%d" % self.seed)
        patterns = inputs.zipf_stream(
            ranked, inputs.zipf_counts(len(ranked), inputs.SERVE_PATTERN_PASS)
        )
        self.jobs = [(PATTERN, p) for p in patterns] + [
            (SMT2, q.text) for q in inputs.serve_smt2(queries)
        ]

    def setup(self):
        self.generate()
        distinct = sorted(set(self.jobs))
        self.oracle = ColdOracle(distinct, exact_witness=False)
        self._rundir = os.path.join(RUN_DIR, "serve-%d" % os.getpid())
        os.makedirs(self._rundir, exist_ok=True)
        # token buckets sized so a closed-loop caller is never degraded:
        # this measures the serving path, not the rate-limit policy
        admission = AdmissionController(
            client_capacity=1024, client_refill_per_s=1e6,
        )
        self.daemon = SolverDaemon(
            path=os.path.join(self._rundir, "daemon.sock"),
            workers=self.workers, admission=admission, fuel=FUEL,
        )
        self.daemon.start()
        self.loop = ClosedLoop(self.daemon.address, self.workers)
        warmup = Window()
        self._judge(distinct, self.loop.run(distinct), warmup)
        if warmup.failed:
            raise RuntimeError(
                "serve_closed warm-up: %d of %d answers failed"
                % (warmup.failed, warmup.attempted)
            )

    def _order(self, index):
        return shuffled(self.jobs, self.name, self.seed, index)

    def pass_texts(self, index):
        return [text for _kind, text in self._order(index)]

    def install_spans(self, recorder):
        recorder.patch(self.daemon.admission, "admit", "serve.admit_ms",
                       flat=True)

    def child_pids(self):
        return self.daemon.pool.worker_pids() if self.daemon else []

    def _cpu_s(self):
        """CPU of this process (clients, daemon threads) and of the
        daemon's workers, live and reaped."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return (time.process_time() + children.ru_utime + children.ru_stime
                + sum(_proc_cpu_s(pid) for pid in self.child_pids()))

    def measure(self, seconds, entry, window=None, min_verdicts=0):
        # answers are judged after the window, so the checks cost the
        # timed passes nothing
        self._pending = []
        self._pass_cpu = []
        sampler = Sampler(self._rundir)
        try:
            window = super().measure(seconds, entry, window, min_verdicts)
        finally:
            sampler.stop()
        window.cpu_s += sum(cpu * sampler.factor(start, end)
                            for start, end, cpu in self._pass_cpu)
        for jobs, calls in self._pending:
            self._judge(jobs, calls, window)
        self._pending = []
        check_serve_split(window)
        return window

    def run_pass(self, index, entry, window):
        jobs = self._order(index)
        cpu = self._cpu_s()
        started = clock()
        at = time.monotonic()
        calls = self.loop.run(jobs)
        window.busy_s += clock() - started
        # scaled to the reference host in measure()
        self._pass_cpu.append((at, time.monotonic(), self._cpu_s() - cpu))
        self._pending.append((jobs, calls))
        return sum(1 for call in calls if call.ok)

    def _judge(self, jobs, calls, window):
        counts = window.counts
        for (kind, text), call in zip(jobs, calls):
            counts["attempted"] += 1
            counts["bytes"] += call.wire
            if not call.ok:
                counts["errors"] += 1
                continue
            reply = call.reply
            window.latencies.append(call.client_s)
            window.serve.append(
                (call.client_s, reply["latency_s"], reply["elapsed"])
            )
            status = reply.get("status")
            agrees = self.oracle.agrees(
                kind, text, status, witness=reply.get("witness"),
                model=reply.get("model"),
            )
            _classify(counts, status, reply.get("error"), agrees)

    def close(self):
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None
        if self._rundir is not None:
            shutil.rmtree(self._rundir, ignore_errors=True)
            try:
                os.rmdir(RUN_DIR)
            except OSError:
                pass
            self._rundir = None


WORKLOADS = {cls.name: cls for cls in (SmtCold, ZipfStore, ServeClosed)}


# -- metrics ------------------------------------------------------------------


def serve_split(window):
    """Mean ms per reply of the client-observed time and its three
    parts: worker service (``elapsed``), daemon wait (``latency_s -
    elapsed``: queue, dispatch, IPC, poll) and client side (client time
    minus ``latency_s``: framing, socket, reader thread, admission)."""
    if not window.serve:
        return 0.0, 0.0, 0.0, 0.0
    n = len(window.serve)
    client = sum(c for c, _l, _e in window.serve) * 1000.0 / n
    service = sum(e for _c, _l, e in window.serve) * 1000.0 / n
    wait = sum(lat - e for _c, lat, e in window.serve) * 1000.0 / n
    side = sum(c - lat for c, lat, _e in window.serve) * 1000.0 / n
    return client, service, wait, side


def check_serve_split(window):
    """The per-stage parts must be nonnegative and sum to the
    client-observed latency within 5%."""
    client, service, wait, side = serve_split(window)
    if min(service, wait, side) < 0.0 or (
        client and abs(service + wait + side - client) > 0.05 * client
    ):
        raise RuntimeError(
            "serve split does not add up: client %.3f ms vs service "
            "%.3f + daemon wait %.3f + client side %.3f"
            % (client, service, wait, side)
        )


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def peak_rss_mb(child_pids):
    """Peak RSS of this process plus the peaks of its live children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(_proc_peak_rss_kb(pid) for pid in child_pids)
    return kb / 1024.0


def e2e_metrics(window, setup_seconds, child_pids, speed=None):
    """The end-to-end metrics.

    Latencies, throughput and CPU per query pool every measured pass.
    With a :class:`~solverbench.calibrate.Calibrator` every query's
    times are scaled to the reference host by the slices around it."""
    if speed is None:
        latencies = sorted(window.latencies)
        busy, cpu = window.busy_s, window.cpu_s
    else:
        latencies, cpu = [], 0.0
        for elapsed, cpu_s, segment in window.samples:
            factor = speed.factor(segment)
            latencies.append(elapsed * factor)
            cpu += cpu_s * factor
        latencies.sort()
        busy = sum(latencies)
    return {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_p99_ms": (percentile(latencies, 0.99) * 1000.0, "ms"),
        "throughput_qps": (len(latencies) / busy, "1/s"),
        "solved_ratio": (window.counts["solved"] / window.attempted, "ratio"),
        "cpu_ms_per_query": (cpu * 1000.0 / len(latencies), "ms"),
        "peak_rss_mb": (peak_rss_mb(child_pids), "MB"),
    }


def count_metrics(window):
    """Per-query work counters; they repeat exactly for a seed."""
    counts = window.counts
    n = window.attempted

    def ratio(hits, misses):
        total = counts[hits] + counts[misses]
        return counts[hits] / total if total else 0.0

    return {
        "regex.interned": (counts["interned"] / n, "count"),
        "derivatives.deriv_memo_misses": (
            counts["deriv_memo_misses"] / n, "count"),
        "derivatives.meld_memo_misses": (
            counts["meld_memo_misses"] / n, "count"),
        "derivatives.meld_hit_ratio": (
            ratio("meld_memo_hits", "meld_memo_misses"), "ratio"),
        "alphabet.ops": (counts["alphabet_ops"] / n, "count"),
        "alphabet.sat_checks": (counts["sat_checks"] / n, "count"),
        "solver.explored": (counts["explored"] / n, "count"),
        "solver.case_splits": (counts["case_splits"] / n, "count"),
        "solver.store.hit_ratio": (
            ratio("store_hits", "store_misses"), "ratio"),
        "serve.bytes_per_query": (counts["bytes"] / n, "B"),
    }


def _busy_per_verdict(window):
    return window.busy_s / len(window.latencies)


def time_metrics(plain, traced, recorder):
    """Per-query layer self times from the traced window, and the
    tracing overhead against the untraced one."""
    layers, _queries = recorder.per_query_ms()
    if traced.serve:
        # the layers run in worker processes: split the client's time
        # by the reply's stamps, and admission by its in-process spans
        client, service, wait, side = serve_split(traced)
        admit = recorder.flat_seconds("serve.admit_ms") * 1000.0 / len(
            traced.serve)
        wall = client
        other = wall - service - wait - admit
    else:
        service = wait = side = admit = 0.0
        wall = layers["trace.wall_ms"]
        other = layers["trace.other_ms"]
    out = {name: (layers[name], "ms") for name in LAYER_TIMES}
    out.update({
        "serve.service_ms": (service, "ms"),
        "serve.daemon_wait_ms": (wait, "ms"),
        "serve.client_ms": (side, "ms"),
        "serve.admit_ms": (admit, "ms"),
        "trace.wall_ms": (wall, "ms"),
        "trace.other_ms": (other, "ms"),
        "trace.overhead_pct": (
            (_busy_per_verdict(traced) / _busy_per_verdict(plain) - 1.0)
            * 100.0, "%"),
    })
    attributed = sum(layers[name] for name in LAYER_TIMES) + (
        service + wait + admit + other)
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            "layer self times sum to %.6f ms, traced wall is %.6f ms"
            % (attributed, wall)
        )
    return out


class Outcome:
    """One run's verdict counts, metrics and human-readable notes."""

    def __init__(self, windows, metrics, notes):
        self.attempted = sum(w.attempted for w in windows)
        self.failed = sum(w.failed for w in windows)
        self.metrics = metrics
        self.notes = notes

    @property
    def correct(self):
        return self.failed == 0

    def payload(self):
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in sorted(self.metrics.items())
            },
        }


def _notes(workload, window, label=""):
    counts = window.counts
    clients, workers = workload.parallelism()
    name = workload.name + label
    answered = len(window.latencies)
    host = []
    slices = workload.speed.slices if workload.speed is not None else []
    if len(slices) > 1:
        low, _mid, high = statistics.quantiles(slices, n=4)
        host = ["%s host: %d slices, median %.4f ms (quartiles %.4f to "
                "%.4f), reference %.4f ms" % (
                    name, len(slices), statistics.median(slices) * 1e3,
                    low * 1e3, high * 1e3, REFERENCE_S * 1e3)]
    return host + [
        "%s: %d passes, %d queries, %d answered, %d beyond p99; "
        "clients=%d workers=%d" % (
            name, window.passes, window.attempted, answered,
            answered - math.ceil(0.99 * answered), clients, workers),
        "%s error_ratio = %.6g ratio (wrong %d, errors %d; unknown %d, "
        "unsat unchecked %d)" % (
            name, window.failed / window.attempted,
            counts["wrong"], counts["errors"], counts["unknown"],
            counts["unchecked"]),
    ]


def _freeze_setup():
    """Put set-up's objects (inputs, oracles, the store snapshot) out of
    the cyclic collector's reach: a CLI process does not carry them, and
    collections that traverse them would bill the program for the
    benchmark's own data."""
    gc.collect()
    gc.freeze()


def run_e2e(name, seed, seconds):
    """The untraced run: every end-to-end metric."""
    setups = []
    workload = None
    cls = WORKLOADS[name]
    speed = Calibrator() if cls.normalized else None
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = cls(seed, speed)
            started = clock()
            workload.setup()
            elapsed = clock() - started
            if speed is not None:
                # the slices just before and after this set-up
                speed.tick()
                elapsed *= speed.factor(speed.segment() - 1)
            setups.append(elapsed)
        _freeze_setup()
        window = workload.measure(seconds, Entry(), min_verdicts=MIN_VERDICTS)
        if speed is not None:
            speed.tick()  # the slice after the last queries
        metrics = e2e_metrics(window, setups, workload.child_pids(), speed)
    finally:
        if workload is not None:
            workload.close()
        gc.unfreeze()
    return Outcome([window], metrics, _notes(workload, window))


def run_traced(name, seed, seconds):
    """Untraced passes (the counts, and the baseline for the tracing
    overhead) alternate with traced ones (the layer self times), so both
    see the same host and its swings do not pose as overhead.  One
    unrecorded pass first fills the caches that outlive a query, which
    the first untraced pass alone would otherwise pay."""
    workload = WORKLOADS[name](seed)
    plain, traced, warmup = Window(), Window(), Window()
    recorder = SpanRecorder()
    try:
        workload.setup()
        _freeze_setup()
        workload.measure(0.0, Entry(), warmup)
        started = clock()
        while plain.passes == 0 or clock() - started < seconds:
            workload.measure(0.0, Entry(), plain)
            workload.install_spans(recorder)
            try:
                workload.measure(0.0, Entry(recorder), traced)
            finally:
                recorder.unpatch_all()
    finally:
        workload.close()
        gc.unfreeze()
    metrics = count_metrics(plain)
    metrics.update(time_metrics(plain, traced, recorder))
    return Outcome([warmup, plain, traced], metrics,
                   _notes(workload, plain, " untraced")
                   + _notes(workload, traced, " traced"))
