"""repro.obs — solver telemetry: metrics, one record stream, views.

The paper's performance story is about *why* lazy symbolic derivatives
win — states explored, memo hit rates, sat-check volume — so the solver
carries an :class:`Observability` bundle through every layer.  It has
two channels:

* ``obs.metrics`` — a :class:`~repro.obs.metrics.MetricsRegistry`, on
  by default: a few counters, plus readers that read the engine,
  graph, algebra, solver and store counts and the cache sizes in place
  at snapshot time;
* the record stream — a :class:`~repro.obs.events.Recorder` writing
  spans, events and heartbeats in one envelope (``v``/``kind``/``ts``/
  ``pid``/``worker``/``job``).  ``obs.tracer`` is the recorder spans
  (``solver.explore``, ``deriv.tree``, ``deriv.meld``,
  ``algebra.sat_check``, ``smt.case_split``, ``graph.update``) go to,
  ``obs.events`` the one events go to; both are off by default, and in
  a flight both are the worker's one recorder.

A result's ``stats`` is no third channel: the solver reads the same
layer counts at query entry and exit and reports the difference as a
plain dict.

Views over the record stream: :func:`chrome_trace` (``--trace``, the
flight ``timeline.json``), :mod:`repro.obs.profile` (collapsed stacks
and self-time hotspot tables for ``--profile`` and the BENCH
snapshots) and :mod:`repro.obs.flight` (``repro status``).

``Observability.disabled()`` swaps every channel for a no-op backend,
so instrumented hot paths cost one attribute lookup per event.
"""

from repro.obs.explain import (
    CERT_SCHEMA_VERSION, CertificateError, CheckResult, ExplainRecorder,
    Explanation, SmtExplanation, check_certificate, explain_pattern,
    explain_witness,
)
from repro.obs.events import (
    EVENT_KINDS, EVENT_SCHEMA_VERSION, NULL_RECORDER, NullRecorder, Recorder,
    chrome_trace, read_chrome, read_events, read_jsonl, validate_event,
)
from repro.obs.metrics import (
    Counter, MetricsRegistry, NULL_COUNTER, NULL_METRICS, NullMetrics,
    percentile,
)
from repro.obs.profile import (
    collapsed_stacks, hotspots, profile_summary, read_collapsed,
    render_hotspots, write_collapsed,
)


class Observability:
    """The bundle threaded through solver, derivatives and algebras.

    The default construction keeps metrics live and records nothing —
    the recommended always-on configuration.  ``tracer`` and ``events``
    are the recorders spans and events go to (the null recorder when
    omitted); a flight passes one recorder for both.
    """

    __slots__ = ("metrics", "tracer", "events")

    def __init__(self, metrics=None, tracer=None, events=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.events = events if events is not None else NULL_RECORDER

    @classmethod
    def disabled(cls):
        """Everything off: every instrument is a shared no-op."""
        return NULL_OBS

    @classmethod
    def tracing(cls):
        """Metrics plus an in-memory span recorder (for ``--trace``
        style runs)."""
        return cls(tracer=Recorder())

    @property
    def enabled(self):
        return (self.metrics.enabled or self.tracer.enabled
                or self.events.enabled)

    def __repr__(self):
        return "Observability(metrics=%s, tracing=%s, events=%s)" % (
            "on" if self.metrics.enabled else "off",
            "on" if self.tracer.enabled else "off",
            "on" if self.events.enabled else "off",
        )


#: The all-off singleton handed out by :meth:`Observability.disabled`.
NULL_OBS = Observability(
    metrics=NULL_METRICS, tracer=NULL_RECORDER, events=NULL_RECORDER,
)


__all__ = [
    "Observability", "NULL_OBS",
    "CERT_SCHEMA_VERSION", "CertificateError", "CheckResult",
    "ExplainRecorder", "Explanation", "SmtExplanation",
    "check_certificate", "explain_pattern", "explain_witness",
    "Recorder", "NullRecorder", "NULL_RECORDER",
    "EVENT_KINDS", "EVENT_SCHEMA_VERSION", "read_events", "validate_event",
    "chrome_trace", "read_chrome", "read_jsonl",
    "MetricsRegistry", "Counter", "NullMetrics", "NULL_METRICS",
    "NULL_COUNTER", "percentile",
    "collapsed_stacks", "hotspots", "profile_summary", "read_collapsed",
    "render_hotspots", "write_collapsed",
]
