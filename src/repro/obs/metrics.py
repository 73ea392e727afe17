"""Solver metrics: counters, gauges and log-scale histograms.

A :class:`MetricsRegistry` is a named tree of metrics.  Instruments are
created once (``registry.counter("sat_checks")``) and then updated on
the hot path by direct method calls (``counter.inc()``), so the cost of
staying on by default is one bound-method call per event — no string
lookups, no locks (the solver is single-threaded per query).  Counts
the solver layers already keep as plain ints are not copied in at all:
a scope registers a reader (:meth:`MetricsRegistry.read_from`) and
:meth:`~MetricsRegistry.snapshot` reads them in place.

The null backend (:data:`NULL_METRICS`, :data:`NULL_COUNTER`, ...)
mirrors the whole API with no-ops so instrumented code needs no
``if enabled`` branches: when metrics are disabled, every update is one
attribute lookup plus an empty call.
"""

import math
import weakref


def percentile(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list (None when empty):
    the smallest value with at least ``q`` of the values at or below
    it."""
    if not sorted_values:
        return None
    rank = max(math.ceil(q * len(sorted_values)), 1)
    return sorted_values[min(rank, len(sorted_values)) - 1]


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name=""):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Gauge:
    """A value that can go up and down (queue depth, memo size)."""

    __slots__ = ("name", "value")

    def __init__(self, name=""):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def dec(self, amount=1):
        self.value -= amount

    def reset(self):
        self.value = 0

    def __repr__(self):
        return "Gauge(%s=%r)" % (self.name, self.value)


class Histogram:
    """A log-scale (base-2) histogram of nonnegative samples.

    Bucket ``e`` counts samples with ``2**(e-1) < x <= 2**e`` (bucket 0
    holds zeros and sub-unit samples), which keeps the bucket count
    logarithmic in the dynamic range — the right shape for state counts
    and sat-check latencies that span orders of magnitude.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name=""):
        self.name = name
        self.reset()

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = max(math.frexp(value)[1], 0) if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Upper bound of the bucket holding the q-quantile sample."""
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                return 2 ** bucket
        return 2 ** max(self.buckets)

    def snapshot(self):
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": dict(sorted(self.buckets.items())),
        }

    def reset(self):
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def __repr__(self):
        return "Histogram(%s, n=%d, mean=%.3g)" % (self.name, self.count, self.mean)


class MetricsRegistry:
    """A named tree of counters, gauges and histograms.

    ``scope(name)`` returns (and caches) a child registry whose metric
    names are prefixed ``name.``; ``snapshot()`` flattens the whole
    tree into a plain dict suitable for JSON export.
    """

    enabled = True

    def __init__(self, prefix=""):
        self._prefix = prefix
        self._metrics = {}
        self._children = {}
        self._reader = None

    def _get(self, name, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(self._prefix + name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                "metric %r already registered as %s"
                % (self._prefix + name, type(metric).__name__)
            )
        return metric

    def counter(self, name):
        return self._get(name, Counter)

    def gauge(self, name):
        return self._get(name, Gauge)

    def histogram(self, name):
        return self._get(name, Histogram)

    def scope(self, name):
        child = self._children.get(name)
        if child is None:
            child = MetricsRegistry(self._prefix + name + ".")
            self._children[name] = child
        return child

    def read_from(self, reader):
        """Read this scope's values from ``reader()`` — a bound method
        returning a ``{name: value}`` dict — whenever a snapshot is
        taken, replacing any earlier reader.  The layers register their
        plain-int counters this way, so nothing copies them per query.

        The method is held weakly: the layer already holds the registry,
        and a strong reference back would put every solver stack in a
        reference cycle that only the cyclic collector frees."""
        self._reader = weakref.WeakMethod(reader)

    def snapshot(self):
        """Flatten the registry tree into ``{dotted-name: value}``.

        Counters and gauges flatten to their value, histograms to their
        summary dict, and the scope's reader to the values it reads.
        """
        out = {}
        for name, metric in self._metrics.items():
            full = self._prefix + name
            if isinstance(metric, Histogram):
                out[full] = metric.snapshot()
            else:
                out[full] = metric.value
        reader = self._reader() if self._reader is not None else None
        if reader is not None:
            for name, value in reader().items():
                out[self._prefix + name] = value
        for child in self._children.values():
            out.update(child.snapshot())
        return out

    def reset(self):
        for metric in self._metrics.values():
            metric.reset()
        for child in self._children.values():
            child.reset()

    def __repr__(self):
        return "MetricsRegistry(%r, %d metrics)" % (
            self._prefix, len(self.snapshot())
        )


# -- the null backend ---------------------------------------------------------


class NullCounter:
    """No-op counter: hot paths pay one attribute lookup + empty call."""

    __slots__ = ()
    name = ""
    value = 0

    def inc(self, amount=1):
        pass

    def reset(self):
        pass


class NullGauge:
    __slots__ = ()
    name = ""
    value = 0

    def set(self, value):
        pass

    def inc(self, amount=1):
        pass

    def dec(self, amount=1):
        pass

    def reset(self):
        pass


class NullHistogram:
    __slots__ = ()
    name = ""
    count = 0
    total = 0
    min = None
    max = None
    mean = 0.0

    def observe(self, value):
        pass

    def quantile(self, q):
        return None

    def snapshot(self):
        return {}

    def reset(self):
        pass


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()


class NullMetrics:
    """Registry stand-in that hands out shared no-op instruments."""

    enabled = False

    def counter(self, name):
        return NULL_COUNTER

    def gauge(self, name):
        return NULL_GAUGE

    def histogram(self, name):
        return NULL_HISTOGRAM

    def scope(self, name):
        return self

    def read_from(self, reader):
        pass

    def snapshot(self):
        return {}

    def reset(self):
        pass

    def __repr__(self):
        return "NullMetrics()"


NULL_METRICS = NullMetrics()
