"""The metrics registry: counters, gauges and fixed-bucket histograms.

Machine components register *series* — a metric family name plus a
frozen label set — and bump them as the simulation runs.  Everything in
here counts **modeled** quantities (calls, crossings, cycles); host
wall-clock lives in the span tracer (:mod:`repro.telemetry.spans`) so a
metrics snapshot of a deterministic workload is itself deterministic
and can be diffed between runs.

The registry never charges the simulated perf counters: telemetry
observes the machine, it is not part of the machine.
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import blake2b
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Canonical (sorted) label items identifying one series in a family.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds: a 1-2-5 geometric ladder wide
#: enough for cycle counts (an L1 hit to a multi-second region).
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    base * scale
    for scale in (1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
                  10_000_000, 100_000_000)
    for base in (1, 2, 5))


def label_key(labels: Mapping[str, Any]) -> LabelKey:
    """Canonicalize a label mapping (values stringified, keys sorted)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def series_name(name: str, labels: LabelKey) -> str:
    """Prometheus-style series rendering: ``name{k=v,k2=v2}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def exemplar_rank(trace_id: str) -> int:
    """Deterministic selection rank for a histogram exemplar (the fleet
    scheduler's latency windows keep one per bucket).

    Per bucket the kept exemplar is the trace id with the *maximal*
    rank — a pure function of the id, so the choice is a max() over a
    set and therefore commutative/associative: stores merged in any
    order (or a single store that saw every observation) keep the same
    exemplar.  A uniform reservoir would not survive merging;
    a hash-max "reservoir" does, and is still an unbiased draw over
    the ids landing in the bucket.
    """
    return int.from_bytes(
        blake2b(trace_id.encode(), digest_size=8,
                person=b"xray-exm").digest(), "big")


def merge_exemplar(store: Optional[Dict[int, Tuple[int, str, float]]],
                   index: int, trace_id: str, value: float
                   ) -> Dict[int, Tuple[int, str, float]]:
    """Fold one (bucket index, trace id, value) exemplar candidate into
    ``store`` (created on first use), keeping the hash-max winner."""
    if store is None:
        store = {}
    entry = (exemplar_rank(trace_id), trace_id, value)
    current = store.get(index)
    if current is None or entry > current:
        store[index] = entry
    return store


def exemplars_dict(store: Optional[Dict[int, Tuple[int, str, float]]]
                   ) -> Dict[str, Dict[str, Any]]:
    """Plain-data snapshot of an exemplar store: bucket index (as a
    JSON-safe string key, sorted numerically) -> trace id + value."""
    if not store:
        return {}
    return {str(index): {"trace_id": store[index][1],
                         "value": store[index][2]}
            for index in sorted(store)}


def bucket_percentile(bounds: Tuple[float, ...], bucket_counts,
                      count: int, p: float,
                      max_value: Optional[float] = None
                      ) -> Optional[float]:
    """Interpolated percentile over fixed-bucket counts.

    ``bucket_counts`` has ``len(bounds) + 1`` entries, the last being
    the overflow bucket.  The rank's bucket is located by cumulative
    count and the value interpolates linearly between the bucket's
    lower and upper bounds (the first bucket's lower bound is 0).
    Ranks landing in the overflow bucket report ``max_value`` (the
    observed maximum) when known, else the last finite bound as a
    conservative floor.  Pure function of the counts, so two registries
    merged in any order agree with a single registry that saw every
    observation — the merge-determinism rule the parallel runner
    relies on.  Returns None while ``count`` is zero.
    """
    if count <= 0:
        return None
    rank = max(1, int(p / 100.0 * count + 0.999999))
    cumulative = 0
    for i, n in enumerate(bucket_counts):
        if n and cumulative + n >= rank:
            if i >= len(bounds):
                if max_value is not None:
                    return max_value
                return float(bounds[-1]) if bounds else None
            lo = float(bounds[i - 1]) if i else 0.0
            hi = float(bounds[i])
            return lo + (rank - cumulative) / n * (hi - lo)
        cumulative += n
    if max_value is not None:  # pragma: no cover - rank <= count
        return max_value
    return float(bounds[-1]) if bounds else None  # pragma: no cover


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram with percentile estimation.

    ``buckets`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Percentiles interpolate
    linearly within the bucket holding the requested rank (see
    :func:`bucket_percentile`; the overflow bucket reports the observed
    maximum), which is exact enough for dashboard-style p50/p90/p99
    over modeled cycles while staying a pure function of the bucket
    counts — merge order cannot change a percentile.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count",
                 "total", "min", "max")

    def __init__(self, name: str, labels: LabelKey,
                 buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.labels = labels
        self.buckets = tuple(buckets)
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.total: float = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def percentile(self, p: float) -> Optional[float]:
        """The linearly interpolated ``p``-th percentile
        (0 < p <= 100), or None while empty."""
        return bucket_percentile(self.buckets, self.bucket_counts,
                                 self.count, p, self.max)

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None


class MetricsRegistry:
    """All metric series of one telemetry session.

    A family name is bound to one metric kind; asking for the same name
    with a different kind is a programming error and raises.
    """

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        #: family name -> (kind, {label key -> metric instance})
        self._families: Dict[str, Tuple[str, Dict[LabelKey, Any]]] = {}

    # -- series access -------------------------------------------------

    def _series(self, kind: str, name: str, labels: Mapping[str, Any],
                **extra) -> Any:
        family = self._families.get(name)
        if family is None:
            family = (kind, {})
            self._families[name] = family
        elif family[0] != kind:
            raise TypeError(
                f"metric family {name!r} is a {family[0]}, not a {kind}")
        key = label_key(labels)
        series = family[1].get(key)
        if series is None:
            series = self._KINDS[kind](name, key, **extra)
            family[1][key] = series
        return series

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get or create a counter series."""
        return self._series("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get or create a gauge series."""
        return self._series("gauge", name, labels)

    def histogram(self, name: str,
                  buckets: Optional[Tuple[float, ...]] = None,
                  **labels: Any) -> Histogram:
        """Get or create a histogram series."""
        if buckets is None:
            return self._series("histogram", name, labels)
        return self._series("histogram", name, labels, buckets=buckets)

    def family(self, name: str) -> Dict[LabelKey, Any]:
        """Every series of one family (empty dict if absent)."""
        family = self._families.get(name)
        return dict(family[1]) if family is not None else {}

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A deterministic plain-data copy of every series.

        Series keys are rendered Prometheus-style and sorted, so two
        identical runs serialize to byte-identical JSON.
        """
        out: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._families):
            kind, series_map = self._families[name]
            for key in sorted(series_map):
                series = series_map[key]
                rendered = series_name(name, key)
                if kind == "counter":
                    out["counters"][rendered] = series.value
                elif kind == "gauge":
                    out["gauges"][rendered] = series.value
                else:
                    out["histograms"][rendered] = {
                        "count": series.count,
                        "total": series.total,
                        "sum": series.total,
                        "min": series.min,
                        "max": series.max,
                        "mean": series.mean,
                        "p50": series.percentile(50),
                        "p90": series.percentile(90),
                        "p99": series.percentile(99),
                        "p999": series.percentile(99.9),
                        "buckets": [[b, c] for b, c in
                                    zip(series.buckets,
                                        series.bucket_counts)],
                        "overflow": series.bucket_counts[-1],
                    }
        return out

    def merge_snapshot(self, snap: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins).  Used to absorb per-worker registries
        back into the parent session after a parallel sweep.
        """
        for rendered, value in snap.get("counters", {}).items():
            name, labels = _parse_series(rendered)
            self._series("counter", name, dict(labels)).value += value
        for rendered, value in snap.get("gauges", {}).items():
            name, labels = _parse_series(rendered)
            self._series("gauge", name, dict(labels)).value = value
        for rendered, data in snap.get("histograms", {}).items():
            name, labels = _parse_series(rendered)
            bounds = tuple(b for b, _ in data["buckets"])
            if not bounds:
                raise ValueError(
                    f"histogram {rendered!r} snapshot carries no "
                    "buckets; refusing to merge a corrupt payload")
            hist = self._series("histogram", name, dict(labels),
                                buckets=bounds)
            if hist.buckets != bounds:
                raise ValueError(
                    f"histogram {rendered!r} bucket mismatch on merge: "
                    f"registry has {len(hist.buckets)} bounds, snapshot "
                    f"has {len(bounds)}; refusing to merge mismatched "
                    "ladders (counts would land in the wrong buckets)")
            for i, (_, count) in enumerate(data["buckets"]):
                hist.bucket_counts[i] += count
            hist.bucket_counts[-1] += data["overflow"]
            hist.count += data["count"]
            hist.total += data["total"]
            for attr, pick in (("min", min), ("max", max)):
                incoming = data[attr]
                if incoming is not None:
                    current = getattr(hist, attr)
                    setattr(hist, attr, incoming if current is None
                            else pick(current, incoming))


def _parse_series(rendered: str) -> Tuple[str, LabelKey]:
    """Invert :func:`series_name` (labels never contain ``{`` or ``,``
    in this codebase's usage)."""
    if not rendered.endswith("}") or "{" not in rendered:
        return rendered, ()
    name, _, inner = rendered[:-1].partition("{")
    items: List[Tuple[str, str]] = []
    for part in inner.split(","):
        k, _, v = part.partition("=")
        items.append((k, v))
    return name, tuple(sorted(items))
