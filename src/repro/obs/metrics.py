"""Service-wide metrics: counters, gauges, fixed-bucket histograms.

Where a run's span captures *one run's*
event stream, :class:`MetricsRegistry` aggregates over the *process
lifetime* — fleet-level counters, gauges and latency distributions the
experiment service exposes on ``GET /metrics``.  The module is
stdlib-only (``threading``, ``re``, ``math``) and deliberately mirrors
the Prometheus client data model:

- :class:`Counter` — monotonically increasing totals
  (``repro_jobs_total{outcome="ok"}``);
- :class:`Gauge` — set/inc/dec point-in-time values
  (``repro_queue_depth``);
- :class:`Histogram` — fixed cumulative buckets plus ``_sum``/``_count``
  (``repro_job_latency_seconds_bucket{le="0.5"}``).  A value lands in
  every bucket whose bound is **>= the value** (Prometheus ``le``
  semantics: ``value == bound`` counts), and the implicit ``+Inf``
  bucket counts everything.

Every metric family may declare label names; ``family.labels(k=v)``
returns (creating on first use) the child for that label combination.
All mutation paths are thread-safe — the service's asyncio loop, its
worker threads and the engine's parent-process instrumentation all
write concurrently.

:meth:`MetricsRegistry.render` produces Prometheus text exposition
format (``text/plain; version=0.0.4``); :func:`parse_exposition`
reverses it (tests and the CI smoke step use it to assert on scraped
metrics without a Prometheus dependency).

Naming follows ``repro_<subsystem>_<name>_<unit>`` with bounded label
cardinality — see DESIGN.md §6 for the conventions and the full metric
inventory.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "default_registry",
    "gauge",
    "histogram",
    "parse_exposition",
]

#: Default histogram bounds: latency-flavored seconds from 1ms to ~2min.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: "Sequence[str]") -> "tuple[str, ...]":
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _fmt_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _fmt_value(bound)


def _labels_text(labels: "Mapping[str, str]") -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + body + "}"


class _Child:
    """Base for one (metric, label-values) time series."""

    __slots__ = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()


class Counter(_Child):
    """A monotonically increasing total."""

    __slots__ = ("_value",)

    def __init__(self):
        super().__init__()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Child):
    """A value that goes up and down."""

    __slots__ = ("_value",)

    def __init__(self):
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Child):
    """Fixed cumulative buckets plus running sum and count.

    ``observe(v)`` increments every bucket whose upper bound is >= ``v``
    (rendered cumulatively), the total count, and the value sum.  The
    ``+Inf`` bucket is implicit and always present.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: "Sequence[float]" = DEFAULT_BUCKETS):
        super().__init__()
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # trailing slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> "list[tuple[float, int]]":
        """``(bound, cumulative_count)`` pairs including ``+Inf``."""
        with self._lock:
            counts = list(self.counts)
        total = 0
        out = []
        for bound, n in zip((*self.buckets, math.inf), counts):
            total += n
            out.append((bound, total))
        return out


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric: type, help text, labelled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: "tuple[str, ...]",
        buckets: "Sequence[float] | None" = None,
    ):
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self._buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: "dict[tuple[str, ...], _Child]" = {}
        if not labelnames:
            self._children[()] = self._make_child()

    def _make_child(self) -> _Child:
        if self.kind == "histogram":
            return Histogram(self._buckets or DEFAULT_BUCKETS)
        return _TYPES[self.kind]()

    # ------------------------------------------------------------------
    def labels(self, **labelvalues: str):
        """The child for this label combination (created on first use)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def _unlabelled(self) -> _Child:
        if self.labelnames:
            raise ValueError(
                f"{self.name} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self._children[()]

    # Unlabelled conveniences: family acts as its own single child.
    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabelled().dec(amount)

    def set(self, value: float) -> None:
        self._unlabelled().set(value)

    def observe(self, value: float) -> None:
        self._unlabelled().observe(value)

    @property
    def value(self) -> float:
        return self._unlabelled().value

    # ------------------------------------------------------------------
    def samples(self) -> "list[tuple[str, dict, float]]":
        """Flat ``(sample_name, labels, value)`` rows for rendering."""
        with self._lock:
            children = dict(self._children)
        rows: "list[tuple[str, dict, float]]" = []
        for key, child in sorted(children.items()):
            labels = dict(zip(self.labelnames, key))
            if isinstance(child, Histogram):
                for bound, cumulative in child.cumulative():
                    rows.append(
                        (
                            f"{self.name}_bucket",
                            {**labels, "le": _fmt_bound(bound)},
                            float(cumulative),
                        )
                    )
                rows.append((f"{self.name}_sum", labels, child.sum))
                rows.append((f"{self.name}_count", labels, float(child.count)))
            else:
                rows.append((self.name, labels, child.value))
        return rows

    def __repr__(self) -> str:
        return (
            f"_Family({self.name!r}, {self.kind}, "
            f"children={len(self._children)})"
        )


class MetricsRegistry:
    """A process-scoped collection of metric families.

    ``counter``/``gauge``/``histogram`` are get-or-create: registering
    the same name again with a matching type/labels/buckets returns the
    existing family (so module-level instrumentation and service wiring
    can both ask for the same metric), while a conflicting
    re-registration raises ``ValueError``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: "dict[str, _Family]" = {}

    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: "Sequence[str]",
        buckets: "Sequence[float] | None" = None,
    ) -> _Family:
        labelnames = _check_labelnames(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}, cannot "
                        f"re-register as {kind}{labelnames}"
                    )
                return existing
            family = _Family(name, kind, help_text, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: "Sequence[str]" = ()
    ) -> _Family:
        return self._register(name, "counter", help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: "Sequence[str]" = ()
    ) -> _Family:
        return self._register(name, "gauge", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: "Sequence[str]" = (),
        buckets: "Sequence[float]" = DEFAULT_BUCKETS,
    ) -> _Family:
        return self._register(name, "histogram", help_text, labelnames, buckets)

    def get(self, name: str) -> "_Family | None":
        return self._families.get(name)

    def families(self) -> "list[_Family]":
        with self._lock:
            return list(self._families.values())

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: "list[str]" = []
        for family in sorted(self.families(), key=lambda f: f.name):
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for sample_name, labels, value in family.samples():
                lines.append(
                    f"{sample_name}{_labels_text(labels)} {_fmt_value(value)}"
                )
        return "\n".join(lines) + "\n" if lines else ""

    def collect(self) -> dict:
        """JSON-pure snapshot (name -> samples) for tests/debugging."""
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "samples": [
                    {"name": name, "labels": labels, "value": value}
                    for name, labels, value in family.samples()
                ],
            }
            for family in self.families()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"


#: The process-global registry: module-level instrumentation (engine
#: cache, session) registers here, and the service defaults to it.
_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _DEFAULT


def counter(
    name: str, help_text: str = "", labelnames: "Sequence[str]" = ()
) -> _Family:
    """Get-or-create a counter on the default registry."""
    return _DEFAULT.counter(name, help_text, labelnames)


def gauge(
    name: str, help_text: str = "", labelnames: "Sequence[str]" = ()
) -> _Family:
    """Get-or-create a gauge on the default registry."""
    return _DEFAULT.gauge(name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str = "",
    labelnames: "Sequence[str]" = (),
    buckets: "Sequence[float]" = DEFAULT_BUCKETS,
) -> _Family:
    """Get-or-create a histogram on the default registry."""
    return _DEFAULT.histogram(name, help_text, labelnames, buckets)


# ----------------------------------------------------------------------
# Exposition parsing (tests + CI smoke assertions)
# ----------------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)\s*$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')


def _unescape(value: str) -> str:
    return (
        value.replace(r"\"", '"').replace(r"\n", "\n").replace("\\\\", "\\")
    )


def parse_exposition(
    text: str,
) -> "dict[str, dict[tuple[tuple[str, str], ...], float]]":
    """Parse Prometheus text exposition into nested dicts.

    Returns ``{sample_name: {sorted_label_items: value}}`` where
    ``sorted_label_items`` is a tuple of ``(label, value)`` pairs — e.g.
    ``parsed["repro_jobs_total"][(("outcome", "ok"),)]``.  Comment and
    blank lines are skipped; malformed sample lines raise ``ValueError``
    (a scrape that fails to parse should fail the assert, not pass
    silently).
    """
    parsed: "dict[str, dict[tuple[tuple[str, str], ...], float]]" = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line: {line!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            sorted(
                (name, _unescape(value))
                for name, value in _LABEL_PAIR_RE.findall(labels_text)
            )
        )
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        parsed.setdefault(match.group("name"), {})[labels] = value
    return parsed
