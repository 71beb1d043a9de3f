"""Metrics registry: Prometheus semantics, exposition, thread safety.

The contract under test: families are get-or-create (conflicts raise),
histograms use Prometheus ``le`` bucket semantics (``value == bound``
counts, ``+Inf`` always catches), ``render()`` emits parseable text
exposition (round-tripped through :func:`parse_exposition`), and every
mutation path survives concurrent writers.
"""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    default_registry,
    parse_exposition,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0


class TestHistogram:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(2.0)  # le="2.0" must include it (Prometheus `le`)
        cumulative = dict(hist.cumulative())
        assert cumulative[1.0] == 0
        assert cumulative[2.0] == 1
        assert cumulative[5.0] == 1
        assert cumulative[math.inf] == 1

    def test_value_above_every_bound_lands_in_inf(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(99.0)
        cumulative = dict(hist.cumulative())
        assert cumulative[2.0] == 0
        assert cumulative[math.inf] == 1
        assert hist.count == 1
        assert hist.sum == 99.0

    def test_cumulative_counts_are_monotone(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        counts = [n for _, n in hist.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == 6

    def test_explicit_inf_bound_collapses_into_implicit(self):
        hist = Histogram(buckets=(1.0, math.inf))
        assert hist.buckets == (1.0,)
        hist.observe(2.0)
        assert dict(hist.cumulative())[math.inf] == 1

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "help", ("k",))
        b = registry.counter("repro_x_total", "other help", ("k",))
        assert a is b

    def test_conflicting_type_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_x_total")

    def test_conflicting_labels_reregistration_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("repro_x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("has spaces")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("bad-dash",))
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("__reserved",))

    def test_labels_get_or_create_children(self):
        family = MetricsRegistry().counter("c_total", labelnames=("via",))
        family.labels(via="queued").inc()
        family.labels(via="queued").inc()
        family.labels(via="store").inc()
        assert family.labels(via="queued").value == 2.0
        assert family.labels(via="store").value == 1.0

    def test_wrong_label_set_raises(self):
        family = MetricsRegistry().counter("c_total", labelnames=("via",))
        with pytest.raises(ValueError):
            family.labels(nope="x")
        with pytest.raises(ValueError):
            family.inc()  # labelled family has no unlabelled child

    def test_default_registry_is_a_process_singleton(self):
        assert default_registry() is default_registry()
        # Module-level instrumentation registers on it at import time.
        import repro.engine.blobstore  # noqa: F401

        assert "repro_store_ops_total" in default_registry()


class TestRender:
    def test_render_emits_help_type_and_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Job outcomes", ("outcome",)).labels(
            outcome="ok"
        ).inc(3)
        text = registry.render()
        assert "# HELP repro_jobs_total Job outcomes" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{outcome="ok"} 3' in text
        assert text.endswith("\n")

    def test_render_histogram_has_buckets_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", buckets=(0.5, 1.0))
        hist.observe(0.25)
        hist.observe(2.0)
        text = registry.render()
        assert 'repro_lat_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_lat_seconds_bucket{le="1"} 1' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_lat_seconds_sum 2.25" in text
        assert "repro_lat_seconds_count 2" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("k",)).labels(
            k='quo"te\nand\\slash'
        ).inc()
        text = registry.render()
        assert r'c_total{k="quo\"te\nand\\slash"} 1' in text
        # And the escaping survives the parser round trip.
        parsed = parse_exposition(text)
        assert parsed["c_total"][(("k", 'quo"te\nand\\slash'),)] == 1.0

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


class TestParseExposition:
    def test_round_trip_of_mixed_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "", ("outcome",)).labels(
            outcome="ok"
        ).inc(7)
        registry.gauge("repro_queue_depth").set(3)
        registry.histogram("repro_wait_seconds", buckets=(1.0,)).observe(0.5)
        parsed = parse_exposition(registry.render())
        assert parsed["repro_jobs_total"][(("outcome", "ok"),)] == 7.0
        assert parsed["repro_queue_depth"][()] == 3.0
        assert parsed["repro_wait_seconds_bucket"][(("le", "1"),)] == 1.0
        assert parsed["repro_wait_seconds_bucket"][(("le", "+Inf"),)] == 1.0
        assert parsed["repro_wait_seconds_count"][()] == 1.0

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_exposition("this is not exposition format")

    def test_comments_and_blanks_skipped(self):
        parsed = parse_exposition("# HELP x y\n\n# TYPE x counter\nx 1\n")
        assert parsed == {"x": {(): 1.0}}


class TestThreadSafety:
    THREADS = 8
    PER_THREAD = 500

    def test_concurrent_counter_and_histogram_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labelnames=("t",))
        hist = registry.histogram("h_seconds", buckets=DEFAULT_BUCKETS)
        start = threading.Barrier(self.THREADS)

        def hammer(tid: int) -> None:
            start.wait()
            for _ in range(self.PER_THREAD):
                counter.labels(t=str(tid % 2)).inc()
                hist.observe(0.01 * (tid + 1))

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = self.THREADS * self.PER_THREAD
        assert (
            counter.labels(t="0").value + counter.labels(t="1").value == total
        )
        child = hist.labels()  # the unlabelled family's single child
        assert child.count == total
        assert dict(child.cumulative())[math.inf] == total

    def test_concurrent_registration_yields_one_family(self):
        registry = MetricsRegistry()
        families = []
        start = threading.Barrier(self.THREADS)

        def register() -> None:
            start.wait()
            families.append(registry.counter("same_total", "", ("k",)))

        threads = [
            threading.Thread(target=register) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(f is families[0] for f in families)
