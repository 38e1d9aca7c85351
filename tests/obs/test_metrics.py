"""Unit tests for repro.obs.metrics: typed instruments, owner
registries, the registry renderer, and the strict exposition parser."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
    render_prometheus,
)


class TestInstruments:
    def test_counter_is_monotone(self):
        counter = Counter("repro_test_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        assert counter.snapshot() == {"type": "counter", "value": 3.5}

    def test_gauge_reads_its_function(self):
        level = [10]
        gauge = Gauge("repro_test_level", lambda: level[0])
        assert gauge.value == 10
        level[0] = 3
        assert gauge.snapshot() == {"type": "gauge", "value": 3}

    def test_counter_with_read_function_reports_it(self):
        total = [4]
        counter = Counter("repro_test_runs", read=lambda: total[0])
        total[0] = 9
        assert counter.value == 9
        assert counter.snapshot() == {"type": "counter", "value": 9}

    def test_counter_reset_zeroes_the_count(self):
        counter = Counter("repro_test_total")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0

    def test_histogram_snapshot_is_cumulative(self):
        histogram = Histogram("repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):  # 50 > top bucket
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["type"] == "histogram"
        assert snapshot["buckets"] == [(0.1, 1), (1.0, 3), (10.0, 4)]
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(56.05)

    def test_histogram_ignores_non_finite_observations(self):
        histogram = Histogram("repro_test_seconds")
        histogram.observe(math.nan)
        histogram.observe(math.inf)
        assert histogram.count == 0

    def test_histogram_bucket_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            Histogram("repro_bad", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Histogram("repro_bad", buckets=(1.0, math.inf))
        with pytest.raises(ValueError, match="bucket"):
            Histogram("repro_bad", buckets=())

    def test_default_latency_buckets_are_log_spaced_and_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) \
            == sorted(set(DEFAULT_LATENCY_BUCKETS))
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.0005
        assert DEFAULT_LATENCY_BUCKETS[-1] == 50.0

    def test_metric_names_validated(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("1starts-with-digit")


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("repro_a") is registry.counter("repro_a")
        registry.counter("repro_a").inc()
        assert registry.snapshot()["repro_a"]["value"] == 1.0

    def test_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_a")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("repro_a", lambda: 0)
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("repro_a")

    def test_snapshot_is_name_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("repro_z", lambda: 1)
        registry.counter("repro_a")
        assert list(registry.snapshot()) == ["repro_a", "repro_z"]

    def test_values_strip_the_prefix_and_skip_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_queue_submitted").inc(2)
        registry.gauge("repro_queue_pending", lambda: 1)
        registry.histogram("repro_queue_wait_seconds").observe(0.1)
        registry.counter("repro_other_total")
        assert registry.values("repro_queue_") \
            == {"pending": 1, "submitted": 2}


class TestRenderPrometheus:
    def test_each_family_is_typed_by_its_instrument(self):
        registry = MetricsRegistry()
        registry.counter("repro_queue_submitted").inc(4)
        registry.gauge("repro_queue_pending", lambda: 1)
        text = render_prometheus(registry)
        assert "# TYPE repro_queue_submitted counter\n" \
            "repro_queue_submitted 4\n" in text
        assert "# TYPE repro_queue_pending gauge\n" \
            "repro_queue_pending 1\n" in text
        parse_exposition(text)  # and the result is valid 0.0.4

    def test_non_finite_and_missing_gauge_samples_are_skipped(self):
        registry = MetricsRegistry()
        registry.gauge("repro_bad", lambda: float("nan"))
        registry.gauge("repro_worse", lambda: float("inf"))
        registry.gauge("repro_unset", lambda: None)
        registry.gauge("repro_ok", lambda: 2)
        assert render_prometheus(registry) \
            == "# TYPE repro_ok gauge\nrepro_ok 2\n"

    def test_boolean_gauges_render_as_integers(self):
        registry = MetricsRegistry()
        registry.gauge("repro_store_shared", lambda: True)
        assert "repro_store_shared 1\n" in render_prometheus(registry)

    def test_merges_registries_and_rejects_a_family_declared_twice(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("repro_b")
        second.counter("repro_a")
        text = render_prometheus(first, second)
        assert text.index("repro_a") < text.index("repro_b")
        second.gauge("repro_b", lambda: 0)
        with pytest.raises(ValueError, match="declared by two registries"):
            render_prometheus(first, second)

    def test_registry_histograms_render_full_family(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_wait_seconds",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(7.0)
        registry.counter("repro_fleet_submits_role_guest").inc(2)
        text = render_prometheus(registry)
        families = parse_exposition(text)
        assert families["repro_wait_seconds"]["type"] == "histogram"
        samples = {name: value for name, labels, value
                   in families["repro_wait_seconds"]["samples"]
                   if name != "repro_wait_seconds_bucket"}
        assert samples["repro_wait_seconds_count"] == 3
        assert samples["repro_wait_seconds_sum"] == pytest.approx(7.55)
        buckets = [(labels["le"], value) for name, labels, value
                   in families["repro_wait_seconds"]["samples"]
                   if name == "repro_wait_seconds_bucket"]
        assert buckets == [("0.1", 1.0), ("1", 2.0), ("+Inf", 3.0)]
        assert families["repro_fleet_submits_role_guest"]["type"] \
            == "counter"

    def test_deterministic_and_newline_terminated(self):
        registry = MetricsRegistry()
        registry.counter("repro_b").inc(2)
        registry.gauge("repro_a_c", lambda: 1)
        first = render_prometheus(registry)
        assert first == render_prometheus(registry)
        assert first.endswith("\n")


class TestParseExposition:
    def test_rejects_sample_without_type_line(self):
        with pytest.raises(ValueError, match="no preceding # TYPE"):
            parse_exposition("repro_x 1\n")

    def test_rejects_duplicate_series_and_type(self):
        with pytest.raises(ValueError, match="duplicate series"):
            parse_exposition("# TYPE repro_x gauge\n"
                             "repro_x 1\nrepro_x 2\n")
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_exposition("# TYPE repro_x gauge\n"
                             "# TYPE repro_x counter\n")

    def test_rejects_missing_trailing_newline_and_bad_values(self):
        with pytest.raises(ValueError, match="newline"):
            parse_exposition("# TYPE repro_x gauge\nrepro_x 1")
        with pytest.raises(ValueError, match="non-float"):
            parse_exposition("# TYPE repro_x gauge\nrepro_x one\n")

    def test_rejects_non_cumulative_histogram(self):
        text = ("# TYPE repro_h histogram\n"
                'repro_h_bucket{le="0.1"} 5\n'
                'repro_h_bucket{le="+Inf"} 3\n'
                "repro_h_sum 1.0\n"
                "repro_h_count 3\n")
        with pytest.raises(ValueError, match="not cumulative"):
            parse_exposition(text)

    def test_rejects_histogram_missing_inf_or_count_mismatch(self):
        with pytest.raises(ValueError, match=r"missing \+Inf"):
            parse_exposition("# TYPE repro_h histogram\n"
                             'repro_h_bucket{le="1"} 1\n'
                             "repro_h_sum 1.0\nrepro_h_count 1\n")
        with pytest.raises(ValueError, match="!= _count"):
            parse_exposition("# TYPE repro_h histogram\n"
                             'repro_h_bucket{le="+Inf"} 2\n'
                             "repro_h_sum 1.0\nrepro_h_count 3\n")

    def test_accepts_well_formed_families(self):
        text = ("# TYPE repro_up gauge\nrepro_up 1\n"
                "# TYPE repro_total counter\nrepro_total 7\n"
                "# TYPE repro_h histogram\n"
                'repro_h_bucket{le="0.5"} 2\n'
                'repro_h_bucket{le="+Inf"} 4\n'
                "repro_h_sum 3.25\nrepro_h_count 4\n")
        families = parse_exposition(text)
        assert families["repro_up"]["type"] == "gauge"
        assert families["repro_total"]["type"] == "counter"
        assert families["repro_h"]["type"] == "histogram"
