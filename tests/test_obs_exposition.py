"""Prometheus text exposition: escaping, cumulativity, golden scrape.

The golden test is the load-bearing one: rendering is name-sorted and
value formatting deterministic, so a busy fake registry must scrape to
*exactly* the text below, byte for byte.  If a rendering change is
intentional, update the golden block to match — consciously.
"""

import math

from repro.obs.exposition import (
    CONTENT_TYPE,
    escape_help,
    escape_label_value,
    format_value,
    parse_exposition,
    render_prometheus,
)
from repro.obs.metrics import MetricSet
from repro.obs.runtime import RuntimeMetrics

# -- escaping & value formatting ------------------------------------------


def test_help_escapes_backslash_and_newline():
    assert escape_help("a\\b\nc") == "a\\\\b\\nc"


def test_label_value_escapes_quote_too():
    assert escape_label_value('say "hi"\\now\n') == 'say \\"hi\\"\\\\now\\n'


def test_format_value_integral_floats_render_as_ints():
    assert format_value(3.0) == "3"
    assert format_value(0.0) == "0"
    assert format_value(-2.0) == "-2"


def test_format_value_fractions_and_specials():
    assert format_value(0.25) == "0.25"
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"
    assert format_value(float("nan")) == "NaN"


def test_content_type_is_the_prometheus_text_format():
    assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


# -- structural properties ------------------------------------------------


def test_every_family_gets_a_type_line():
    metrics = RuntimeMetrics()
    metrics.inc("c_total")
    metrics.set_gauge("g", 1)
    metrics.observe("h_seconds", 0.1)
    text = render_prometheus(metrics)
    assert "# TYPE c_total counter" in text
    assert "# TYPE g gauge" in text
    assert "# TYPE h_seconds histogram" in text
    assert text.endswith("\n")


def test_empty_registry_renders_empty():
    assert render_prometheus(RuntimeMetrics()) == ""


def test_label_values_are_escaped_in_sample_lines():
    metrics = RuntimeMetrics()
    metrics.inc("odd", labels={"path": 'a"b\\c\nd'})
    text = render_prometheus(metrics)
    assert 'odd{path="a\\"b\\\\c\\nd"} 1' in text


def test_histogram_buckets_are_cumulative_and_end_in_inf():
    metrics = MetricSet()
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        metrics.observe("lat_seconds", value, bounds=(0.1, 1.0, 10.0))
    lines = render_prometheus(metrics).splitlines()
    assert lines == [
        "# TYPE lat_seconds histogram",
        'lat_seconds_bucket{le="0.1"} 1',
        'lat_seconds_bucket{le="1"} 3',
        'lat_seconds_bucket{le="10"} 4',
        'lat_seconds_bucket{le="+Inf"} 5',
        "lat_seconds_sum 56.05",
        "lat_seconds_count 5",
    ]


def test_histogram_with_labels_keeps_them_on_every_line():
    metrics = MetricSet()
    metrics.observe("lat", 0.5, labels={"stage": "crawl"}, bounds=(1.0,))
    text = render_prometheus(metrics)
    assert 'lat_bucket{le="1",stage="crawl"} 1' in text
    assert 'lat_sum{stage="crawl"} 0.5' in text
    assert 'lat_count{stage="crawl"} 1' in text


# -- the golden scrape ----------------------------------------------------

_GOLDEN = """\
# HELP repro_http_requests_total HTTP requests served.
# TYPE repro_http_requests_total counter
repro_http_requests_total{method="GET",status="200"} 2
repro_http_requests_total{method="POST",status="404"} 1
# HELP repro_service_queue_depth Jobs queued.
# TYPE repro_service_queue_depth gauge
repro_service_queue_depth 3
# HELP repro_service_submit_seconds Submit latency.
# TYPE repro_service_submit_seconds histogram
repro_service_submit_seconds_bucket{le="0.005"} 1
repro_service_submit_seconds_bucket{le="0.05"} 2
repro_service_submit_seconds_bucket{le="+Inf"} 3
repro_service_submit_seconds_sum 1.53515625
repro_service_submit_seconds_count 3
"""


def _busy_registry():
    metrics = RuntimeMetrics()
    metrics.inc("repro_http_requests_total", help="HTTP requests served.",
                labels={"method": "GET", "status": "200"})
    metrics.inc("repro_http_requests_total",
                labels={"method": "GET", "status": "200"})
    metrics.inc("repro_http_requests_total",
                labels={"method": "POST", "status": "404"})
    metrics.set_gauge("repro_service_queue_depth", 3, help="Jobs queued.")
    # Binary-exact observations so the _sum line is byte-stable.
    for value in (0.00390625, 0.03125, 1.5):
        metrics.observe("repro_service_submit_seconds", value,
                        help="Submit latency.", bounds=(0.005, 0.05))
    return metrics


def test_busy_registry_scrapes_to_the_golden_text():
    assert render_prometheus(_busy_registry()) == _GOLDEN


def test_two_snapshots_of_the_same_state_are_byte_identical():
    metrics = _busy_registry()
    assert render_prometheus(metrics) == render_prometheus(metrics)


# -- the scrape parser ----------------------------------------------------


def test_parse_round_trips_the_golden_scrape():
    values = parse_exposition(_GOLDEN)
    assert values['repro_http_requests_total{method="GET",status="200"}'] == 2
    assert values["repro_service_queue_depth"] == 3
    assert values['repro_service_submit_seconds_bucket{le="+Inf"}'] == 3
    assert values["repro_service_submit_seconds_sum"] == 1.53515625
    # Comment lines never become series.
    assert not any(key.startswith("#") for key in values)


def test_parse_skips_comments_blanks_and_garbage():
    values = parse_exposition("# HELP x y\n\nnot-a-number-line abc\nok 4\n")
    assert values == {"ok": 4.0}


def test_parse_handles_special_values():
    values = parse_exposition("a +Inf\nb -Inf\nc NaN\n")
    assert values["a"] == float("inf")
    assert values["b"] == float("-inf")
    assert math.isnan(values["c"])
