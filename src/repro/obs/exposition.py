"""Prometheus text exposition for a :class:`repro.obs.metrics.MetricSet`.

Renders a metric set's snapshot (in the service: the locked
:class:`repro.obs.runtime.RuntimeMetrics` registry) as the Prometheus
text format (version 0.0.4): ``# HELP``/``# TYPE`` headers, escaped
label values, cumulative ``le`` histogram buckets ending in ``+Inf``,
``_sum``/``_count`` series.
The output is deterministic for a given set's state — families and
series render name-sorted — which is what lets the test suite pin a
golden scrape byte for byte.

Also ships :func:`parse_exposition`, the minimal inverse used by
``repro-study metrics --live`` and the exposition tests: it maps flat
series strings (``name{label="x"}``) back to float values, enough to
drive a ticker or assert on a scrape without a Prometheus client
library.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from .metrics import KIND_HISTOGRAM, MetricSet

#: The content type a /metrics response must declare.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value (backslash, double quote, newline)."""
    return (text.replace("\\", "\\\\")
                .replace('"', '\\"')
                .replace("\n", "\\n"))


def format_value(value: float) -> str:
    """Render a sample value: integral floats as integers, else repr."""
    number = float(value)
    if number != number:
        return "NaN"
    if number == float("inf"):
        return "+Inf"
    if number == float("-inf"):
        return "-Inf"
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _labels_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join('%s="%s"' % (key, escape_label_value(str(value)))
                     for key, value in sorted(labels.items()))
    return "{%s}" % inner


def _render_histogram(lines: List[str], name: str,
                      labels: Mapping[str, str],
                      histogram: Mapping[str, object]) -> None:
    """Append one :meth:`Histogram.as_dict` record's exposition lines."""
    edges = [format_value(bound) for bound in histogram["bounds"]]
    cumulative = 0
    for edge, count in zip(edges + ["+Inf"], histogram["bucket_counts"]):
        cumulative += count
        lines.append("%s_bucket%s %d" % (
            name, _labels_text(dict(labels, le=edge)), cumulative))
    lines.append("%s_sum%s %s" % (name, _labels_text(labels),
                                  format_value(histogram["total"])))
    lines.append("%s_count%s %d" % (name, _labels_text(labels),
                                    histogram["count"]))


def render_prometheus(metrics: MetricSet) -> str:
    """The metric set as Prometheus text; ends with a newline."""
    lines: List[str] = []
    for family in metrics.families():
        name = str(family["name"])
        kind = str(family["kind"])
        help_text = str(family.get("help") or "")
        if help_text:
            lines.append("# HELP %s %s" % (name, escape_help(help_text)))
        lines.append("# TYPE %s %s" % (name, kind))
        for entry in family["series"]:  # type: ignore[union-attr]
            labels = entry.get("labels", {})  # type: ignore[union-attr]
            if kind == KIND_HISTOGRAM:
                _render_histogram(lines, name, labels,
                                  entry["histogram"])  # type: ignore[index]
            else:
                lines.append("%s%s %s"
                             % (name, _labels_text(labels),
                                format_value(entry["value"])))  # type: ignore[index,arg-type]
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> Dict[str, float]:
    """Flat ``series string -> value`` map from exposition text.

    Series keys keep their label block verbatim (sorted as rendered),
    e.g. ``repro_service_jobs{state="running"}``.  Comment lines and
    blank lines are skipped; unparsable sample lines are ignored rather
    than raised, since a scraper must tolerate families it does not
    know.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value_text = line.rpartition(" ")
        if not series:
            continue
        try:
            value = _parse_value(value_text)
        except ValueError:
            continue
        values[series] = value
    return values


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


__all__ = [
    "CONTENT_TYPE",
    "escape_help",
    "escape_label_value",
    "format_value",
    "parse_exposition",
    "render_prometheus",
]
