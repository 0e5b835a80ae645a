"""Bootstrap statistics and tracker-graph analytics."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LeakAnalysis, LeakEvent
from repro.core.stats import (
    BootstrapResult,
    bootstrap_ci,
    headline_intervals,
    sender_degree_sample,
)
from repro.tracking import (
    ExposureSummary,
    build_leak_graph,
    coverage_curve,
    exposure_summary,
    receiver_cooccurrence,
    receiver_reach,
)


def _event(sender, receiver, **kwargs):
    defaults = dict(request_host="x." + receiver, channel="uri",
                    location="query", pii_type="email", chain=("sha256",),
                    parameter="uid", stage="signup",
                    url="https://x.%s/p" % receiver)
    defaults.update(kwargs)
    return LeakEvent(sender=sender, receiver=receiver, **defaults)


@pytest.fixture(scope="module")
def small_analysis():
    events = [
        _event("s1.example", "big.example"),
        _event("s2.example", "big.example"),
        _event("s3.example", "big.example"),
        _event("s1.example", "mid.example"),
        _event("s2.example", "mid.example"),
        _event("s3.example", "solo.example"),
    ]
    return LeakAnalysis(events)


# -- bootstrap ---------------------------------------------------------------

def _mean(values):
    return sum(values) / len(values)


def test_bootstrap_deterministic():
    values = [1, 2, 3, 4, 5, 6]
    first = bootstrap_ci(values, _mean, seed=7)
    second = bootstrap_ci(values, _mean, seed=7)
    assert first == second


def test_bootstrap_interval_contains_estimate():
    values = [1, 2, 3, 4, 5, 6, 7, 8]
    result = bootstrap_ci(values, _mean)
    assert result.low <= result.estimate <= result.high
    assert result.samples == 8


def test_bootstrap_constant_sample_degenerate():
    result = bootstrap_ci([5, 5, 5, 5], _mean)
    assert result.low == result.high == result.estimate == 5.0


def test_bootstrap_interval_narrows_with_sample_size():
    small = bootstrap_ci([1, 9] * 5, _mean, seed=1)
    large = bootstrap_ci([1, 9] * 100, _mean, seed=1)
    assert (large.high - large.low) < (small.high - small.low)


def test_bootstrap_validation():
    with pytest.raises(ValueError):
        bootstrap_ci([], _mean)
    with pytest.raises(ValueError):
        bootstrap_ci([1], _mean, confidence=1.5)


def test_bootstrap_contains_helper():
    result = BootstrapResult(estimate=2.0, low=1.5, high=2.5,
                             confidence=0.95, samples=10)
    assert result.contains(2.0) and result.contains(1.5)
    assert not result.contains(3.0)
    assert "95% CI" in str(result)


def test_sender_degree_sample(small_analysis):
    assert sorted(sender_degree_sample(small_analysis)) == [2, 2, 2]


def test_headline_intervals(small_analysis):
    intervals = headline_intervals(small_analysis, n_resamples=200)
    assert intervals["mean_receivers_per_sender"].estimate == 2.0
    assert 0 <= intervals["pct_senders_with_3plus"].estimate <= 100


def test_headline_intervals_on_calibrated_crawl(analysis):
    from repro.datasets import paper
    intervals = headline_intervals(analysis, n_resamples=500)
    mean_ci = intervals["mean_receivers_per_sender"]
    # The paper's value lies within the measured bootstrap interval.
    assert mean_ci.contains(paper.MEAN_RECEIVERS_PER_SENDER)


# -- graph --------------------------------------------------------------------

def test_graph_structure(small_analysis):
    graph = build_leak_graph(small_analysis)
    assert graph.number_of_nodes() == 6
    assert graph.number_of_edges() == 6
    assert graph.roles("s1.example") == ("sender",)
    assert graph.roles("big.example") == ("receiver",)
    assert graph.channels("s1.example", "big.example") == ("uri",)


def test_receiver_reach(small_analysis):
    reach = receiver_reach(build_leak_graph(small_analysis))
    assert reach == {"big.example": 3, "mid.example": 2,
                     "solo.example": 1}


def test_coverage_curve_monotone(small_analysis):
    curve = coverage_curve(build_leak_graph(small_analysis))
    assert curve[0][0] == 1
    percentages = [pct for _, pct in curve]
    assert percentages == sorted(percentages)
    assert percentages[-1] == 100.0


def test_cooccurrence(small_analysis):
    pairs = receiver_cooccurrence(build_leak_graph(small_analysis),
                                  min_shared=2)
    assert pairs == [("big.example", "mid.example", 2)]


def test_exposure_summary(small_analysis):
    events = small_analysis.events + [_event("s1.example", "facebook.com")]
    summary = exposure_summary(LeakAnalysis(events))
    assert summary.flows_with_leakage == 3
    assert summary.max_receivers_per_flow == 3
    assert summary.pct_flows_feeding_facebook == pytest.approx(100 / 3)


def test_exposure_summary_empty():
    summary = exposure_summary(LeakAnalysis([]))
    assert summary.flows_with_leakage == 0
    assert summary.mean_receivers_per_flow == 0.0


def test_coverage_curve_on_calibrated_crawl(analysis):
    curve = coverage_curve(build_leak_graph(analysis))
    assert len(curve) == 100
    # Blocking every receiver covers every sender.
    assert curve[-1][1] == 100.0
    # The ecosystem is concentrated: the top 20 receivers already fully
    # cover a majority-sized share of senders... measured, not assumed:
    top20 = dict(curve)[20]
    assert top20 > 25.0


# The digest of every graph output on the calibrated crawl, computed with
# the networkx implementation the plain-dict graph replaced.
CALIBRATED_GRAPH_DIGEST = (
    "378b31ea45698fbc61798b355deb9676af4ab129289d440e507778aa9342ec0c")


def _graph_outputs(analysis, graph):
    return (list(receiver_reach(graph).items()), coverage_curve(graph),
            receiver_cooccurrence(graph, min_shared=2),
            receiver_cooccurrence(graph, min_shared=10),
            exposure_summary(analysis))


def test_graph_outputs_match_the_pinned_digest(analysis):
    outputs = _graph_outputs(analysis, build_leak_graph(analysis))
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == CALIBRATED_GRAPH_DIGEST


def test_a_domain_that_sends_and_receives_keeps_both_roles():
    analysis = LeakAnalysis([_event("a.example", "b.example"),
                             _event("c.example", "a.example")])
    graph = build_leak_graph(analysis)
    assert graph.roles("a.example") == ("sender", "receiver")
    assert graph.number_of_nodes() == 3
    assert graph.number_of_edges() == 2
    # Only c.example feeds a.example; a.example's own receiver is not
    # part of its reach.
    assert receiver_reach(graph) == {"b.example": 1, "a.example": 1}
    # Blocking b.example alone fully covers a.example, one of two senders.
    assert coverage_curve(graph) == [(1, 50.0), (2, 100.0)]
    summary = exposure_summary(analysis)
    assert summary.flows_with_leakage == 2
    assert summary.mean_receivers_per_flow == 1.0


# -- differential check against the networkx implementation ------------------

def _reference_build_leak_graph(nx, analysis):
    """The networkx graph: nodes carry ``kind``, edges their channels."""
    graph = nx.Graph()
    for rel in analysis.relationships():
        graph.add_node(rel.sender, kind="sender")
        graph.add_node(rel.receiver, kind="receiver")
        graph.add_edge(rel.sender, rel.receiver,
                       channels=tuple(sorted(rel.channels)),
                       encodings=tuple(sorted(rel.encodings)))
    return graph


def _reference_nodes(graph, kind):
    return [node for node, data in graph.nodes(data=True)
            if data["kind"] == kind]


def _reference_receiver_reach(graph):
    return {node: graph.degree(node)
            for node in _reference_nodes(graph, "receiver")}


def _reference_coverage_curve(graph):
    senders = _reference_nodes(graph, "sender")
    ranked = sorted(_reference_receiver_reach(graph).items(),
                    key=lambda item: (-item[1], item[0]))
    curve = []
    blocked_receivers = set()
    for k, (receiver, _) in enumerate(ranked, start=1):
        blocked_receivers.add(receiver)
        fully_covered = sum(
            1 for sender in senders
            if set(graph.neighbors(sender)) <= blocked_receivers)
        curve.append((k, 100.0 * fully_covered / len(senders)))
    return curve


def _reference_receiver_cooccurrence(graph, min_shared):
    receivers = _reference_nodes(graph, "receiver")
    pairs = []
    for index, first in enumerate(receivers):
        first_senders = set(graph.neighbors(first))
        for second in receivers[index + 1:]:
            shared = len(first_senders & set(graph.neighbors(second)))
            if shared >= min_shared:
                ordered = tuple(sorted((first, second)))
                pairs.append((ordered[0], ordered[1], shared))
    pairs.sort(key=lambda item: (-item[2], item[0], item[1]))
    return pairs


def _reference_exposure_summary(nx, analysis):
    graph = _reference_build_leak_graph(nx, analysis)
    senders = _reference_nodes(graph, "sender")
    if not senders:
        return ExposureSummary(0, 0.0, 0, 0.0)
    degrees = [graph.degree(sender) for sender in senders]
    facebook = sum(1 for sender in senders
                   if graph.has_edge(sender, "facebook.com"))
    return ExposureSummary(
        flows_with_leakage=len(senders),
        mean_receivers_per_flow=sum(degrees) / len(degrees),
        max_receivers_per_flow=max(degrees),
        pct_flows_feeding_facebook=100.0 * facebook / len(senders))


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


# Senders and receivers come from disjoint name pools, so no domain
# plays both roles (where the networkx graph kept only the last one).
_edge_lists = st.lists(
    st.tuples(st.sampled_from(["s%d.example" % i for i in range(6)]),
              st.sampled_from(["r%d.example" % i for i in range(5)]
                              + ["facebook.com"]),
              st.sampled_from(["uri", "referer", "cookie", "payload"])),
    max_size=30)


@settings(max_examples=300, deadline=None)
@given(_edge_lists)
def test_graph_matches_the_networkx_reference(nx, edges):
    analysis = LeakAnalysis([_event(sender, receiver, channel=channel)
                             for sender, receiver, channel in edges])
    graph = build_leak_graph(analysis)
    reference = _reference_build_leak_graph(nx, analysis)
    assert graph.number_of_nodes() == reference.number_of_nodes()
    assert graph.number_of_edges() == reference.number_of_edges()
    for node, data in reference.nodes(data=True):
        assert graph.roles(node) == (data["kind"],)
    for sender, receiver, data in reference.edges(data=True):
        if reference.nodes[sender]["kind"] != "sender":
            sender, receiver = receiver, sender
        assert graph.channels(sender, receiver) == data["channels"]
    assert list(receiver_reach(graph).items()) == \
        list(_reference_receiver_reach(reference).items())
    assert coverage_curve(graph) == _reference_coverage_curve(reference)
    for min_shared in (1, 2, 3):
        assert receiver_cooccurrence(graph, min_shared) == \
            _reference_receiver_cooccurrence(reference, min_shared)
    assert exposure_summary(analysis) == \
        _reference_exposure_summary(nx, analysis)
