"""Deterministic fault injection: plan, server wrapper, flaky resolver."""

import pytest

from repro.dnssim import FlakyResolver
from repro.netsim import Headers, HttpRequest, Url
from repro.netsim.faults import (
    FAULT_DEAD,
    FAULT_DNS,
    FAULT_HTTP_429,
    FAULT_TIMEOUT,
    RETRYABLE_STATUSES,
    TRANSIENT_FAULT_KINDS,
    ConnectionReset,
    ConnectionTimeout,
    FaultPlan,
    NetworkError,
    http_fault_status,
)
from repro.websim import build_default_catalog, Website, wrap_server
from repro.websim.population import Population
from repro.websim.server import WebServer


def _get(url):
    return HttpRequest(method="GET", url=Url.parse(url), headers=Headers())


def _server():
    sites = {"shop.example": Website(domain="shop.example")}
    return WebServer(sites=sites, catalog=build_default_catalog())


# -- FaultPlan ----------------------------------------------------------


def test_same_seed_reproduces_identical_decisions():
    plans = [FaultPlan(seed=3, transient_rate=0.5) for _ in range(2)]
    sequences = []
    for plan in plans:
        decisions = []
        for _ in range(50):
            decisions.append(plan.next_dns_fault("www.shop.example",
                                                 origin="shop.example"))
            decisions.append(plan.next_fault("shop.example"))
        sequences.append(decisions)
    assert sequences[0] == sequences[1]
    assert plans[0].failure_log() == plans[1].failure_log()
    assert any(kind is not None for kind in sequences[0])


def test_different_seeds_differ():
    a = FaultPlan(seed=1, transient_rate=0.5)
    b = FaultPlan(seed=2, transient_rate=0.5)
    seq_a = [a.next_fault("shop.example") for _ in range(50)]
    seq_b = [b.next_fault("shop.example") for _ in range(50)]
    assert seq_a != seq_b


def test_burst_cap_shared_across_dns_and_http_gates():
    # Even at rate ~1 the combined dns+http fault streak per origin never
    # exceeds max_consecutive before the HTTP gate forces a pass-through.
    plan = FaultPlan(seed=0, transient_rate=0.99, dns_rate=0.99,
                     max_consecutive=2)
    streak = 0
    for _ in range(200):
        faults_this_exchange = 0
        if plan.next_dns_fault("www.shop.example",
                               origin="shop.example") is not None:
            faults_this_exchange += 1
            streak += 1
        else:
            http = plan.next_fault("shop.example")
            if http is not None:
                faults_this_exchange += 1
                streak += 1
            else:
                streak = 0
        assert streak <= plan.max_consecutive
    assert plan.fault_counts()


def test_zero_rates_never_fault():
    plan = FaultPlan(seed=5, transient_rate=0.0, dns_rate=0.0)
    for _ in range(100):
        assert plan.next_fault("shop.example") is None
        assert plan.next_dns_fault("www.shop.example",
                                   origin="shop.example") is None
    assert plan.failure_log() == ()


def test_dead_origins_always_fault():
    plan = FaultPlan(seed=0, transient_rate=0.0,
                     dead_origins=["gone.example"])
    assert plan.is_dead("gone.example")
    assert not plan.is_dead("shop.example")
    for _ in range(10):
        assert plan.next_fault("gone.example") == FAULT_DEAD
    assert all(event.kind == FAULT_DEAD for event in plan.failure_log())


def test_dead_rate_draw_is_deterministic():
    plan = FaultPlan(seed=9, dead_rate=0.5)
    verdicts = {name: plan.is_dead(name)
                for name in ("a.example", "b.example", "c.example",
                             "d.example", "e.example", "f.example")}
    again = FaultPlan(seed=9, dead_rate=0.5)
    assert verdicts == {name: again.is_dead(name) for name in verdicts}
    assert set(verdicts.values()) == {True, False}


def test_plan_validates_rates():
    with pytest.raises(ValueError):
        FaultPlan(transient_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(dead_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(max_consecutive=-1)


def test_fault_counts_and_http_status_mapping():
    assert http_fault_status(FAULT_HTTP_429) == 429
    assert http_fault_status(FAULT_TIMEOUT) is None
    assert 429 in RETRYABLE_STATUSES and 503 in RETRYABLE_STATUSES
    plan = FaultPlan(seed=1, transient_rate=0.8)
    for _ in range(100):
        plan.next_fault("shop.example")
    counts = plan.fault_counts()
    assert sum(counts.values()) == len(plan.failure_log())
    assert set(counts) <= set(TRANSIENT_FAULT_KINDS)


# -- FaultyServer -------------------------------------------------------


def test_wrap_server_identity_without_plan():
    server = _server()
    assert wrap_server(server, None) is server


def test_faulty_server_dead_origin_times_out():
    server = wrap_server(_server(), FaultPlan(
        seed=0, transient_rate=0.0, dead_origins=["shop.example"]))
    with pytest.raises(ConnectionTimeout) as excinfo:
        server.handle(_get("https://www.shop.example/"))
    # The client cannot tell dead from slow: it surfaces as a timeout.
    assert excinfo.value.kind == FAULT_TIMEOUT


def test_faulty_server_kinds_surface_correctly():
    # High rate so every planned kind shows up quickly.
    plan = FaultPlan(seed=4, transient_rate=0.9, max_consecutive=1000,
                     slow_seconds=60.0)
    server = wrap_server(_server(), plan)
    statuses, transport_kinds, latencies = set(), set(), []
    for _ in range(300):
        try:
            response = server.handle(_get("https://www.shop.example/"))
        except NetworkError as exc:
            transport_kinds.add(exc.kind)
            continue
        statuses.add(response.status)
        latency = response.latency_seconds
        if latency is not None:
            latencies.append(latency)
    assert {429, 500, 503} <= statuses
    assert transport_kinds >= {"timeout", "reset"}
    assert latencies and all(value == 60.0 for value in latencies)


def test_faulty_server_passthrough_reaches_origin():
    server = wrap_server(_server(), FaultPlan(seed=0, transient_rate=0.0))
    response = server.handle(_get("https://www.shop.example/"))
    assert response.status == 200


# -- FlakyResolver ------------------------------------------------------


def test_flaky_resolver_injects_dns_timeouts():
    population = Population(
        sites={"shop.example": Website(domain="shop.example")},
        catalog=build_default_catalog())
    plan = FaultPlan(seed=2, transient_rate=0.0, dns_rate=0.9,
                     max_consecutive=1000)
    resolver = FlakyResolver(population.resolver(), plan)
    raised = 0
    for _ in range(50):
        try:
            assert resolver.exists("www.shop.example") in (True, False)
        except ConnectionTimeout as exc:
            assert exc.kind == FAULT_DNS
            raised += 1
    assert raised > 0
    # Analysis-side lookups are never faulted.
    for _ in range(50):
        resolver.resolve("www.shop.example")
        resolver.cname_chain("www.shop.example")


def test_population_resolver_wraps_only_with_plan():
    population = Population(
        sites={"shop.example": Website(domain="shop.example")},
        catalog=build_default_catalog())
    assert not isinstance(population.resolver(), FlakyResolver)
    assert isinstance(population.resolver(fault_plan=FaultPlan()),
                      FlakyResolver)


def test_network_error_hierarchy():
    assert issubclass(ConnectionTimeout, NetworkError)
    assert issubclass(ConnectionReset, NetworkError)
    error = ConnectionReset("shop.example")
    assert error.kind == "reset"
    assert "shop.example" in str(error)
