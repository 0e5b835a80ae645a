"""Endpoint integration: a live service on an ephemeral port.

Every endpoint documented in docs/SERVICE.md is exercised here over
real HTTP — ``urllib`` against ``127.0.0.1`` — including the SSE
stream's replay-then-follow behaviour, the queue-full backpressure
contract (503 + ``Retry-After``), and the error statuses (400, 404,
405, 409).

Two service instances back the tests: ``service`` (one runner) for the
happy paths, and ``parked`` (zero runners, capacity one) where jobs
deterministically stay queued — that is what makes the backpressure
and not-ready assertions race-free.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import (
    STATE_COMPLETE,
    JobSpec,
    JobStore,
    ServiceConfig,
    StudyService,
)

TIMEOUT = 60.0

SPEC = {"schema": 1, "kind": "study", "seed": 7, "sites": 6,
        "trackers": 3, "workers": 2}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServiceConfig(port=0, jobs_dir=str(
        tmp_path_factory.mktemp("jobs")), runners=1, queue_size=4)
    svc = StudyService(config)
    svc.start()
    svc.start_in_thread()
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def base(service):
    return "http://127.0.0.1:%d" % service.port


@pytest.fixture(scope="module")
def parked(tmp_path_factory):
    """Zero runners, capacity one: jobs stay queued forever."""
    config = ServiceConfig(port=0, jobs_dir=str(
        tmp_path_factory.mktemp("parked")), runners=0, queue_size=1)
    svc = StudyService(config)
    svc.start()
    svc.start_in_thread()
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def parked_base(parked):
    return "http://127.0.0.1:%d" % parked.port


def fetch(url, payload=None, method=None):
    """(status, headers, parsed body) without raising on 4xx/5xx."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT) as resp:
            return resp.status, dict(resp.headers), _parse(resp)
    except urllib.error.HTTPError as exc:
        body = exc.read().decode()
        try:
            parsed = json.loads(body)
        except ValueError:
            parsed = body
        return exc.code, dict(exc.headers), parsed


def _parse(resp):
    body = resp.read().decode()
    if (resp.headers.get("Content-Type") or "").startswith(
            "application/json"):
        return json.loads(body)
    return body


def sse_frames(url, headers=None):
    """Consume one SSE stream to connection close; yield parsed frames."""
    frames = []
    frame = {}
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=TIMEOUT) as resp:
        assert resp.headers["Content-Type"].startswith("text/event-stream")
        for raw in resp:
            line = raw.decode().rstrip("\n")
            if not line:
                if frame:
                    frames.append(frame)
                    frame = {}
                continue
            key, _, value = line.partition(": ")
            frame[key] = value
    return frames


@pytest.fixture(scope="module")
def finished_job(base):
    """One study submitted and run to completion, shared by the reads."""
    status, headers, body = fetch(base + "/studies", payload=SPEC)
    assert status == 202
    assert headers["Location"] == "/studies/%s" % body["id"]
    assert body["state"] == "queued"
    # Following the stream blocks until the job ends — no polling.
    frames = sse_frames(base + body["events"])
    assert json.loads(frames[-1]["data"])["state"] == "complete"
    return body["id"], frames


# -- lifecycle reads ------------------------------------------------------


def test_healthz_reports_capacity(base):
    status, _, body = fetch(base + "/healthz")
    assert status == 200
    assert body["service"] == "repro-serve"
    assert body["accepting"] is True
    assert body["queue"]["capacity"] == 4


def test_healthz_carries_schema_uptime_and_drain_state(base):
    from repro.service.server import HEALTH_SCHEMA_VERSION

    _, _, body = fetch(base + "/healthz")
    assert body["schema"] == HEALTH_SCHEMA_VERSION == 2
    assert body["draining"] is False
    assert body["uptime_seconds"] >= 0
    assert body["queue"]["depth"] >= 0
    # Uptime advances between probes of a live service.
    _, _, later = fetch(base + "/healthz")
    assert later["uptime_seconds"] >= body["uptime_seconds"]


def test_status_document_after_completion(base, finished_job):
    job_id, _ = finished_job
    status, _, body = fetch("%s/studies/%s" % (base, job_id))
    assert status == 200
    assert body["state"] == "complete"
    assert body["id"] == job_id
    assert body["spec"]["seed"] == 7
    assert len(body["fingerprint"]) == 64
    assert body["progress"]["crawled"] == SPEC["sites"]


def test_job_listing_includes_the_job(base, finished_job):
    job_id, _ = finished_job
    status, _, body = fetch(base + "/studies")
    assert status == 200
    assert job_id in [entry["id"] for entry in body["jobs"]]


def test_result_matches_status_fingerprint(base, finished_job):
    job_id, _ = finished_job
    _, _, status_doc = fetch("%s/studies/%s" % (base, job_id))
    code, _, result = fetch("%s/studies/%s/result" % (base, job_id))
    assert code == 200
    assert result["fingerprint"] == status_doc["fingerprint"]
    assert result["kind"] == "study"
    assert "rows" in result["table2"]


def test_trace_download_is_ndjson(base, finished_job):
    job_id, _ = finished_job
    code, headers, body = fetch("%s/studies/%s/trace" % (base, job_id))
    assert code == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    records = [json.loads(line) for line in body.strip().split("\n")]
    assert records[0]["type"] == "meta"
    assert any(r["type"] == "counter" and r["name"] == "crawl.sites"
               and r["value"] == SPEC["sites"] for r in records)


# -- SSE semantics --------------------------------------------------------


def test_sse_ids_are_contiguous_from_zero(finished_job):
    _, frames = finished_job
    assert [int(frame["id"]) for frame in frames] == \
        list(range(len(frames)))


def test_sse_event_order_state_heartbeats_end(finished_job):
    _, frames = finished_job
    kinds = [frame["event"] for frame in frames]
    assert kinds[0] == "state"
    assert kinds[-1] == "end"
    assert kinds.count("end") == 1
    hb = [json.loads(f["data"]) for f in frames if f["event"] == "heartbeat"]
    assert sum(1 for event in hb if not event.get("final")) == SPEC["sites"]


def test_sse_replay_after_completion_is_identical(base, finished_job):
    """A client connecting *after* the job finished replays the whole
    history and the stream still terminates with the end event."""
    job_id, live_frames = finished_job
    replayed = sse_frames("%s/studies/%s/events" % (base, job_id))
    assert replayed == live_frames


def test_sse_reconnect_resumes_after_last_event_id(base, finished_job):
    """``Last-Event-ID: N`` replays from frame N+1 — the standard SSE
    reconnect contract, so a dropped client never re-processes frames."""
    job_id, live_frames = finished_job
    url = "%s/studies/%s/events" % (base, job_id)
    resumed = sse_frames(url, headers={"Last-Event-ID": "2"})
    assert resumed == live_frames[3:]
    assert int(resumed[0]["id"]) == 3


def test_sse_reconnect_past_the_end_yields_nothing(base, finished_job):
    job_id, live_frames = finished_job
    url = "%s/studies/%s/events" % (base, job_id)
    last_id = live_frames[-1]["id"]
    assert sse_frames(url, headers={"Last-Event-ID": last_id}) == []


def test_sse_garbage_last_event_id_replays_everything(base, finished_job):
    job_id, live_frames = finished_job
    url = "%s/studies/%s/events" % (base, job_id)
    for bogus in ("not-a-number", "-7", ""):
        assert sse_frames(url, headers={"Last-Event-ID": bogus}) \
            == live_frames


# -- submission errors ----------------------------------------------------


def test_submit_rejects_malformed_json(base):
    request = urllib.request.Request(
        base + "/studies", data=b"{not json",
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=TIMEOUT)
    assert excinfo.value.code == 400
    status, _, body = fetch(base + "/studies", payload={"sites": -3})
    assert status == 400
    assert "sites" in body["error"]


def test_submit_rejects_unknown_spec_keys(base):
    status, _, body = fetch(base + "/studies", payload={"sties": 4})
    assert status == 400
    assert "unknown" in body["error"]


def test_unknown_job_and_unknown_route_are_404(base):
    assert fetch(base + "/studies/job-999999")[0] == 404
    assert fetch(base + "/studies/job-999999/result")[0] == 404
    assert fetch(base + "/nope")[0] == 404


def test_wrong_method_is_405_with_allow_header(base):
    status, headers, _ = fetch(base + "/studies", method="DELETE")
    assert status == 405
    assert "POST" in headers["Allow"]
    status, headers, _ = fetch(base + "/healthz", payload={})
    assert status == 405
    assert "GET" in headers["Allow"]


# -- backpressure and not-ready states ------------------------------------


def test_queue_full_returns_503_with_retry_after(parked_base):
    first = fetch(parked_base + "/studies", payload=SPEC)
    assert first[0] == 202
    status, headers, body = fetch(parked_base + "/studies", payload=SPEC)
    assert status == 503
    assert int(headers["Retry-After"]) >= 1
    assert body["retry_after"] == int(headers["Retry-After"])
    assert "full" in body["error"]


def test_result_before_completion_is_409(parked_base, parked):
    job_id = parked.store.list()[0].id
    status, _, body = fetch("%s/studies/%s/result" % (parked_base, job_id))
    assert status == 409
    assert body["state"] == "queued"


def test_trace_before_completion_is_409(parked_base, parked):
    job_id = parked.store.list()[0].id
    assert fetch("%s/studies/%s/trace" % (parked_base, job_id))[0] == 409


# -- parity with the CLI path ---------------------------------------------


def test_served_fingerprint_equals_cli_run(base, finished_job):
    """Acceptance criterion: POST → SSE → result fingerprint is
    bit-identical to the same spec via ``Study.crawl()`` directly."""
    from repro.core.pipeline import Study
    from repro.obs import Recorder
    from repro.service import JobSpec

    job_id, _ = finished_job
    _, _, served = fetch("%s/studies/%s/result" % (base, job_id))
    spec = JobSpec.from_dict(SPEC)
    pspec = spec.population_spec()
    study = Study(pspec.build(),
                  config=spec.study_config(recorder=Recorder()),
                  population_spec=pspec)
    assert study.crawl().dataset.fingerprint() == served["fingerprint"]


def test_crowd_job_over_http(base):
    payload = {"kind": "crowd", "seed": 5, "sites": 8, "trackers": 3,
               "contributors": 2, "overlap": 0.5}
    status, _, body = fetch(base + "/studies", payload=payload)
    assert status == 202
    frames = sse_frames(base + body["events"])
    end = json.loads(frames[-1]["data"])
    assert end["state"] == "complete"
    hb = [f for f in frames if f["event"] == "heartbeat"]
    assert len(hb) == 2   # one per contributor
    code, _, result = fetch("%s/studies/%s/result" % (base, body["id"]))
    assert code == 200
    assert result["kind"] == "crowd"
    # Crowd runs record no trace: documented as 404, not an error page.
    assert fetch("%s/studies/%s/trace" % (base, body["id"]))[0] == 404


# -- /metrics -------------------------------------------------------------


def scrape(base):
    from repro.obs.exposition import parse_exposition

    with urllib.request.urlopen(base + "/metrics",
                                timeout=TIMEOUT) as resp:
        assert resp.status == 200
        assert resp.headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        return parse_exposition(resp.read().decode("utf-8"))


def test_metrics_serves_the_required_series(base, finished_job):
    values = scrape(base)
    assert values['repro_service_submissions_total{outcome="accepted"}'] >= 1
    assert values['repro_service_jobs{state="complete"}'] >= 1
    assert values["repro_service_queue_capacity"] == 4
    assert values["repro_service_accepting"] == 1
    assert values["repro_service_uptime_seconds"] > 0
    assert values["repro_service_submit_seconds_count"] >= 1
    assert values["repro_service_job_run_seconds_count"] >= 1
    assert values['repro_service_jobs_finished_total{state="complete"}'] >= 1
    assert values['repro_http_requests_total{method="GET",status="200"}'] >= 1
    assert values["repro_http_bytes_sent_total"] > 0


def test_metrics_renders_every_job_state_even_at_zero(base):
    from repro.service.jobs import JOB_STATES

    values = scrape(base)
    for state in JOB_STATES:
        assert 'repro_service_jobs{state="%s"}' % state in values


def test_metrics_update_across_a_job_lifecycle(base):
    """Counters move between scrapes bracketing a submit + run: the
    registry is live service state, not a static page."""
    before = scrape(base)

    def delta(values, series):
        return values.get(series, 0.0) - before.get(series, 0.0)

    # An invalid spec counts as an "invalid" submission, nothing else.
    assert fetch(base + "/studies", payload={"sites": -1})[0] == 400
    mid = scrape(base)
    assert delta(mid, 'repro_service_submissions_total'
                      '{outcome="invalid"}') == 1
    assert delta(mid, 'repro_service_submissions_total'
                      '{outcome="accepted"}') == 0

    # A real job: accepted, run to completion, latency observed.
    status, _, body = fetch(base + "/studies", payload=SPEC)
    assert status == 202
    frames = sse_frames(base + body["events"])
    assert json.loads(frames[-1]["data"])["state"] == "complete"
    after = scrape(base)
    assert delta(after, 'repro_service_submissions_total'
                        '{outcome="accepted"}') == 1
    assert delta(after, 'repro_service_jobs_finished_total'
                        '{state="complete"}') == 1
    assert delta(after, "repro_service_job_run_seconds_count") == 1
    assert delta(after, "repro_service_submit_seconds_count") == 1
    assert delta(after, 'repro_http_requests_total'
                        '{method="POST",status="202"}') == 1
    assert delta(after, "repro_http_bytes_sent_total") > 0


def test_metrics_counts_rejected_submissions(parked_base):
    """On the parked service (capacity 1) a second submit is rejected
    and the scrape says so — whichever test filled the queue first."""
    before = scrape(parked_base)
    status = fetch(parked_base + "/studies", payload=SPEC)[0]
    after = scrape(parked_base)
    outcome = "accepted" if status == 202 else "rejected"
    assert status in (202, 503)
    series = 'repro_service_submissions_total{outcome="%s"}' % outcome
    assert after[series] - before.get(series, 0.0) == 1
    assert after["repro_service_queue_capacity"] == 1
    assert after["repro_service_queue_depth"] >= 1


def test_metrics_is_get_only(base):
    status, headers, _ = fetch(base + "/metrics", payload={})
    assert status == 405
    assert "GET" in headers["Allow"]


def test_sse_subscriber_gauge_returns_to_zero(base, finished_job):
    """Replay streams open and close promptly; once no client is
    connected the gauge reads 0 again."""
    job_id, _ = finished_job
    sse_frames("%s/studies/%s/events" % (base, job_id))
    assert scrape(base)["repro_service_sse_subscribers"] == 0


def test_service_boots_over_a_calibrated_spec_with_generator_fields(
        tmp_path):
    """A jobs directory from a version that wrote every generator field
    into a calibrated spec.json still recovers, boots, lists and
    scrapes."""
    store = JobStore(str(tmp_path))
    spec = JobSpec(population="calibrated")
    record = store.create(spec)
    record.state = STATE_COMPLETE
    store.write_status(record)
    legacy = dict(spec.as_dict(), seed=spec.seed, sites=spec.sites,
                  trackers=spec.trackers,
                  leak_probability=spec.leak_probability,
                  confirmation_probability=spec.confirmation_probability)
    with open(record.spec_path, "w", encoding="utf-8") as handle:
        json.dump(legacy, handle)

    assert JobStore(str(tmp_path)).recover() == []
    svc = StudyService(ServiceConfig(port=0, jobs_dir=str(tmp_path),
                                     runners=0, queue_size=1))
    svc.start()
    svc.start_in_thread()
    try:
        base = "http://127.0.0.1:%d" % svc.port
        status, _, body = fetch(base + "/studies")
        assert status == 200
        assert [entry["id"] for entry in body["jobs"]] == [record.id]
        assert scrape(base)['repro_service_jobs{state="complete"}'] == 1
    finally:
        svc.close()
