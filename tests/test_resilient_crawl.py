"""Resilient crawl: convergence, determinism, quarantine, checkpoint/resume."""

import os

import pytest

from repro.core import Study, StudyConfig
from repro.crawler import (
    CheckpointError,
    CrawlSession,
    FAILURE_PERMANENT,
    FAILURE_TRANSIENT,
    RetryPolicy,
    STATUS_QUARANTINED,
    STATUS_SUCCESS,
    STATUS_TAXONOMY,
    StudyCrawler,
)
from repro.netsim.faults import FaultPlan
from repro.reporting import render_crawl_health
from repro.websim.generator import GeneratorConfig, generate_population

_CONFIG = dict(n_sites=8, n_trackers=4, leak_probability=0.6,
               confirmation_probability=0.4)


def _population():
    return generate_population(seed=5, config=GeneratorConfig(**_CONFIG))


def _leak_signature(events):
    """Leak identity without timestamps (retries shift the clock)."""
    return sorted(set((event.sender, event.receiver, event.channel,
                       event.location, event.pii_type, event.chain,
                       event.parameter, event.stage)
                      for event in events))


def test_faulty_crawl_converges_to_fault_free_results():
    baseline = Study(_population()).run()
    assert set(baseline.dataset.status_counts()) == {STATUS_SUCCESS}

    plan = FaultPlan(seed=11, transient_rate=0.25)
    study = Study(_population(), StudyConfig(fault_plan=plan))
    outcome = study.crawl()
    faulty = study.analyze(outcome.dataset)
    assert set(faulty.dataset.status_counts()) == {STATUS_SUCCESS}
    assert outcome.fault_plan.failure_log()  # faults actually fired
    assert _leak_signature(faulty.events) == _leak_signature(baseline.events)


def test_same_seed_reproduces_identical_failure_log():
    runs = []
    for _ in range(2):
        plan = FaultPlan(seed=7, transient_rate=0.25)
        session = StudyCrawler(_population(), fault_plan=plan).start()
        dataset = session.run()
        runs.append((session.fault_plan.failure_log(),
                     dataset.fingerprint()))
    assert runs[0][0] and runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_serial_crawls_leave_the_callers_plan_unconsumed():
    """Each crawl session draws from a fresh copy of the plan, so one
    study crawled twice at ``workers=1`` gives one fingerprint, as at
    ``workers=2``."""
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=10, n_trackers=4))
    plan = FaultPlan(seed=3, transient_rate=0.3)
    study = Study(population, StudyConfig(fault_plan=plan))
    first, second = study.crawl(), study.crawl()
    assert first.fault_plan.events
    assert first.fault_plan is not plan and second.fault_plan is not plan
    assert first.dataset.fingerprint() == second.dataset.fingerprint()
    assert first.fault_plan.failure_log() == second.fault_plan.failure_log()
    assert plan.events == []


def test_retries_are_visible_in_capture_log():
    plan = FaultPlan(seed=11, transient_rate=0.25)
    dataset = StudyCrawler(_population(), fault_plan=plan).crawl()
    fault_entries = [entry for entry in dataset.log.entries
                     if entry.blocked_by
                     and entry.blocked_by.startswith("fault:")]
    assert fault_entries  # failed attempts are recorded, never hidden
    assert all(entry.response is None for entry in fault_entries)


def test_dead_origin_is_quarantined_not_dropped():
    population = _population()
    dead = sorted(population.sites)[0]
    plan = FaultPlan(seed=7, transient_rate=0.1, dead_origins=[dead])
    session = StudyCrawler(population, fault_plan=plan).start()
    dataset = session.run()

    counts = dataset.status_counts()
    assert counts[STATUS_QUARANTINED] == 1
    assert sum(counts.values()) == len(population.sites)
    assert dataset.quarantined_sites() == [dead]
    flow = dataset.flows[dead]
    assert flow.failure_class == FAILURE_PERMANENT
    assert flow.attempts >= 1 and flow.failure_kind is not None
    assert dataset.failure_class_counts() == {FAILURE_PERMANENT: 1}

    report = render_crawl_health(dataset, session.fault_plan)
    assert STATUS_QUARANTINED in report and dead in report
    assert "dead_origin" in report


def test_quarantined_sites_survive_analysis():
    population = _population()
    dead = sorted(population.sites)[0]
    plan = FaultPlan(seed=7, transient_rate=0.1, dead_origins=[dead])
    result = Study(population, StudyConfig(fault_plan=plan)).run()
    assert result.quarantined_sites() == [dead]
    assert dead not in result.analysis.senders()


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    full = StudyCrawler(
        _population(),
        fault_plan=FaultPlan(seed=21, transient_rate=0.25)).crawl()

    session = StudyCrawler(
        _population(),
        fault_plan=FaultPlan(seed=21, transient_rate=0.25)).start()
    for _ in range(3):
        session.step()
    path = str(tmp_path / "crawl.ckpt")
    session.save(path)
    del session  # the interrupted crawl is gone; only the file survives

    resumed = CrawlSession.load(path, _population())
    assert resumed.crawled_count == 3
    assert len(resumed.remaining_sites) == _CONFIG["n_sites"] - 3
    dataset = resumed.run()
    assert dataset.fingerprint() == full.fingerprint()
    assert dataset.status_counts() == full.status_counts()


def test_checkpoint_after_every_site(tmp_path):
    path = str(tmp_path / "crawl.ckpt")
    session = StudyCrawler(
        _population(),
        fault_plan=FaultPlan(seed=3, transient_rate=0.2)).start()
    while not session.done:
        session.step()
        session.save(path)
    expected = session.finish().fingerprint()
    assert CrawlSession.load(path, _population()).run().fingerprint() \
        == expected


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        CrawlSession.load(str(path), _population())


def _assert_header_refused(tmp_path, version):
    """A current checkpoint relabelled ``version`` is refused by the
    header check before any unpickling is attempted."""
    from repro.crawler.checkpoint import CHECKPOINT_MAGIC
    path = tmp_path / "crawl.ckpt"
    StudyCrawler(_population()).start().save(str(path))
    blob = path.read_bytes()
    assert blob.startswith(b"repro-crawl-checkpoint:7\n")
    old = tmp_path / ("v%d.ckpt" % version)
    old.write_bytes(b"repro-crawl-checkpoint:%d\n" % version
                    + blob[len(CHECKPOINT_MAGIC):])
    with pytest.raises(CheckpointError,
                       match="is not a version-7 crawl checkpoint "
                             r"\(bad or outdated header"):
        CrawlSession.load(str(old), _population())


def test_checkpoint_refuses_a_version_2_header(tmp_path):
    """Version-2 checkpoints pickle the old Counter/Gauge recorder state."""
    _assert_header_refused(tmp_path, 2)


def test_checkpoint_refuses_a_version_3_header(tmp_path):
    """Version-3 checkpoints pickle tracker storage keyed by (site,
    service) pairs and list-backed ``Headers``."""
    _assert_header_refused(tmp_path, 3)


def test_checkpoint_refuses_a_version_4_header(tmp_path):
    """Version-4 checkpoints pickle each capture record (``Url``,
    ``HttpRequest``, ``HttpResponse``, ``CaptureEntry``) with a
    ``__dict__``; the records are slotted now."""
    _assert_header_refused(tmp_path, 4)


def test_checkpoint_refuses_a_version_5_header(tmp_path):
    """Version-5 checkpoints pickle the whole session, population and
    capture log included; version 6 is an append-only journal."""
    _assert_header_refused(tmp_path, 5)


def test_checkpoint_refuses_a_version_6_header(tmp_path):
    """Version-6 records repeat the whole fault plan and circuit-breaker
    registry; version 7 journals only what changed since the last one."""
    _assert_header_refused(tmp_path, 6)


def test_checkpoint_save_is_atomic(tmp_path):
    session = StudyCrawler(_population()).start()
    path = str(tmp_path / "crawl.ckpt")
    session.save(path)
    assert os.listdir(str(tmp_path)) == ["crawl.ckpt"]


def test_truncated_checkpoint_is_rejected_with_clear_error(tmp_path):
    """A checkpoint cut short at any point — header, length field, or
    payload — fails loudly as a CheckpointError naming the truncation,
    never by surfacing unpickled garbage to the resume path."""
    path = str(tmp_path / "crawl.ckpt")
    StudyCrawler(_population()).start().save(path)
    blob = open(path, "rb").read()
    from repro.crawler.checkpoint import CHECKPOINT_MAGIC, _LENGTH_STRUCT
    header = len(CHECKPOINT_MAGIC)
    cases = {
        "mid-header": blob[:header - 3],
        "mid-length": blob[:header + _LENGTH_STRUCT.size - 2],
        "mid-payload": blob[:header + _LENGTH_STRUCT.size + 100],
        "missing-digest": blob[:-5],
    }
    for label, truncated in cases.items():
        torn = tmp_path / ("torn-%s.ckpt" % label)
        torn.write_bytes(truncated)
        with pytest.raises(CheckpointError) as excinfo:
            CrawlSession.load(str(torn), _population())
        message = str(excinfo.value)
        assert "truncated" in message or "checkpoint" in message, label


def test_corrupted_checkpoint_payload_fails_integrity_check(tmp_path):
    path = str(tmp_path / "crawl.ckpt")
    StudyCrawler(_population()).start().save(path)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF      # flip one payload byte
    (tmp_path / "crawl.ckpt").write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as excinfo:
        CrawlSession.load(path, _population())
    assert "digest mismatch" in str(excinfo.value)


# -- the append-only journal ----------------------------------------------


def _journal_sizes(session, path):
    """Save ``session`` to ``path`` now and after every further site;
    returns the journal's size after each save."""
    session.save(str(path))
    sizes = [path.stat().st_size]
    while not session.done:
        session.step()
        session.save(str(path))
        sizes.append(path.stat().st_size)
    return sizes


def test_journal_save_only_appends(tmp_path):
    path = tmp_path / "crawl.ckpt"
    session = StudyCrawler(
        _population(),
        fault_plan=FaultPlan(seed=3, transient_rate=0.2)).start()
    session.save(str(path))
    before = path.read_bytes()
    while not session.done:
        session.step()
        session.save(str(path))
        after = path.read_bytes()
        assert len(after) > len(before) and after.startswith(before)
        before = after
    assert os.listdir(str(tmp_path)) == ["crawl.ckpt"]


def test_journal_resumes_from_every_cut_of_its_last_record(tmp_path):
    """A writer killed mid-append leaves a torn last record: a resume
    drops it, crawls that site again and ends at the uninterrupted
    fingerprint, wherever the cut fell.  The last site is a dead origin,
    so its record is small enough to cut at every byte."""
    population = _population()
    sites = population.site_list()[:2]
    plan = dict(seed=3, transient_rate=0.2, dead_origins=[sites[-1].domain])

    def start():
        return StudyCrawler(population,
                            fault_plan=FaultPlan(**plan)).start(sites)

    expected = start().run().fingerprint()
    path = tmp_path / "crawl.ckpt"
    live = start()
    live.step()
    live.save(str(path))
    last_record = path.stat().st_size
    live.step()
    live.save(str(path))
    blob = path.read_bytes()
    torn = tmp_path / "torn.ckpt"
    for cut in range(last_record, len(blob)):
        torn.write_bytes(blob[:cut])
        resumed = CrawlSession.load(str(torn), population)
        assert resumed.crawled_count == 1, cut
        assert resumed.run().fingerprint() == expected, cut
    # A resumed session writes its next record over a torn tail longer
    # than that record, and cuts the rest of the tail off.
    from repro.crawler.checkpoint import _LENGTH_STRUCT, read_journal
    torn.write_bytes(blob[:last_record] + _LENGTH_STRUCT.pack(10 ** 6)
                     + b"\xff" * 2 * (len(blob) - last_record))
    resumed = CrawlSession.load(str(torn), population)
    resumed.step()
    resumed.save(str(torn))
    assert torn.read_bytes()[:last_record] == blob[:last_record]
    assert read_journal(str(torn)).end == torn.stat().st_size
    again = CrawlSession.load(str(torn), population)
    assert again.crawled_count == 2
    assert again.finish().fingerprint() == expected


def test_journal_cut_in_header_or_snapshot_is_truncated(tmp_path):
    from repro.crawler.checkpoint import CHECKPOINT_MAGIC, _LENGTH_STRUCT
    population = _population()
    path = tmp_path / "crawl.ckpt"
    sizes = _journal_sizes(StudyCrawler(population).start(), path)
    blob = path.read_bytes()
    offset = len(CHECKPOINT_MAGIC)
    for _ in ("header", "snapshot"):
        (length,) = _LENGTH_STRUCT.unpack_from(blob, offset)
        offset += _LENGTH_STRUCT.size + length + 32
    assert offset < sizes[0]
    torn = tmp_path / "torn.ckpt"
    for cut in range(len(CHECKPOINT_MAGIC), offset):
        torn.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="is truncated"):
            CrawlSession.load(str(torn), population)


def test_journal_flipped_byte_in_a_middle_record_fails_its_digest(tmp_path):
    population = _population()
    path = tmp_path / "crawl.ckpt"
    sizes = _journal_sizes(StudyCrawler(population).start(), path)
    blob = path.read_bytes()
    middle = bytearray(blob)
    middle[(sizes[2] + sizes[3]) // 2] ^= 0xFF
    path.write_bytes(bytes(middle))
    with pytest.raises(CheckpointError, match="digest mismatch"):
        CrawlSession.load(str(path), population)
    # The same flip in the last record reads as a torn append instead.
    last = bytearray(blob)
    last[(sizes[-2] + sizes[-1]) // 2] ^= 0xFF
    path.write_bytes(bytes(last))
    resumed = CrawlSession.load(str(path), population)
    assert resumed.crawled_count == _CONFIG["n_sites"] - 1


def test_journal_damaged_length_field_is_not_a_torn_record(tmp_path):
    """A middle record whose length field runs past the end of the file
    is damage, not a torn append: it raises rather than dropping that
    record and every record after it."""
    population = _population()
    path = tmp_path / "crawl.ckpt"
    sizes = _journal_sizes(StudyCrawler(population).start(), path)
    for record in (2, len(sizes) - 1):      # a middle and the last record
        damaged = bytearray(path.read_bytes())
        damaged[sizes[record - 1]] ^= 0x01  # the length's high byte
        torn = tmp_path / "damaged.ckpt"
        torn.write_bytes(bytes(damaged))
        with pytest.raises(CheckpointError,
                           match="record %d digest mismatch" % record):
            CrawlSession.load(str(torn), population)


@pytest.mark.parametrize("seed", [3, 21])
@pytest.mark.parametrize("faults,attempts", [
    (dict(transient_rate=0.25), 4),
    (dict(transient_rate=0.1, dead_rate=0.3), 4),
    # Without retries a fault streak can outlast its site's record.
    (dict(transient_rate=0.3), 1),
])
def test_resume_from_every_record_converges(tmp_path, seed, faults,
                                            attempts):
    """Cut the journal after each site's record: every resume finishes
    to the uninterrupted fingerprint, fault events and quarantines."""
    def start():
        return StudyCrawler(_population(),
                            fault_plan=FaultPlan(seed=seed, **faults),
                            retry_policy=RetryPolicy(max_attempts=attempts)
                            ).start()

    full = start().run()
    path = tmp_path / "crawl.ckpt"
    session = start()
    ends = []
    while not session.done:
        session.step()
        session.save(str(path))
        ends.append(path.stat().st_size)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for crawled, end in enumerate(ends, start=1):
        cut.write_bytes(blob[:end])
        resumed = CrawlSession.load(str(cut), _population())
        assert resumed.crawled_count == crawled
        dataset = resumed.run()
        assert dataset.fingerprint() == full.fingerprint(), crawled
        assert resumed.fault_plan.failure_log() == \
            session.fault_plan.failure_log(), crawled
        assert resumed.browser.breaker.open_origins() == \
            session.browser.breaker.open_origins(), crawled


def test_journal_records_of_fault_state_stay_small(tmp_path):
    """A record journals the fault-plan counters and streaks and the
    circuit-breaker origins changed since the previous record, so a long
    faulted crawl's last records are no bigger than its early ones."""
    import pickle

    from repro.crawler.checkpoint import read_journal
    population = generate_population(seed=404, config=GeneratorConfig(
        n_sites=404, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    session = StudyCrawler(
        population, fault_plan=FaultPlan(seed=1, transient_rate=0.05),
        retry_policy=RetryPolicy()).start()
    path = str(tmp_path / "crawl.ckpt")
    while not session.done:
        session.step()
        session.save(path)
    records = read_journal(path).records
    assert len(records) == 404

    def size(value):
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    tenth, last = records[9], records[-1]
    assert size(last.fault_plan) <= 2 * size(tenth.fault_plan)
    assert size(last.breaker) <= 2 * size(tenth.breaker)
    assert CrawlSession.load(path, population).finish().fingerprint() \
        == session.finish().fingerprint()


def test_resumed_firewall_counts_match_an_uninterrupted_run(tmp_path):
    from repro.core.tokens import CandidateTokenSet
    from repro.mitigation import PiiFirewall
    population = _population()
    firewall = PiiFirewall(CandidateTokenSet(population.persona))

    def start():
        firewall.restore_journal_state((0, 0))
        return StudyCrawler(population, firewall=firewall).start()

    start().run()
    expected = (firewall.scrubbed_requests, firewall.redactions)
    assert expected[0] > 0
    path = str(tmp_path / "crawl.ckpt")
    session = start()
    for _ in range(2):          # the snapshot is taken at the first save
        session.step()
        session.step()
        session.save(path)
    resumed = CrawlSession.load(path, population)
    resumed.run()
    scrubbing = resumed.browser.firewall
    assert scrubbing is not firewall
    assert (scrubbing.scrubbed_requests, scrubbing.redactions) == expected


def test_journal_refuses_a_different_population(tmp_path):
    path = str(tmp_path / "crawl.ckpt")
    session = StudyCrawler(_population()).start()
    session.step()
    session.save(path)
    other = generate_population(seed=6, config=GeneratorConfig(**_CONFIG))
    with pytest.raises(CheckpointError, match="different population"):
        CrawlSession.load(path, other)


def test_finished_session_is_not_checkpointed(tmp_path):
    session = StudyCrawler(_population()).start()
    session.run()
    with pytest.raises(RuntimeError, match="finished session"):
        session.save(str(tmp_path / "crawl.ckpt"))


def test_plain_crawl_without_faults_unchanged():
    # No plan, no retry policy: the historical single-shot network path.
    crawler = StudyCrawler(_population())
    assert crawler.retry_policy is None
    dataset = crawler.crawl()
    assert set(dataset.status_counts()) == {STATUS_SUCCESS}
    assert dataset.retried_flow_count() == 0


def test_fault_plan_implies_default_retry_policy():
    crawler = StudyCrawler(_population(), fault_plan=FaultPlan())
    assert isinstance(crawler.retry_policy, RetryPolicy)
    # The convergence contract: the retry budget and breaker threshold
    # must both exceed the plan's worst-case fault burst.
    assert crawler.retry_policy.max_attempts > FaultPlan().max_consecutive


def test_backoff_delay_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=0.5, backoff_factor=2.0, max_delay=4.0,
                        jitter=0.1)
    delays = [policy.backoff_delay(attempt, "www.shop.example")
              for attempt in range(1, 8)]
    assert delays == [policy.backoff_delay(attempt, "www.shop.example")
                      for attempt in range(1, 8)]
    assert all(0.0 < delay <= 4.0 * 1.1 for delay in delays)
    assert delays[1] > delays[0]


def test_taxonomy_is_exhaustive():
    from repro.crawler import ALL_STATUSES
    assert set(STATUS_TAXONOMY) == set(ALL_STATUSES)
    assert STATUS_TAXONOMY[STATUS_SUCCESS] is None
    classes = set(STATUS_TAXONOMY.values()) - {None}
    assert classes == {FAILURE_TRANSIENT, FAILURE_PERMANENT}


def test_protocol_misuse_raises_typeerror():
    population = _population()
    with pytest.raises(TypeError):
        StudyCrawler(population, extension=object())
    with pytest.raises(TypeError):
        StudyCrawler(population, firewall="not a firewall")


def test_real_implementations_satisfy_protocols():
    from repro.blocklist import AdblockExtension, RuleSet
    from repro.browser import ContentBlocker, OutboundFirewall
    from repro.core import CandidateTokenSet
    from repro.core.persona import DEFAULT_PERSONA
    from repro.mitigation import PiiFirewall
    assert isinstance(AdblockExtension(RuleSet([])), ContentBlocker)
    assert isinstance(PiiFirewall(CandidateTokenSet(DEFAULT_PERSONA)),
                      OutboundFirewall)
