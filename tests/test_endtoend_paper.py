"""End-to-end reproduction checks against the paper's published numbers.

These tests consume the session-scoped crawl/detection fixtures: the full
calibrated population is crawled with the measurement browser and every
number below is *measured from captured traffic* — the assertions compare
those measurements with the paper.

Exact assertions are used where the synthetic web pins the value; the few
quantities the paper's own marginals leave over-constrained (documented in
EXPERIMENTS.md) get tolerance-based assertions.
"""

import pytest

from repro.datasets import paper
from repro.tracking import PersistenceAnalyzer


#: Fingerprint of the calibrated crawl.  Any change to the traffic the
#: measurement browser sends or receives moves it; so does a change to the
#: order of the cookies it attaches.
CALIBRATED_CRAWL_FINGERPRINT = (
    "4dbe2635b79b834cf7ceea8f499b248b4bec6517e3638c30259aae5869942241")


def test_calibrated_crawl_fingerprint_is_pinned(crawl):
    assert crawl.fingerprint() == CALIBRATED_CRAWL_FINGERPRINT


# -- §3.2 population ---------------------------------------------------------

def test_population_sizes(study_spec):
    assert len(study_spec.population.sites) == paper.TRANCO_SHOPPING_SITES
    assert len(study_spec.leaking_domains) == paper.LEAKING_SENDERS


def test_flow_status_breakdown(crawl):
    counts = crawl.status_counts()
    assert counts["success"] == paper.SUCCESSFUL_FLOWS
    assert counts["unreachable"] == paper.UNREACHABLE_SITES
    assert counts["no_auth"] == paper.NO_AUTH_SITES
    assert counts["signup_blocked"] == paper.SIGNUP_BLOCKED_SITES


def test_signup_block_reasons(crawl):
    reasons = {}
    for flow in crawl.flows.values():
        if flow.block_reason:
            reasons[flow.block_reason] = reasons.get(flow.block_reason, 0) + 1
    assert reasons["phone_verification"] == paper.SIGNUP_BLOCKED_PHONE
    assert reasons["identity_documents"] == paper.SIGNUP_BLOCKED_IDENTITY
    assert reasons["region_restricted"] == paper.SIGNUP_BLOCKED_REGION


def test_email_confirmation_site_count(study_spec):
    confirming = [site for site in study_spec.population.site_list()
                  if site.auth.requires_email_confirmation
                  and site.is_crawlable]
    assert len(confirming) == paper.EMAIL_CONFIRMATION_SITES


def test_bot_detection_site_count(study_spec):
    detecting = [site for site in study_spec.population.site_list()
                 if site.auth.bot_detection and site.is_crawlable]
    assert len(detecting) == paper.BOT_DETECTION_SITES


# -- §4.2 headline ------------------------------------------------------------

def test_headline_senders_receivers(analysis):
    assert len(analysis.senders()) == paper.LEAKING_SENDERS
    assert len(analysis.receivers()) == paper.LEAK_RECEIVERS


def test_pct_sites_leaking(analysis):
    stats = analysis.headline(total_sites=paper.SUCCESSFUL_FLOWS)
    assert abs(stats["pct_sites_leaking"] - paper.PCT_SITES_LEAKING) < 0.5


def test_mean_receivers_per_sender(analysis):
    stats = analysis.headline()
    assert abs(stats["mean_receivers_per_sender"]
               - paper.MEAN_RECEIVERS_PER_SENDER) < 0.1


def test_max_receivers_is_loccitane(analysis):
    sender, count = analysis.max_receiver_sender()
    assert sender == paper.MAX_RECEIVERS_SENDER_DOMAIN
    assert count == paper.MAX_RECEIVERS_PER_SENDER


def test_senders_with_3plus(analysis):
    stats = analysis.headline()
    assert abs(stats["pct_senders_with_3plus"]
               - paper.PCT_SENDERS_WITH_3PLUS_RECEIVERS) < 5.0


def test_leaking_request_volume(crawl, detector):
    count = detector.run(crawl.log).leaking_entry_count
    # Same order of magnitude and within ~10% of the paper's 1,522.
    assert abs(count - paper.LEAKING_REQUESTS) / paper.LEAKING_REQUESTS < 0.10


def test_single_appearance_receivers(analysis):
    assert len(analysis.single_sender_receivers()) == \
        paper.SINGLE_APPEARANCE_RECEIVERS


# -- Figure 2 --------------------------------------------------------------------

def test_facebook_tops_figure2(analysis):
    ranking = analysis.figure2(top_n=15)
    domain, count, pct = ranking[0]
    assert domain == "facebook.com"
    assert count == paper.FACEBOOK_SENDERS
    assert abs(pct - paper.FACEBOOK_SENDER_PCT) < 0.5


def test_figure2_contains_expected_majors(analysis):
    top = {domain for domain, _, _ in analysis.figure2(top_n=15)}
    for expected in ("facebook.com", "criteo.com", "pinterest.com",
                     "snapchat.com", "google-analytics.com"):
        assert expected in top


# -- Table 1 ----------------------------------------------------------------------

def _rows(table):
    return {row.label: row for row in table}


def test_table1a_method_breakdown(analysis):
    rows = _rows(analysis.table1a())
    for label, (senders, receivers) in paper.TABLE1A.items():
        measured = rows[label]
        assert abs(measured.senders - senders) <= max(2, senders * 0.1), label
        assert abs(measured.receivers - receivers) <= \
            max(2, receivers * 0.1), label


def test_table1a_pinned_cells_exact(analysis):
    rows = _rows(analysis.table1a())
    assert rows["referer"].senders == 3
    assert rows["referer"].receivers == 7
    assert rows["cookie"].senders == 5
    assert rows["cookie"].receivers == 1
    assert rows["payload"].senders == 43
    assert rows["payload"].receivers == 17
    assert rows["combined"].senders == 27
    assert rows["combined"].receivers == 8


def test_table1b_encoding_breakdown(analysis):
    rows = _rows(analysis.table1b())
    for label, (senders, receivers) in paper.TABLE1B.items():
        if label == "combined":
            continue  # see EXPERIMENTS.md: paper-internal inconsistency
        measured = rows[label]
        assert abs(measured.senders - senders) <= \
            max(2, senders * 0.15), label
        assert abs(measured.receivers - receivers) <= \
            max(2, receivers * 0.15), label


def test_table1b_pinned_cells_exact(analysis):
    rows = _rows(analysis.table1b())
    assert rows["sha256"].senders == 91
    assert rows["md5"].senders == 35
    assert rows["sha256 of md5"].senders == 2
    assert rows["sha256 of md5"].receivers == 1


def test_table1c_pii_types(analysis):
    rows = _rows(analysis.table1c())
    assert rows["username"].senders == 1
    assert rows["username"].receivers == 1
    assert rows["email,username"].senders == 3
    assert rows["email,username"].receivers == 6
    assert rows["email,name"].senders == 29
    assert rows["email,name"].receivers == 12
    assert abs(rows["email"].senders - 116) <= 12


# -- §5.2 persistent tracking -------------------------------------------------------

@pytest.fixture(scope="module")
def persistence(events):
    return PersistenceAnalyzer(events).report()


def test_cross_site_receiver_count(persistence):
    assert len(persistence.cross_site_receivers) == \
        paper.CROSS_SITE_ID_RECEIVERS


def test_twenty_persistent_providers(persistence):
    assert len(persistence.persistent_receivers) == \
        paper.PERSISTENT_TRACKING_PROVIDERS
    assert set(persistence.persistent_receivers) == set(paper.TABLE2)


def test_table2_sender_counts(persistence):
    by_receiver = {}
    for row in persistence.rows:
        by_receiver[row.receiver] = by_receiver.get(row.receiver, 0) + \
            row.senders
    for receiver, expected in (
            ("criteo.com", 37), ("pinterest.com", 33), ("snapchat.com", 20),
            ("cquotient.com", 7), ("bluecore.com", 5), ("klaviyo.com", 4),
            ("rlcdn.com", 4), ("castle.io", 2), ("zendesk.com", 2)):
        assert by_receiver[receiver] == expected, receiver


def test_table2_trackid_parameters(persistence):
    params = {}
    for row in persistence.rows:
        params.setdefault(row.receiver, set()).update(
            row.parameters.split("/"))
    assert "udff[em]" in params["facebook.com"]
    assert "p0" in params["criteo.com"]
    assert "pd" in params["pinterest.com"]
    assert "u_hem" in params["snapchat.com"]
    assert "emailId" in params["cquotient.com"]
    assert "dtm_email_hash" in params["dotomi.com"]
    assert "_kua_email_sha256" in params["krxd.net"]


def test_all_providers_track_email(persistence, events):
    providers = set(persistence.persistent_receivers)
    for event in events:
        if event.receiver in providers and event.parameter:
            if event.pii_type not in ("email", "name", "username"):
                pytest.fail("unexpected PII type %s" % event.pii_type)
    email_receivers = {e.receiver for e in events
                       if e.pii_type == "email" and e.parameter}
    assert providers <= email_receivers


# -- §4.2.3 e-mail ------------------------------------------------------------------

def test_marketing_mail_volume(crawl):
    from repro.mailsim import KIND_MARKETING
    inbox = crawl.mailbox.messages(folder="inbox", kind=KIND_MARKETING)
    spam = crawl.mailbox.messages(folder="spam", kind=KIND_MARKETING)
    assert len(inbox) == paper.MARKETING_INBOX_EMAILS
    assert len(spam) == paper.MARKETING_SPAM_EMAILS


def test_no_mail_from_leak_receivers(crawl, analysis):
    receivers = set(analysis.receivers())
    senders = set(crawl.mailbox.sender_domains())
    assert senders.isdisjoint(receivers)
