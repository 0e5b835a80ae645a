"""Tracking analysis: trackid inference, persistence funnel, cross-device."""

import hashlib

from repro.core import LeakEvent
from repro.tracking import (
    PersistenceAnalyzer,
    TrackIdAnalyzer,
    linkable_receivers,
    match_profiles,
)


def _event(sender="s1.example", receiver="t.example", param="uid",
           token="tok_abcdef123456", stage="signup", channel="uri",
           chain=("sha256",), surface="foo@mydom.com", pii="email"):
    return LeakEvent(sender=sender, receiver=receiver,
                     request_host="x." + receiver, channel=channel,
                     location="query", pii_type=pii, chain=chain,
                     parameter=param, stage=stage,
                     url="https://x.%s/p" % receiver,
                     surface_form=surface, token=token)


# -- trackid inference -------------------------------------------------------

def test_parameter_grouping_across_senders():
    events = [_event(sender="s1.example"), _event(sender="s2.example")]
    params = TrackIdAnalyzer(events).parameters()
    assert len(params) == 1
    assert params[0].parameter == "uid"
    assert params[0].sender_count == 2
    assert params[0].is_cross_site


def test_generic_parameters_excluded():
    events = [_event(param="dl"), _event(param="ev")]
    assert TrackIdAnalyzer(events).parameters() == []


def test_parameterless_events_excluded():
    events = [_event(param=None)]
    assert TrackIdAnalyzer(events).parameters() == []


def test_receivers_with_stable_id():
    events = [
        _event(sender="s1.example", receiver="stable.example"),
        _event(sender="s2.example", receiver="stable.example"),
        _event(sender="s1.example", receiver="once.example"),
    ]
    assert TrackIdAnalyzer(events).receivers_with_stable_id() == \
        ["stable.example"]


def test_varying_parameters_break_stability():
    events = [
        _event(sender="s1.example", param="cd1"),
        _event(sender="s2.example", param="cd2"),
    ]
    assert TrackIdAnalyzer(events).receivers_with_stable_id() == []


# -- persistence funnel -----------------------------------------------------------

def test_cross_site_requires_same_pii_from_two_senders():
    events = [
        _event(sender="s1.example"),
        _event(sender="s2.example"),
    ]
    analyzer = PersistenceAnalyzer(events)
    assert analyzer.cross_site_receivers() == ["t.example"]


def test_cross_site_allows_different_encodings_of_same_pii():
    events = [
        _event(sender="s1.example", chain=("md5",), token="md5tokenXYZ12"),
        _event(sender="s2.example", chain=("sha256",),
               token="sha256tokenXYZ"),
    ]
    assert PersistenceAnalyzer(events).cross_site_receivers() == \
        ["t.example"]


def test_single_sender_receiver_not_cross_site():
    events = [_event(sender="s1.example"), _event(sender="s1.example")]
    assert PersistenceAnalyzer(events).cross_site_receivers() == []


def test_persistent_requires_subpage_observation():
    auth_only = [
        _event(sender="s1.example"), _event(sender="s2.example"),
    ]
    assert PersistenceAnalyzer(auth_only).persistent_receivers() == []
    with_subpage = auth_only + [_event(sender="s1.example",
                                       stage="subpage")]
    assert PersistenceAnalyzer(with_subpage).persistent_receivers() == \
        ["t.example"]


def test_table2_groups_by_method_and_encoding():
    events = [
        _event(sender="s1.example", chain=("sha256",)),
        _event(sender="s2.example", chain=("sha256",)),
        _event(sender="s3.example", chain=("md5",), token="md5tokX123456"),
        _event(sender="s1.example", stage="subpage"),
    ]
    rows = PersistenceAnalyzer(events).table2()
    assert len(rows) == 2
    by_encoding = {row.encoding: row for row in rows}
    assert by_encoding["sha256"].senders == 2
    assert by_encoding["md5"].senders == 1
    assert by_encoding["sha256"].parameters == "uid"


def test_report_bundle():
    events = [
        _event(sender="s1.example"), _event(sender="s2.example"),
        _event(sender="s1.example", stage="subpage"),
    ]
    report = PersistenceAnalyzer(events).report()
    assert report.provider_count == 1
    assert report.cross_site_receivers == ("t.example",)
    assert report.rows


# The digest of the §5.2 report on the calibrated crawl, computed with the
# implementation that scanned every event once per identifier parameter.
CALIBRATED_PERSISTENCE_DIGEST = (
    "81b7f1fb040d225c43f83625756e3d0738459ed64a5b2aa66a3b1a3965a92760")


def test_persistence_report_matches_the_pinned_digest(events):
    report = PersistenceAnalyzer(events).report()
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert digest == CALIBRATED_PERSISTENCE_DIGEST


# -- cross-device matching -----------------------------------------------------------

def test_match_profiles_joins_same_token():
    profile_a = [_event(sender="s1.example")]
    profile_b = [_event(sender="s2.example")]
    matches = match_profiles(profile_a, profile_b)
    assert len(matches) == 1
    match = matches[0]
    assert match.receiver == "t.example"
    assert match.senders_a == ("s1.example",)
    assert match.senders_b == ("s2.example",)
    assert match.linked_sites == 2
    assert linkable_receivers(matches) == ["t.example"]


def test_match_profiles_requires_shared_token():
    profile_a = [_event(token="tokenAAAAAAAA")]
    profile_b = [_event(token="tokenBBBBBBBB")]
    assert match_profiles(profile_a, profile_b) == []


def test_match_profiles_sorted_by_linked_sites():
    profile_a = [
        _event(sender="s1.example", receiver="big.example"),
        _event(sender="s2.example", receiver="big.example"),
        _event(sender="s1.example", receiver="small.example"),
    ]
    profile_b = [
        _event(sender="s3.example", receiver="big.example"),
        _event(sender="s1.example", receiver="small.example"),
    ]
    matches = match_profiles(profile_a, profile_b)
    assert matches[0].receiver == "big.example"
    assert matches[0].linked_sites == 3
