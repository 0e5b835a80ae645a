"""Site model, tracker catalog and script engine."""

import pytest

from repro import hashes
from repro.core.leakmodel import (
    CHANNEL_COOKIE,
    CHANNEL_PAYLOAD,
    CHANNEL_URI,
)
from repro.netsim import Url, decode_json, decode_urlencoded
from repro.websim import (
    LeakBehavior,
    SiteAuthConfig,
    TrackerEmbed,
    Website,
    build_default_catalog,
    signin_form,
    signup_form,
)
from repro.websim.scripts import (
    EmitRequest,
    ScriptContext,
    SetFirstPartyCookie,
    SnippetPings,
    StoreTrackerState,
    baseline_actions,
    exfil_actions,
    page_view_query,
    revisit_actions,
)
from repro.websim.trackers import (
    BRAVE_MISSED_DOMAINS,
    TABLE2_SERVICES,
    TrackerCatalog,
)

EMAIL = "foo@mydom.com"


@pytest.fixture(scope="module")
def catalog():
    return build_default_catalog()


def _site(embed):
    return Website(domain="shop.example", embeds=[embed])


def _ctx(site, pii=None, stored=None, stage="signup"):
    """The context of ``site``'s one snippet on its home page."""
    page_url = Url.parse("https://www.shop.example/")
    pings = SnippetPings(site.embeds[0].service, site,
                         page_view_query(page_url))
    return ScriptContext(site=site, page_url=page_url, stage=stage,
                         pings=pings, pii=pii or {},
                         stored_state=stored or {})


# -- catalog ---------------------------------------------------------------

def test_catalog_contains_all_table2_providers(catalog):
    for service in TABLE2_SERVICES:
        assert catalog.has(service.domain)
        assert catalog.get(service.domain).persistent


def test_catalog_attribution_by_endpoint_host(catalog):
    service = catalog.attribute_host("www.facebook.com")
    assert service is not None and service.domain == "facebook.com"
    # Script CDN hosts attribute to the owning service too.
    service = catalog.attribute_host("connect.facebook.net")
    assert service.domain == "facebook.com"


def test_catalog_attribution_unknown_host(catalog):
    assert catalog.attribute_host("www.nobody.example") is None


def test_catalog_rejects_duplicates(catalog):
    with pytest.raises(ValueError):
        catalog.add(catalog.get("facebook.com"))


def test_brave_missed_domains_in_catalog(catalog):
    for domain in BRAVE_MISSED_DOMAINS:
        assert catalog.has(domain)


def test_omtrdc_is_cloaked(catalog):
    assert catalog.get("omtrdc.net").is_cloaked


# -- site model -----------------------------------------------------------------

def test_leak_behavior_validation():
    with pytest.raises(ValueError):
        LeakBehavior(channels=(), chains=((),))
    with pytest.raises(ValueError):
        LeakBehavior(channels=(CHANNEL_URI,), chains=())
    with pytest.raises(ValueError):
        LeakBehavior(channels=(CHANNEL_URI,), chains=((),), pii_fields=())


def test_website_receiver_domains(catalog):
    embeds = [
        TrackerEmbed(catalog.get("facebook.com"),
                     LeakBehavior((CHANNEL_URI,), (("sha256",),))),
        TrackerEmbed(catalog.get("criteo.com")),
    ]
    site = Website(domain="shop.example", embeds=embeds)
    assert site.receiver_domains() == ["facebook.com"]
    assert len(site.leaking_embeds()) == 1


def test_is_crawlable_flags():
    assert Website(domain="a.example").is_crawlable
    assert not Website(domain="b.example",
                       auth=SiteAuthConfig(unreachable=True)).is_crawlable
    assert not Website(domain="c.example",
                       auth=SiteAuthConfig(has_auth=False)).is_crawlable
    assert not Website(
        domain="d.example",
        auth=SiteAuthConfig(signup_block="phone_verification")).is_crawlable


def test_signup_form_custom_fields():
    site = Website(domain="s.example",
                   auth=SiteAuthConfig(signup_method="GET",
                                       signup_fields=("email", "password")))
    form = signup_form(site)
    names = [field.name for field in form.fields]
    assert names[:2] == ["email", "password"]
    assert form.method == "GET"


def test_signin_form_shape():
    form = signin_form(Website(domain="s.example"))
    assert form.method == "POST"
    assert [f.name for f in form.fields][:2] == ["email", "password"]


# -- script engine -----------------------------------------------------------------

def test_baseline_action_is_pageview_ping(catalog):
    embed = TrackerEmbed(catalog.get("facebook.com"))
    actions = baseline_actions(embed, _ctx(_site(embed)))
    assert len(actions) == 1
    request = actions[0]
    assert isinstance(request, EmitRequest)
    assert request.url.query_get("ev") == "PageView"
    # Document location param must not smuggle the page query string.
    assert "?" not in (request.url.query_get("dl") or "")


def test_exfil_uri_channel(catalog):
    behavior = LeakBehavior((CHANNEL_URI,), (("sha256",),))
    embed = TrackerEmbed(catalog.get("facebook.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed), pii={"email": EMAIL}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    assert len(emits) == 1
    token = hashes.apply_chain(EMAIL, ["sha256"])
    assert emits[0].url.query_get("udff[em]") == token
    # Persistent service stores the identifier for subpage re-emission.
    stores = [a for a in actions if isinstance(a, StoreTrackerState)]
    assert len(stores) == 1


def test_exfil_normalizes_email_case(catalog):
    behavior = LeakBehavior((CHANNEL_URI,), (("sha256",),))
    embed = TrackerEmbed(catalog.get("facebook.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed),
                                        pii={"email": EMAIL.upper()}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    assert emits[0].url.query_get("udff[em]") == \
        hashes.apply_chain(EMAIL, ["sha256"])


def test_exfil_payload_json(catalog):
    behavior = LeakBehavior((CHANNEL_PAYLOAD,), ((),),
                            payload_format="json")
    embed = TrackerEmbed(catalog.get("bluecore.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed), pii={"email": EMAIL}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    assert emits[0].method == "POST"
    payload = decode_json(emits[0].body)
    assert payload["properties"]["data"] == EMAIL


def test_exfil_payload_urlencoded(catalog):
    behavior = LeakBehavior((CHANNEL_PAYLOAD,), (("md5",),))
    embed = TrackerEmbed(catalog.get("snapchat.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed), pii={"email": EMAIL}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    fields = dict(decode_urlencoded(emits[0].body))
    assert fields["u_hem"] == hashes.apply_chain(EMAIL, ["md5"])


def test_exfil_cookie_channel_sets_first_party_cookie(catalog):
    behavior = LeakBehavior((CHANNEL_COOKIE,), (("sha256",),))
    embed = TrackerEmbed(catalog.get("omtrdc.net"), behavior)
    site = _site(embed)
    actions = exfil_actions(embed, _ctx(site, pii={"email": EMAIL}))
    cookies = [a for a in actions if isinstance(a, SetFirstPartyCookie)]
    assert len(cookies) == 1
    assert cookies[0].domain == site.domain
    assert cookies[0].value == hashes.apply_chain(EMAIL, ["sha256"])
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    assert emits[0].url.host == "metrics.shop.example"


def test_exfil_combined_channels_emit_two_requests(catalog):
    behavior = LeakBehavior((CHANNEL_URI, CHANNEL_PAYLOAD), (("sha256",),))
    embed = TrackerEmbed(catalog.get("facebook.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed), pii={"email": EMAIL}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    assert {e.method for e in emits} == {"GET", "POST"}


def test_exfil_combined_encodings_use_alternate_params(catalog):
    behavior = LeakBehavior((CHANNEL_URI,), (("md5",), ("sha256",)))
    embed = TrackerEmbed(catalog.get("criteo.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed), pii={"email": EMAIL}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    query = dict(emits[0].url.query)
    assert query["p0"] == hashes.apply_chain(EMAIL, ["md5"])
    assert query["p1"] == hashes.apply_chain(EMAIL, ["sha256"])


def test_exfil_email_name_parameter_derivation(catalog):
    behavior = LeakBehavior((CHANNEL_URI,), (("sha256",),),
                            pii_fields=("email", "name"))
    embed = TrackerEmbed(catalog.get("facebook.com"), behavior)
    actions = exfil_actions(embed, _ctx(_site(embed),
                                        pii={"email": EMAIL,
                                             "name": "Alex Romero"}))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    query = dict(emits[0].url.query)
    assert "udff[em]" in query and "udff[fn]" in query


def test_exfil_without_pii_is_noop(catalog):
    behavior = LeakBehavior((CHANNEL_URI,), (("sha256",),))
    embed = TrackerEmbed(catalog.get("facebook.com"), behavior)
    assert exfil_actions(embed, _ctx(_site(embed))) == []


def test_revisit_requires_persistence_and_state(catalog):
    behavior = LeakBehavior((CHANNEL_URI,), (("sha256",),))
    embed = TrackerEmbed(catalog.get("facebook.com"), behavior)
    site = _site(embed)
    assert revisit_actions(embed, _ctx(site, stage="subpage")) == []
    stored = {"facebook.com": {"udff[em]": "token123"}}
    actions = revisit_actions(embed, _ctx(site, stored=stored,
                                          stage="subpage"))
    emits = [a for a in actions if isinstance(a, EmitRequest)]
    assert emits[0].url.query_get("udff[em]") == "token123"


def test_revisit_nonpersistent_service_silent():
    catalog = TrackerCatalog()
    from repro.websim.trackers import _filler_service
    service = _filler_service("adroll.com")
    catalog.add(service)
    embed = TrackerEmbed(service,
                         LeakBehavior((CHANNEL_URI,), (("sha256",),)))
    site = _site(embed)
    stored = {"adroll.com": {"uid": "tok"}}
    assert revisit_actions(embed, _ctx(site, stored=stored)) == []
