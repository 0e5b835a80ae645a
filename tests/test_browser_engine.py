"""Browser engine: navigation, forms, cookies, protections."""


from repro import hashes
from repro.browser import (
    Browser,
    brave,
    chrome,
    firefox_etp,
    safari,
    vanilla_firefox,
)
from repro.core.leakmodel import CHANNEL_COOKIE, CHANNEL_URI
from repro.core.persona import DEFAULT_PERSONA
from repro.netsim import STAGE_HOMEPAGE, STAGE_SIGNUP
from repro.websim import (
    LeakBehavior,
    SiteAuthConfig,
    TrackerEmbed,
    Website,
    build_default_catalog,
)
from repro.websim.population import Population

EMAIL = DEFAULT_PERSONA.email


def _population(signup_method="POST"):
    catalog = build_default_catalog()
    site = Website(
        domain="shop.example",
        auth=SiteAuthConfig(signup_method=signup_method),
        embeds=[
            TrackerEmbed(catalog.get("facebook.com"),
                         LeakBehavior((CHANNEL_URI,), (("sha256",),))),
            TrackerEmbed(catalog.get("omtrdc.net"),
                         LeakBehavior((CHANNEL_COOKIE,), (("sha256",),))),
        ],
        cname_records={"metrics": "shop.example.sc.omtrdc.net"})
    return Population(sites={"shop.example": site}, catalog=catalog)


def _browser(population, profile=None):
    return Browser(profile=profile or vanilla_firefox(),
                   server=population.build_server(),
                   resolver=population.resolver(),
                   catalog=population.catalog)


def _signup(browser, site):
    page = browser.visit(site, site.page_url("signup"), STAGE_SIGNUP)
    form = page.page.forms[0]
    return browser.submit_form(site, form, DEFAULT_PERSONA.form_fields(),
                               STAGE_SIGNUP)


def test_visit_records_document_and_subresources():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    result = browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    assert result.ok
    hosts = {entry.request.url.host for entry in browser.log}
    assert "www.shop.example" in hosts
    assert "connect.facebook.net" in hosts       # snippet load
    assert "www.facebook.com" in hosts           # baseline pixel
    assert "metrics.shop.example" in hosts       # cloaked beacon


def test_subresources_carry_referer():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    pixel = next(e for e in browser.log
                 if e.request.url.host == "www.facebook.com")
    assert pixel.request.referer == "https://www.shop.example/"


def test_post_form_submit_exfiltrates():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    result = _signup(browser, site)
    assert result.ok
    token = hashes.apply_chain(EMAIL, ["sha256"])
    leaking = [e for e in browser.log
               if e.request.url.query_get("udff[em]") == token]
    assert leaking


def test_get_form_puts_pii_in_document_url_and_referer():
    population = _population(signup_method="GET")
    site = population.sites["shop.example"]
    browser = _browser(population)
    result = _signup(browser, site)
    assert EMAIL in str(result.url).replace("%40", "@")
    pixels = [e for e in browser.log
              if e.request.url.host == "www.facebook.com"
              and e.stage == STAGE_SIGNUP and e.request.referer
              and "email=" in e.request.referer]
    assert pixels


def test_cookie_channel_reaches_cloaked_host():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    _signup(browser, site)
    token = hashes.apply_chain(EMAIL, ["sha256"])
    cloaked = [e for e in browser.log
               if e.request.url.host == "metrics.shop.example"
               and token in (e.request.cookie_header or "")]
    assert cloaked


def test_third_party_cookies_stored_under_vanilla_profile():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    domains = {cookie.domain for cookie in browser.jar.all_cookies()}
    assert "facebook.com" in domains


def test_safari_blocks_third_party_cookie_storage():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population, profile=safari())
    browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    domains = {cookie.domain for cookie in browser.jar.all_cookies()}
    assert "facebook.com" not in domains
    # But the leak requests themselves still leave the browser.
    assert any(e.request.url.host == "www.facebook.com"
               for e in browser.log if not e.was_blocked)


def test_firefox_etp_blocks_tracker_cookies_not_requests():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population,
                       profile=firefox_etp(population.catalog))
    _signup(browser, site)
    domains = {cookie.domain for cookie in browser.jar.all_cookies()}
    assert "facebook.com" not in domains
    token = hashes.apply_chain(EMAIL, ["sha256"])
    assert any(e.request.url.query_get("udff[em]") == token
               for e in browser.log if not e.was_blocked)


def test_brave_blocks_tracker_requests():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population, profile=brave(population.catalog))
    _signup(browser, site)
    blocked_hosts = {e.request.url.host for e in browser.log
                     if e.was_blocked}
    assert "connect.facebook.net" in blocked_hosts
    allowed_fb = [e for e in browser.log
                  if e.request.url.host.endswith("facebook.com")
                  and not e.was_blocked]
    assert allowed_fb == []


def test_brave_uncloaks_cname():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population, profile=brave(population.catalog))
    browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    # The adobe launcher script itself is blocked (assets.adobedtm.com),
    # so no cloaked beacon should appear unblocked either way.
    unblocked_cloaked = [e for e in browser.log
                         if e.request.url.host == "metrics.shop.example"
                         and not e.was_blocked]
    assert unblocked_cloaked == []


def test_nxdomain_recorded_as_blocked():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    result = browser.visit(site, "https://missing.nowhere.example/",
                           STAGE_HOMEPAGE)
    assert not result.ok
    assert any(e.blocked_by == "nxdomain" for e in browser.log)


def test_persistent_id_reemitted_on_subpage():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    _signup(browser, site)
    browser.visit(site, site.page_url("product"), "subpage")
    token = hashes.apply_chain(EMAIL, ["sha256"])
    subpage_hits = [e for e in browser.log if e.stage == "subpage"
                    and e.request.url.query_get("udff[em]") == token]
    assert subpage_hits


def test_clock_monotonic_timestamps():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population, profile=chrome())
    browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    times = [e.request.timestamp for e in browser.log]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_snapshot_cookies():
    population = _population()
    site = population.sites["shop.example"]
    browser = _browser(population)
    browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    browser.snapshot_cookies()
    assert browser.log.stored_cookies


def test_stored_identifiers_stay_with_the_site_that_stored_them():
    catalog = build_default_catalog()

    def shop(domain):
        return Website(domain=domain, auth=SiteAuthConfig(), embeds=[
            TrackerEmbed(catalog.get("facebook.com"),
                         LeakBehavior((CHANNEL_URI,), (("sha256",),)))])

    population = Population(sites={"a.example": shop("a.example"),
                                   "b.example": shop("b.example")},
                            catalog=catalog)
    site_a = population.sites["a.example"]
    site_b = population.sites["b.example"]
    browser = _browser(population)
    _signup(browser, site_a)
    token = hashes.apply_chain(EMAIL, ["sha256"])
    assert list(browser.tracker_storage) == ["a.example"]
    browser.visit(site_b, site_b.page_url("home"), "subpage")
    browser.visit(site_b, site_b.page_url("product"), "subpage")
    browser.visit(site_a, site_a.page_url("product"), "subpage")

    def carries_token(entry):
        return entry.stage == "subpage" and \
            entry.request.url.query_get("udff[em]") == token

    assert not [e for e in browser.log
                if e.site == "b.example" and carries_token(e)]
    assert [e for e in browser.log
            if e.site == "a.example" and carries_token(e)]
