"""Calibrated leak-assignment plan for the shopping-site study.

The paper publishes, for its 130 leaking first parties and 100 third-party
receivers, a dense set of joint statistics: per-provider sender counts and
trackid parameters (Table 2), per-method / per-encoding / per-PII-type
breakdowns (Table 1), receiver-popularity ranking (Figure 2), and headline
degree statistics (§4.2).  This module *constructs a concrete bipartite
assignment* — which sender leaks what, to whom, over which channel, in
which encoding — that realizes those statistics simultaneously (exactly
where the paper pins a number, approximately where its own marginals are
mutually over-constrained; ``verify_plan`` reports every deviation).

The plan is pure data.  :mod:`repro.websim.shopping` turns it into actual
:class:`~repro.websim.site.Website` objects whose embedded tracker snippets
really emit the traffic, and the measured tables are produced by crawling
and detecting, never by echoing these targets.

Sender slots
============

Senders are integer slots ``0..129``; slot ranges are laid out so that the
encoding/method *unions* across receivers land on the paper's sender
marginals (e.g. Facebook's 72 SHA256 senders occupy slots 0-71, and every
other SHA256-using provider is placed inside or deliberately outside that
range to steer the union toward 91).  Slot 0 is ``loccitane.com`` (the
16-receiver maximum), slot 1 is ``nykaa.com`` (the Brave CAPTCHA failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.leakmodel import (
    CHANNEL_COOKIE,
    CHANNEL_PAYLOAD,
    CHANNEL_URI,
)

N_SENDERS = 130

# Encoding chains (transform-registry names).
PLAIN: Tuple[str, ...] = ()
SHA256 = ("sha256",)
MD5 = ("md5",)
SHA1 = ("sha1",)
B64 = ("base64",)
SHA256_OF_MD5 = ("md5", "sha256")

# Special sender slots.
SLOT_LOCCITANE = 0
SLOT_NYKAA = 1
REFERER_SLOTS = (116, 117, 118)
ADOBE_COOKIE_SLOTS = (104, 105, 106, 107, 108)   # 104-106 also via URI
EMAIL_USERNAME_SLOTS = (125, 126, 127)
USERNAME_ONLY_SLOT = 128                          # -> okta-emea.com


@dataclass(frozen=True)
class EdgeSpec:
    """One (sender, receiver) leak relationship in the plan."""

    sender_slot: int
    receiver: str
    channels: Tuple[str, ...]
    chains: Tuple[Tuple[str, ...], ...]
    pii_fields: Tuple[str, ...] = ("email",)
    param: Optional[str] = None        # None -> service default
    payload_format: str = "urlencoded"

    def __post_init__(self) -> None:
        if not (0 <= self.sender_slot < N_SENDERS):
            raise ValueError("sender slot out of range: %d" % self.sender_slot)


@dataclass
class CalibratedPlan:
    """The full assignment: edges plus site-level attributes."""

    edges: List[EdgeSpec] = field(default_factory=list)
    #: Slots whose sign-up form uses GET with an email-only field set.
    referer_sender_slots: Tuple[int, ...] = REFERER_SLOTS
    #: Slots that get a cloaked ``metrics`` CNAME subdomain.
    cloaked_sender_slots: Tuple[int, ...] = ADOBE_COOKIE_SLOTS

    def edges_of_slot(self, slot: int) -> List[EdgeSpec]:
        return [e for e in self.edges if e.sender_slot == slot]

    def edges_of_receiver(self, receiver: str) -> List[EdgeSpec]:
        return [e for e in self.edges if e.receiver == receiver]

    def receivers(self) -> List[str]:
        seen: List[str] = []
        for edge in self.edges:
            if edge.receiver not in seen:
                seen.append(edge.receiver)
        return seen

    def slots_used(self) -> Set[int]:
        return {edge.sender_slot for edge in self.edges}


# --------------------------------------------------------------------------
# Receiver edge construction.
# --------------------------------------------------------------------------

def _range(start: int, end: int) -> Tuple[int, ...]:
    """Inclusive slot range."""
    return tuple(range(start, end + 1))


def _edges_for(receiver: str, slots: Sequence[int],
               channels: Tuple[str, ...],
               chains: Tuple[Tuple[str, ...], ...],
               pii: Tuple[str, ...] = ("email",),
               param: Optional[str] = None,
               payload_format: str = "urlencoded") -> List[EdgeSpec]:
    return [EdgeSpec(sender_slot=slot, receiver=receiver, channels=channels,
                     chains=chains, pii_fields=pii, param=param,
                     payload_format=payload_format)
            for slot in slots]


def _named_provider_edges() -> List[EdgeSpec]:
    """Edges for Table 2 providers and the Figure 2 ad platforms."""
    edges: List[EdgeSpec] = []
    uri = (CHANNEL_URI,)
    payload = (CHANNEL_PAYLOAD,)
    uri_payload = (CHANNEL_URI, CHANNEL_PAYLOAD)

    # facebook.com — 78 senders total: 72 SHA256 (12 of them combined
    # URI+payload), 2 MD5, 4 non-trackid email+name payloads (Figure 2's
    # 60% vs Table 2's 74).
    edges += _edges_for("facebook.com", _range(2, 13), uri_payload, (SHA256,))
    edges += _edges_for("facebook.com",
                        (0, 1) + _range(14, 30) + _range(35, 44)
                        + _range(48, 61) + (63, 65) + _range(67, 71),
                        uri, (SHA256,))
    # Payload-only senders overlap the snapchat payload slots so the
    # Table 1a payload sender union stays near the paper's 43.
    edges += _edges_for("facebook.com",
                        (62, 64, 66, 31, 32, 33, 34, 45, 46, 47),
                        payload, (SHA256,))
    edges += _edges_for("facebook.com", (72, 73), uri, (MD5,), param="ud[em]")
    edges += _edges_for("facebook.com", _range(74, 77), payload, (PLAIN,),
                        pii=("email", "name"), payload_format="json")

    # criteo.com — 37 senders across four encoding groups.
    edges += _edges_for("criteo.com", _range(78, 103), uri, (MD5,))
    edges += _edges_for("criteo.com", _range(0, 3), uri, (SHA256,))
    edges += _edges_for("criteo.com", _range(104, 108), uri, (PLAIN,))
    edges += _edges_for("criteo.com", (4, 5), uri, (SHA256_OF_MD5,))

    # pinterest.com — 33 senders.
    edges += _edges_for("pinterest.com", _range(6, 30), uri, (SHA256,))
    edges += _edges_for("pinterest.com", _range(78, 85), uri, (MD5,))

    # snapchat.com — 20 senders.
    edges += _edges_for("snapchat.com", _range(31, 34), uri_payload, (SHA256,))
    edges += _edges_for("snapchat.com", _range(35, 44), uri, (SHA256,))
    edges += _edges_for("snapchat.com", _range(45, 48), payload, (SHA256,))
    edges += _edges_for("snapchat.com", (86, 87), payload, (MD5,))

    # Ad platforms (Figure 2, no stable trackid: per-sender parameters).
    def _ad(receiver: str, slots: Sequence[int],
            combined: Sequence[int] = (),
            chains: Tuple[Tuple[str, ...], ...] = (SHA256,),
            email_name: Sequence[int] = ()) -> None:
        for slot in slots:
            channels = uri_payload if slot in combined else uri
            pii = ("email", "name") if slot in email_name else ("email",)
            # Parameter names vary per sender (site-specific custom
            # dimensions), so these platforms receive PII but expose no
            # stable cross-site identifier slot — the paper's 8
            # multi-sender receivers outside the 34 same-ID group.
            edges.append(EdgeSpec(
                sender_slot=slot, receiver=receiver, channels=channels,
                chains=chains, pii_fields=pii,
                param="cd%d" % (slot + 1)))

    _ad("google-analytics.com", (0,) + _range(49, 71),
        combined=_range(49, 51), email_name=_range(49, 57))
    _ad("doubleclick.net", (0,) + _range(52, 70), combined=(52, 53),
        email_name=_range(58, 63))
    _ad("googleadservices.com", (0,) + _range(54, 62),
        email_name=(62,))
    _ad("bing.com", (0,) + _range(63, 71), combined=(63,),
        email_name=_range(66, 68))
    _ad("tiktok.com", (0,) + _range(65, 69), combined=(65,),
        email_name=(69,))
    _ad("yandex.ru", (0,) + _range(78, 80), chains=(MD5,))
    _ad("amazon-adsystem.com", (0, 70, 71), email_name=(70, 71))
    _ad("twitter.com", (0, 81, 82), chains=(MD5,), email_name=(81, 82))

    # Remaining Table 2 providers.
    edges += _edges_for("cquotient.com", _range(119, 125), uri, (SHA256,))
    edges += _edges_for("oracleinfinity.io", _range(126, 129), uri, (SHA256,))
    edges += _edges_for("rlcdn.com", _range(88, 91), uri, (SHA1,))
    # bluecore senders partially overlap the snapchat payload slots (same
    # payload-union steering rationale as facebook's payload-only group).
    edges += _edges_for("bluecore.com", (92, 93, 94, 31, 32), payload, (B64,))
    edges += _edges_for("klaviyo.com", _range(97, 100), uri, (B64,))
    edges += _edges_for("castle.io", (101, 102), uri, (PLAIN,))
    edges += _edges_for("dotomi.com", (109, 110), uri, (SHA256,))
    edges += _edges_for("inside-graph.com", (111, 112), payload, (PLAIN,),
                        payload_format="json")
    edges += _edges_for("krxd.net", (60, 61), uri, (SHA256,))
    edges += _edges_for("pxf.io", (86, 87), payload, (SHA1,))
    edges += _edges_for("taboola.com", (113, 69), uri, (SHA256,))
    edges += _edges_for("thebrighttag.com", (70, 71), uri, (SHA256,))
    edges += _edges_for("yahoo.com", (66, 67), uri, (SHA256,))
    edges += _edges_for("zendesk.com", (115, 88), uri, (B64,))

    # custora.com — slot 113 uses the combined URI+payload form; 114 URI.
    edges += _edges_for("custora.com", (113,), uri_payload, (SHA1,))
    edges += _edges_for("custora.com", (114,), uri, (SHA1,))

    # omtrdc.net ("adobe_cname") — five senders set a SHA256 first-party
    # cookie carried to the cloaked subdomain; three of them also send the
    # hash in the beacon URI (the Table 2 row).
    edges += _edges_for("omtrdc.net", (104, 105, 106),
                        (CHANNEL_URI, CHANNEL_COOKIE), (SHA256,))
    edges += _edges_for("omtrdc.net", (107, 108), (CHANNEL_COOKIE,),
                        (SHA256,))

    # Brave-missed degree-one receivers (footnote 4; zendesk covered above).
    edges += _edges_for("aliyun.com", (103,), uri, (PLAIN,))
    edges += _edges_for("cartsync.io", (119,), uri, (PLAIN,))
    edges += _edges_for("gravatar.com", (120,), uri, (MD5,))
    edges += _edges_for("herokuapp.com", (121,), uri, (PLAIN,))
    edges += _edges_for("intercom.io", (122,), payload, (PLAIN,),
                        payload_format="json")
    edges += _edges_for("lmcdn.ru", (123,), uri, (PLAIN,))
    edges += _edges_for("okta-emea.com", (USERNAME_ONLY_SLOT,), uri, (PLAIN,),
                        pii=("username",))
    return edges


# --------------------------------------------------------------------------
# Filler receivers: steering sender unions toward Table 1 marginals.
# --------------------------------------------------------------------------

# Degree-one filler receivers: (encoding chains, channel, count).
# Composition chosen to close the Table 1b receiver rows given the named
# receivers above; dual-chain entries are "combined encoding" receivers
# (the paper's "plaintext and SHA256" style examples).
_DEG1_FILLERS: Tuple[Tuple[Tuple[Tuple[str, ...], ...], str, int], ...] = (
    ((PLAIN,), CHANNEL_URI, 14),
    ((PLAIN,), CHANNEL_PAYLOAD, 3),
    ((MD5,), CHANNEL_URI, 3),
    ((SHA256,), CHANNEL_URI, 7),
    ((SHA256,), CHANNEL_PAYLOAD, 1),
    ((B64,), CHANNEL_URI, 3),
    ((B64,), CHANNEL_PAYLOAD, 2),
    ((PLAIN, B64), CHANNEL_URI, 8),
    ((PLAIN, MD5), CHANNEL_URI, 3),
)

# Degree-two filler receivers (the 14 non-persistent cross-site receivers):
# (edge1 chains, edge2 chains, channel, count, pii).  The first group uses
# the paper's "BASE64, SHA1 and SHA256" combined form on both edges; the
# split groups receive different single encodings from their two senders
# (so the receiver appears in two Table 1b rows without being "combined").
# The last group receives email+name (closing Table 1c's 12-receiver row).
_DEG2_FILLERS: Tuple[Tuple[Tuple[Tuple[str, ...], ...],
                           Tuple[Tuple[str, ...], ...], str, int,
                           Tuple[str, ...]], ...] = (
    ((B64, SHA1, SHA256), (B64, SHA1, SHA256), CHANNEL_URI, 3, ("email",)),
    ((PLAIN,), (MD5,), CHANNEL_URI, 7, ("email",)),
    ((PLAIN,), (MD5,), CHANNEL_URI, 4, ("email", "name")),
)

#: Target sender-union sizes per encoding label (Table 1b sender column).
_SENDER_UNION_TARGETS = {
    "plaintext": 42, "base64": 19, "md5": 35, "sha1": 9, "sha256": 91,
}

#: Target sender-union size for the payload channel (Table 1a).
_PAYLOAD_SENDER_TARGET = 43

#: Target number of senders with >= 3 receivers (46.15% of 130, §4.2).
_SENDERS_WITH_3PLUS_TARGET = 60


class _UnionSteering:
    """Chooses filler-edge senders to steer marginal unions to targets.

    For every encoding label (and the payload channel) the allocator
    tracks the current sender union.  While a union is below its paper
    target, filler edges prefer senders *outside* it (growing it); once the
    target is reached they prefer senders *inside* it (avoiding overshoot).
    Ties break toward the least-connected sender, which spreads sender
    degrees toward the paper's distribution.
    """

    def __init__(self, edges: List[EdgeSpec]) -> None:
        self.unions: Dict[str, Set[int]] = {}
        self.payload_union: Set[int] = set()
        self.degree: Dict[int, int] = {slot: 0 for slot in range(N_SENDERS)}
        for edge in edges:
            self._absorb(edge)

    def _absorb(self, edge: EdgeSpec) -> None:
        for chain in edge.chains:
            self.unions.setdefault(_label(chain), set()).add(edge.sender_slot)
        if CHANNEL_PAYLOAD in edge.channels:
            self.payload_union.add(edge.sender_slot)
        self.degree[edge.sender_slot] = \
            self.degree.get(edge.sender_slot, 0) + 1

    def _score(self, slot: int, labels: Sequence[str], channel: str) -> int:
        score = 0
        for label in labels:
            union = self.unions.get(label, set())
            target = _SENDER_UNION_TARGETS.get(label, 0)
            if len(union) < target:
                score += 2 if slot not in union else 0
            else:
                score += 1 if slot in union else -2
        if channel == CHANNEL_PAYLOAD:
            if len(self.payload_union) < _PAYLOAD_SENDER_TARGET:
                score += 2 if slot not in self.payload_union else 0
            else:
                score += 1 if slot in self.payload_union else -2
        return score

    def pick(self, chains: Tuple[Tuple[str, ...], ...], channel: str,
             exclude: Set[int]) -> int:
        """Pick a sender slot for a filler edge with these chains."""
        labels = [_label(chain) for chain in chains]
        lift = sum(1 for d in self.degree.values() if d >= 3) < \
            _SENDERS_WITH_3PLUS_TARGET
        best_slot = None
        best_key: Optional[Tuple[int, int, int]] = None
        for slot in range(2, N_SENDERS):  # keep loccitane/nykaa manual
            if slot in exclude or slot in REFERER_SLOTS:
                continue
            degree = self.degree.get(slot, 0)
            if degree >= 12:
                continue  # keep loccitane's 16 the unique maximum
            key = (-self._score(slot, labels, channel),
                   self._degree_rank(degree, lift), slot)
            if best_key is None or key < best_key:
                best_key = key
                best_slot = slot
        assert best_slot is not None
        return best_slot

    @staticmethod
    def _degree_rank(degree: int, lift: bool) -> int:
        """Tie-break steering the §4.2 degree distribution.

        While fewer than 60 senders have >= 3 receivers (``lift``, counted
        once per :meth:`pick`), lift degree-2 senders over the threshold;
        afterwards pile extra edges onto already-heavy senders so the 1-2
        receiver group stays large.
        """
        if lift:
            preference = {2: 0, 3: 1, 4: 2}
            return preference.get(degree, 3 + max(0, 11 - degree))
        return 11 - degree  # highest degree first

    def record(self, edge: EdgeSpec) -> None:
        self._absorb(edge)


def _label(chain: Tuple[str, ...]) -> str:
    from ..core.analysis import encoding_label
    return encoding_label(chain)


def _filler_edges(named: List[EdgeSpec],
                  filler_domains: Sequence[str]) -> List[EdgeSpec]:
    """Edges for the 58 filler receivers plus loccitane's degree top-up."""
    steering = _UnionSteering(named)
    edges: List[EdgeSpec] = []
    domains = list(filler_domains)

    def next_domain() -> str:
        return domains.pop(0)

    # loccitane.com needs 16 receivers and the named structure gives it 10,
    # so the first six degree-one fillers become its exclusive receivers.
    loccitane_quota = 6

    # Degree-one fillers.
    for chains, channel, count in _DEG1_FILLERS:
        for _ in range(count):
            domain = next_domain()
            if loccitane_quota > 0:
                slot = SLOT_LOCCITANE
                loccitane_quota -= 1
            else:
                slot = steering.pick(chains, channel, exclude=set())
            payload_format = "json" if channel == CHANNEL_PAYLOAD else \
                "urlencoded"
            edge = EdgeSpec(sender_slot=slot, receiver=domain,
                            channels=(channel,), chains=chains,
                            payload_format=payload_format)
            edges.append(edge)
            steering.record(edge)

    # Degree-two fillers (cross-site, non-persistent receivers).  The first
    # six host the email+username relationships of Table 1c (three senders
    # x two receivers).
    email_username = list(EMAIL_USERNAME_SLOTS)
    deg2_specs: List[Tuple[Tuple[Tuple[str, ...], ...],
                           Tuple[Tuple[str, ...], ...], str,
                           Tuple[str, ...]]] = []
    for chains1, chains2, channel, count, pii_fields in _DEG2_FILLERS:
        deg2_specs.extend([(chains1, chains2, channel, pii_fields)] * count)
    for index, (chains1, chains2, channel, pii_fields) in \
            enumerate(deg2_specs):
        domain = next_domain()
        used: Set[int] = set()
        for edge_number, chains in enumerate((chains1, chains2)):
            if index < 6 and edge_number == 0:
                slot = email_username[index // 2]
                pii: Tuple[str, ...] = ("email", "username")
            else:
                slot = steering.pick(chains, channel, exclude=used)
                pii = pii_fields
            used.add(slot)
            edge = EdgeSpec(sender_slot=slot, receiver=domain,
                            channels=(channel,), chains=chains,
                            pii_fields=pii)
            edges.append(edge)
            steering.record(edge)
    return edges


def build_plan(filler_domains: Sequence[str]) -> CalibratedPlan:
    """Construct the full calibrated assignment.

    ``filler_domains`` supplies receiver domains for the anonymous filler
    receivers (63 are consumed: 5 loccitane top-ups + 44 degree-one + 14
    degree-two); the referer receivers are handled by
    :mod:`repro.websim.shopping` as passive embeds on the GET-form sites.
    """
    named = _named_provider_edges()
    fillers = _filler_edges(named, filler_domains)
    return CalibratedPlan(edges=named + fillers)


# --------------------------------------------------------------------------
# Plan verification.
# --------------------------------------------------------------------------

def verify_plan(plan: CalibratedPlan) -> Dict[str, Tuple[float, float]]:
    """Compare the plan's structural marginals to the paper's targets.

    Returns {metric: (target, actual)}.  This checks the *plan*; the
    end-to-end tests additionally verify the crawl+detect pipeline measures
    the same numbers from traffic.
    """
    from ..datasets import paper

    result: Dict[str, Tuple[float, float]] = {}
    by_receiver: Dict[str, Set[int]] = {}
    for edge in plan.edges:
        by_receiver.setdefault(edge.receiver, set()).add(edge.sender_slot)

    result["senders"] = (paper.LEAKING_SENDERS,
                         len(plan.slots_used() | set(REFERER_SLOTS)))
    # +7 referer receivers are added at site-build time.
    result["receivers"] = (paper.LEAK_RECEIVERS, len(by_receiver) + 7)
    result["facebook_senders"] = (paper.FACEBOOK_SENDERS,
                                  len(by_receiver.get("facebook.com", set())))
    for receiver in paper.TABLE2:
        target = paper.table2_sender_count(receiver)
        edges = plan.edges_of_receiver(receiver)
        if receiver == "facebook.com":
            # Table 2 counts only the trackid rows; Figure 2's 78 includes
            # four additional non-trackid email+name senders.
            actual = len({e.sender_slot for e in edges
                          if e.pii_fields == ("email",)})
        elif receiver == "omtrdc.net":
            # The Table 2 row lists the three URI senders; two further
            # senders use the cookie channel only (Table 1a's 5/1).
            actual = len({e.sender_slot for e in edges
                          if CHANNEL_URI in e.channels})
        else:
            actual = len({e.sender_slot for e in edges})
        result["table2:%s" % receiver] = (target, actual)
    # The seven referer receivers (added at site-build time) all have a
    # single sender, so they count toward the paper's 58.
    single = sum(1 for senders in by_receiver.values() if len(senders) == 1)
    result["single_sender_receivers"] = (
        paper.SINGLE_APPEARANCE_RECEIVERS, single + 7)

    degree: Dict[int, Set[str]] = {}
    for edge in plan.edges:
        degree.setdefault(edge.sender_slot, set()).add(edge.receiver)
    max_slot = max(degree, key=lambda slot: len(degree[slot]))
    result["max_receivers_per_sender"] = (
        paper.MAX_RECEIVERS_PER_SENDER, len(degree[max_slot]))
    result["max_is_loccitane"] = (1.0, 1.0 if max_slot == SLOT_LOCCITANE
                                  else 0.0)
    return result
