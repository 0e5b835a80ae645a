"""Persona surface forms and candidate-token precomputation (§3.1)."""

import gc
from itertools import product

import pytest

from repro import hashes
from repro.core import CandidateTokenSet, TokenSetConfig
from repro.core.persona import (
    DEFAULT_PERSONA,
    PII_EMAIL,
    PII_NAME,
    PII_TYPES,
    Persona,
)


def test_form_fields_cover_signup_inputs():
    fields = DEFAULT_PERSONA.form_fields()
    for name in ("email", "username", "first_name", "last_name", "phone",
                 "dob", "gender", "job_title", "street", "city",
                 "postcode", "country", "password"):
        assert fields[name]


def test_surface_forms_cover_all_pii_types():
    forms = DEFAULT_PERSONA.surface_forms()
    assert set(forms) == set(PII_TYPES)
    assert DEFAULT_PERSONA.email in forms[PII_EMAIL]
    assert DEFAULT_PERSONA.full_name in forms[PII_NAME]


def test_email_does_not_contain_name_forms():
    # Guards the token-collision property Table 1c depends on.
    email = DEFAULT_PERSONA.email.lower()
    for form in DEFAULT_PERSONA.surface_forms()[PII_NAME]:
        assert form not in email and form.lower() not in email


def test_surface_forms_deduplicated():
    for forms in DEFAULT_PERSONA.surface_forms().values():
        assert len(forms) == len(set(forms))


def test_phone_digit_variant():
    forms = DEFAULT_PERSONA.surface_forms()["phone"]
    assert any(form.isdigit() for form in forms)


# -- Candidate token set -------------------------------------------------------

@pytest.fixture(scope="module")
def token_set():
    return CandidateTokenSet(DEFAULT_PERSONA)


def test_plaintext_email_is_candidate(token_set):
    origins = token_set.origins_of(DEFAULT_PERSONA.email)
    assert any(o.pii_type == PII_EMAIL and o.chain == () for o in origins)


def test_depth1_full_corpus(token_set):
    # Every registry transform appears at depth 1 for the email.
    email = DEFAULT_PERSONA.email
    for name in ("sha256", "whirlpool", "ripemd160", "md4", "base32"):
        token = hashes.apply_chain(email, [name])
        assert any(o.chain == (name,) for o in token_set.origins_of(token))


def test_depth2_chain_from_alphabet(token_set):
    email = DEFAULT_PERSONA.email
    token = hashes.apply_chain(email, ["md5", "sha256"])
    assert token_set.origins_of(token)


def test_depth3_chain(token_set):
    email = DEFAULT_PERSONA.email
    token = hashes.apply_chain(email, ["base64", "sha1", "sha256"])
    assert token_set.origins_of(token)


def test_uppercase_hex_variant_registered(token_set):
    email = DEFAULT_PERSONA.email
    token = hashes.apply_chain(email, ["sha256"]).upper()
    assert token_set.origins_of(token)


def test_short_tokens_dropped():
    config = TokenSetConfig(min_token_length=10)
    token_set = CandidateTokenSet(Persona(gender="other"), config=config)
    assert all(len(token) >= 10 for token in token_set.tokens())


def test_scan_finds_embedded_token(token_set):
    token = hashes.apply_chain(DEFAULT_PERSONA.email, ["sha256"])
    text = "https://t.net/p?uid=%s&x=1" % token
    origins = token_set.scan_distinct(text)
    assert any(o.pii_type == PII_EMAIL and o.chain == ("sha256",)
               for o in origins)


def test_scan_clean_text_empty(token_set):
    assert token_set.scan_distinct("https://t.net/p?uid=nothing") == []
    assert not token_set.contains_leak("benign text")
    assert token_set.scan("") == []


def test_depth_validation():
    with pytest.raises(ValueError):
        TokenSetConfig(max_depth=0)
    with pytest.raises(ValueError):
        TokenSetConfig(max_depth=1, full_corpus_depth=2)
    with pytest.raises(ValueError):
        TokenSetConfig(chain_alphabet=("nonexistent",))


def test_depth1_config_smaller_than_depth3():
    shallow = CandidateTokenSet(DEFAULT_PERSONA,
                                TokenSetConfig(max_depth=1))
    deep = CandidateTokenSet(DEFAULT_PERSONA, TokenSetConfig(max_depth=3))
    assert shallow.token_count < deep.token_count


def test_depth1_misses_multilayer_obfuscation():
    shallow = CandidateTokenSet(DEFAULT_PERSONA,
                                TokenSetConfig(max_depth=1))
    token = hashes.apply_chain(DEFAULT_PERSONA.email, ["md5", "sha256"])
    assert not shallow.origins_of(token)


class _RecordingTokenSet(CandidateTokenSet):
    """Records every candidate origin in the order it is generated."""

    def __init__(self, *args, **kwargs):
        self.generated = []
        super().__init__(*args, **kwargs)

    def _add_token(self, token, origin):
        self.generated.append(origin)
        super()._add_token(token, origin)


def _product_order(config):
    """The naive chain enumeration: depth by depth, each depth the
    product of its first-transform choices and the chain alphabet."""
    all_names = [t.name for t in hashes.all_transforms()]
    chains = [()]
    for depth in range(1, config.max_depth + 1):
        if depth <= config.full_corpus_depth:
            first_choices = all_names
        else:
            first_choices = config.chain_alphabet
        for first in first_choices:
            for rest in product(config.chain_alphabet, repeat=depth - 1):
                chains.append((first,) + rest)
    return chains


@pytest.mark.parametrize("config", [
    TokenSetConfig(),
    TokenSetConfig(max_depth=2, full_corpus_depth=2),
], ids=["default", "full-corpus-depth2"])
def test_chain_enumeration_order(config):
    # Token insertion order decides match order, and with it the order of
    # detector events: the incremental per-level derivation must emit the
    # chains of every surface form in the naive product order.
    token_set = _RecordingTokenSet(DEFAULT_PERSONA, config)
    form = DEFAULT_PERSONA.email
    chains = [origin.chain for origin in token_set.generated
              if origin.pii_type == PII_EMAIL and origin.surface_form == form]
    assert chains == _product_order(config)


def test_token_set_heap_footprint():
    # A token set adds a few objects per token to the collector (the
    # pattern index is one dict of anchor tuples), not one or more per
    # token character, as a trie of node objects would.
    gc.collect()
    before = len(gc.get_objects())
    token_set = CandidateTokenSet(DEFAULT_PERSONA)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert token_set.token_count > 3000
    assert added < 20_000
