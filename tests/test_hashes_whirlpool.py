"""Whirlpool against the ISO/IEC 10118-3 test vectors."""

import pytest

from repro.hashes.whirlpool import whirlpool_digest, whirlpool_hexdigest

ISO_VECTORS = [
    (b"",
     "19fa61d75522a4669b44e39c1d2e1726c530232130d407f89afee0964997f7a7"
     "3e83be698b288febcf88e3e03c4f0757ea8964e59b63d93708b138cc42a66eb3"),
    (b"a",
     "8aca2602792aec6f11a67206531fb7d7f0dff59413145e6973c45001d0087b42"
     "d11bc645413aeff63a42391a39145a591a92200d560195e53b478584fdae231a"),
    (b"abc",
     "4e2448a4c6f486bb16b6562c73b4020bf3043e3a731bce721ae1b303d97e6d4c"
     "7181eebdb6c57e277d0e34957114cbd6c797fc9d95d8b582d225292076d4eef5"),
    (b"message digest",
     "378c84a4126e2dc6e56dcc7458377aac838d00032230f53ce1f5700c0ffb4d3b"
     "8421557659ef55c106b4b52ac5a4aaa692ed920052838f3362e86dbd37a8903e"),
    (b"abcdefghijklmnopqrstuvwxyz",
     "f1d754662636ffe92c82ebb9212a484a8d38631ead4238f5442ee13b8054e41b"
     "08bf2a9251c30b6a0b8aae86177ab4a6f68f673e7207865d5d9819a3dba4eb3b"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "dc37e008cf9ee69bf11f00ed9aba26901dd7c28cdec066cc6af42e40f82f3a1e"
     "08eba26629129d8fb7cb57211b9281a65517cc879d7b962142c65f5a7af01467"),
    # Two blocks once padded.
    (b"1234567890" * 8,
     "466ef18babb0154d25b9d38a6414f5c08784372bccb204d6549c4afadb601429"
     "4d5bd8df2a6c44e538cd047b2681a51a2c60481e88c5a20b2c2a80cf3a9a083b"),
    (b"abcdbcdecdefdefgefghfghighijhijk",
     "2a987ea40f917061f5d6f0a0e4644f488a7a5a52deee656207c562f988e95c69"
     "16bdc8031bc5be1b7b947639fe050b56939baaa0adff9ae6745b7b181c3be3fd"),
]


@pytest.mark.parametrize("message,expected", ISO_VECTORS)
def test_iso_vectors(message, expected):
    assert whirlpool_hexdigest(message) == expected


def test_digest_is_64_bytes():
    assert len(whirlpool_digest(b"pii")) == 64


def test_multi_block_message():
    # > 64 bytes forces multiple Miyaguchi-Preneel iterations.
    digest = whirlpool_hexdigest(b"z" * 200)
    assert len(digest) == 128
    assert digest != whirlpool_hexdigest(b"z" * 201)


def test_length_padding_boundary():
    # Padding adds the 256-bit length field; 32 bytes of room is the edge.
    for length in (31, 32, 33, 63, 64, 65):
        assert whirlpool_digest(b"p" * length)
