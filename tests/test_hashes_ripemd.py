"""RIPEMD family: published vectors, OpenSSL cross-check, structure."""

import hashlib

import pytest

from repro.hashes.ripemd import (
    ripemd128_digest,
    ripemd128_hexdigest,
    ripemd160_digest,
    ripemd160_hexdigest,
    ripemd256_digest,
    ripemd256_hexdigest,
    ripemd320_digest,
    ripemd320_hexdigest,
)

RIPEMD160_VECTORS = [
    (b"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"),
    (b"a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe"),
    (b"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"),
    (b"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"),
    (b"abcdefghijklmnopqrstuvwxyz",
     "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"),
]

RIPEMD128_VECTORS = [
    (b"", "cdf26213a150dc3ecb610f18f6b38b46"),
    (b"abc", "c14a12199c66e4ba84636b0f69144c77"),
]


@pytest.mark.parametrize("message,expected", RIPEMD160_VECTORS)
def test_ripemd160_vectors(message, expected):
    assert ripemd160_hexdigest(message) == expected


@pytest.mark.parametrize("message,expected", RIPEMD128_VECTORS)
def test_ripemd128_vectors(message, expected):
    assert ripemd128_hexdigest(message) == expected


#: Published vectors of the double-width variants (RIPEMD home page).
DOUBLE_WIDTH_VECTORS = [
    (ripemd256_hexdigest, b"",
     "02ba4c4e5f8ecd1877fc52d64d30e37a2d9774fb1e5d026380ae0168e3c5522d"),
    (ripemd256_hexdigest, b"abc",
     "afbd6e228b9d8cbbcef5ca2d03e6dba10ac0bc7dcbe4680e1e42d2e975459b65"),
    (ripemd320_hexdigest, b"",
     "22d65d5661536cdc75c1fdf5c6de7b41b9f27325"
     "ebc61e8557177d705a0ec880151c3a32a00899b8"),
    (ripemd320_hexdigest, b"abc",
     "de4c01b3054f8930a79d09ae738e92301e5a1708"
     "5beffdc1b8d116713e74f82fa942d64cdbc4682d"),
]


@pytest.mark.parametrize("func,message,expected", DOUBLE_WIDTH_VECTORS)
def test_double_width_vectors(func, message, expected):
    assert func(message) == expected


def _openssl_ripemd160_available():
    try:
        hashlib.new("ripemd160")
        return True
    except ValueError:
        return False


@pytest.mark.skipif(not _openssl_ripemd160_available(),
                    reason="OpenSSL legacy provider without ripemd160")
@pytest.mark.parametrize("message", [
    b"", b"x", b"foo@mydom.com", b"a" * 55, b"b" * 64, b"c" * 200,
])
def test_ripemd160_matches_openssl(message):
    reference = hashlib.new("ripemd160")
    reference.update(message)
    assert ripemd160_hexdigest(message) == reference.hexdigest()


def test_digest_lengths():
    assert len(ripemd128_digest(b"x")) == 16
    assert len(ripemd160_digest(b"x")) == 20
    assert len(ripemd256_digest(b"x")) == 32
    assert len(ripemd320_digest(b"x")) == 40


@pytest.mark.parametrize("func", [
    ripemd128_hexdigest, ripemd160_hexdigest,
    ripemd256_hexdigest, ripemd320_hexdigest,
])
def test_deterministic_and_distinct(func):
    assert func(b"alpha") == func(b"alpha")
    assert func(b"alpha") != func(b"beta")


def test_double_width_variants_not_truncations():
    # RIPEMD-256 is not RIPEMD-128 zero-extended (and likewise 320/160):
    # the parallel lines exchange chaining words, producing unrelated
    # digests.
    assert ripemd256_hexdigest(b"abc")[:32] != ripemd128_hexdigest(b"abc")
    assert ripemd320_hexdigest(b"abc")[:40] != ripemd160_hexdigest(b"abc")


def test_block_boundaries():
    for length in (55, 56, 57, 63, 64, 65):
        for func in (ripemd128_digest, ripemd160_digest,
                     ripemd256_digest, ripemd320_digest):
            assert func(b"q" * length)
