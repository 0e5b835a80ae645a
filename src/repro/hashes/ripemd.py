"""Pure-Python RIPEMD-128/160/256/320.

The paper's leak-detection appendix lists all four RIPEMD variants among the
supported hash functions.  ``hashlib`` only exposes RIPEMD-160 (and only when
OpenSSL's legacy provider is enabled), so the whole family is implemented
here from the Dobbertin/Bosselaers/Preneel specification.

RIPEMD-160 is verified against the published test vectors (and, when
available, cross-checked against ``hashlib``'s OpenSSL implementation in the
test suite).  RIPEMD-128 shares the first four rounds of the same schedule;
RIPEMD-256 and RIPEMD-320 are the standard double-width variants that omit
the final cross-line combination and instead swap one chaining word between
the parallel lines after every round.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

_MASK = 0xFFFFFFFF

# Message word selection for the left line, rounds 1..5.
_R_LEFT = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8),
    (3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12),
    (1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2),
    (4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13),
)

# Message word selection for the right line, rounds 1..5.
_R_RIGHT = (
    (5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12),
    (6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2),
    (15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13),
    (8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14),
    (12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11),
)

# Rotation amounts, left line, rounds 1..5.
_S_LEFT = (
    (11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8),
    (7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12),
    (11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5),
    (11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12),
    (9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6),
)

# Rotation amounts, right line, rounds 1..5.
_S_RIGHT = (
    (8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6),
    (9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11),
    (9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5),
    (15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8),
    (8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11),
)

_K_LEFT_160 = (0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E)
_K_RIGHT_160 = (0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0x00000000)

_K_LEFT_128 = (0x00000000, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC)
_K_RIGHT_128 = (0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x00000000)


def _f1(x: int, y: int, z: int) -> int:
    return x ^ y ^ z


def _f2(x: int, y: int, z: int) -> int:
    return (x & y) | (~x & z)


def _f3(x: int, y: int, z: int) -> int:
    return (x | ~y) ^ z


def _f4(x: int, y: int, z: int) -> int:
    return (x & z) | (y & ~z)


def _f5(x: int, y: int, z: int) -> int:
    return x ^ (y | ~z)


_FUNCS = (_f1, _f2, _f3, _f4, _f5)


def _pad(message: bytes) -> bytes:
    bit_length = (len(message) * 8) & 0xFFFFFFFFFFFFFFFF
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    return padded + struct.pack("<Q", bit_length)


def _round5_line(
    words: Sequence[int],
    state: Sequence[int],
    r_table: Sequence[Sequence[int]],
    s_table: Sequence[Sequence[int]],
    k_table: Sequence[int],
    func_order: Sequence[int],
) -> Tuple[int, int, int, int, int]:
    a, b, c, d, e = state
    for round_index in range(5):
        func = _FUNCS[func_order[round_index]]
        k = k_table[round_index]
        selection = r_table[round_index]
        shifts = s_table[round_index]
        for j in range(16):
            t = (a + func(b, c, d) + words[selection[j]] + k) & _MASK
            shift = shifts[j]
            t = (((t << shift) | (t >> (32 - shift))) + e) & _MASK
            a, b, c, d, e = e, t, b, ((c << 10) | (c >> 22)) & _MASK, d
    return a, b, c, d, e


def _round4_line(
    words: Sequence[int],
    state: Sequence[int],
    r_table: Sequence[Sequence[int]],
    s_table: Sequence[Sequence[int]],
    k_table: Sequence[int],
    func_order: Sequence[int],
) -> Tuple[int, int, int, int]:
    a, b, c, d = state
    for round_index in range(4):
        func = _FUNCS[func_order[round_index]]
        k = k_table[round_index]
        selection = r_table[round_index]
        shifts = s_table[round_index]
        for j in range(16):
            t = (a + func(b, c, d) + words[selection[j]] + k) & _MASK
            shift = shifts[j]
            t = ((t << shift) | (t >> (32 - shift))) & _MASK
            a, b, c, d = d, t, b, c
    return a, b, c, d


def _compress_160(state: List[int], block: bytes) -> List[int]:
    words = struct.unpack("<16I", block)
    left = _round5_line(words, state, _R_LEFT, _S_LEFT, _K_LEFT_160, (0, 1, 2, 3, 4))
    right = _round5_line(words, state, _R_RIGHT, _S_RIGHT, _K_RIGHT_160, (4, 3, 2, 1, 0))
    combined = [
        (state[1] + left[2] + right[3]) & _MASK,
        (state[2] + left[3] + right[4]) & _MASK,
        (state[3] + left[4] + right[0]) & _MASK,
        (state[4] + left[0] + right[1]) & _MASK,
        (state[0] + left[1] + right[2]) & _MASK,
    ]
    return combined


def _compress_128(state: List[int], block: bytes) -> List[int]:
    words = struct.unpack("<16I", block)
    left = _round4_line(words, state, _R_LEFT, _S_LEFT, _K_LEFT_128, (0, 1, 2, 3))
    right = _round4_line(words, state, _R_RIGHT, _S_RIGHT, _K_RIGHT_128, (3, 2, 1, 0))
    return [
        (state[1] + left[2] + right[3]) & _MASK,
        (state[2] + left[3] + right[0]) & _MASK,
        (state[3] + left[0] + right[1]) & _MASK,
        (state[0] + left[1] + right[2]) & _MASK,
    ]


def _compress_256(state: List[int], block: bytes) -> List[int]:
    words = struct.unpack("<16I", block)
    left = list(state[:4])
    right = list(state[4:])
    # Word swapped between the lines after each of the four rounds.
    swap_positions = (0, 1, 2, 3)
    for round_index in range(4):
        left = list(
            _round4_line_single(words, left, _R_LEFT[round_index],
                                _S_LEFT[round_index], _K_LEFT_128[round_index],
                                _FUNCS[round_index]))
        right = list(
            _round4_line_single(words, right, _R_RIGHT[round_index],
                                _S_RIGHT[round_index], _K_RIGHT_128[round_index],
                                _FUNCS[3 - round_index]))
        pos = swap_positions[round_index]
        left[pos], right[pos] = right[pos], left[pos]
    return [
        (state[0] + left[0]) & _MASK,
        (state[1] + left[1]) & _MASK,
        (state[2] + left[2]) & _MASK,
        (state[3] + left[3]) & _MASK,
        (state[4] + right[0]) & _MASK,
        (state[5] + right[1]) & _MASK,
        (state[6] + right[2]) & _MASK,
        (state[7] + right[3]) & _MASK,
    ]


def _round4_line_single(words, state, selection, shifts, k, func):
    a, b, c, d = state
    for j in range(16):
        t = (a + func(b, c, d) + words[selection[j]] + k) & _MASK
        shift = shifts[j]
        t = ((t << shift) | (t >> (32 - shift))) & _MASK
        a, b, c, d = d, t, b, c
    return a, b, c, d


def _round5_line_single(words, state, selection, shifts, k, func):
    a, b, c, d, e = state
    for j in range(16):
        t = (a + func(b, c, d) + words[selection[j]] + k) & _MASK
        shift = shifts[j]
        t = (((t << shift) | (t >> (32 - shift))) + e) & _MASK
        a, b, c, d, e = e, t, b, ((c << 10) | (c >> 22)) & _MASK, d
    return a, b, c, d, e


def _compress_320(state: List[int], block: bytes) -> List[int]:
    words = struct.unpack("<16I", block)
    left = list(state[:5])
    right = list(state[5:])
    # Word swapped between the lines after each of the five rounds
    # (B, D, A, C, E in the reference specification).
    swap_positions = (1, 3, 0, 2, 4)
    for round_index in range(5):
        left = list(
            _round5_line_single(words, left, _R_LEFT[round_index],
                                _S_LEFT[round_index], _K_LEFT_160[round_index],
                                _FUNCS[round_index]))
        right = list(
            _round5_line_single(words, right, _R_RIGHT[round_index],
                                _S_RIGHT[round_index], _K_RIGHT_160[round_index],
                                _FUNCS[4 - round_index]))
        pos = swap_positions[round_index]
        left[pos], right[pos] = right[pos], left[pos]
    return [(state[i] + (left + right)[i]) & _MASK for i in range(10)]


_INIT_128 = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476]
_INIT_160 = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
_INIT_256 = [
    0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
    0x76543210, 0xFEDCBA98, 0x89ABCDEF, 0x01234567,
]
_INIT_320 = [
    0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0,
    0x76543210, 0xFEDCBA98, 0x89ABCDEF, 0x01234567, 0x3C2D1E0F,
]


def _run(message: bytes, init: List[int], compress) -> bytes:
    state = list(init)
    padded = _pad(message)
    for offset in range(0, len(padded), 64):
        state = compress(state, padded[offset:offset + 64])
    return struct.pack("<%dI" % len(state), *state)


def ripemd128_digest(message: bytes) -> bytes:
    """Return the 16-byte RIPEMD-128 digest of ``message``."""
    return _run(message, _INIT_128, _compress_128)


def ripemd160_digest(message: bytes) -> bytes:
    """Return the 20-byte RIPEMD-160 digest of ``message``."""
    return _run(message, _INIT_160, _compress_160)


def ripemd256_digest(message: bytes) -> bytes:
    """Return the 32-byte RIPEMD-256 digest of ``message``."""
    return _run(message, _INIT_256, _compress_256)


def ripemd320_digest(message: bytes) -> bytes:
    """Return the 40-byte RIPEMD-320 digest of ``message``."""
    return _run(message, _INIT_320, _compress_320)


def ripemd128_hexdigest(message: bytes) -> str:
    """RIPEMD-128 digest as lowercase hex."""
    return ripemd128_digest(message).hex()


def ripemd160_hexdigest(message: bytes) -> str:
    """RIPEMD-160 digest as lowercase hex."""
    return ripemd160_digest(message).hex()


def ripemd256_hexdigest(message: bytes) -> str:
    """RIPEMD-256 digest as lowercase hex."""
    return ripemd256_digest(message).hex()


def ripemd320_hexdigest(message: bytes) -> str:
    """RIPEMD-320 digest as lowercase hex."""
    return ripemd320_digest(message).hex()
