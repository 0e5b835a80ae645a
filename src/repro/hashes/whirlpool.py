"""Pure-Python Whirlpool (ISO/IEC 10118-3).

Whirlpool appears in the paper's appendix of supported leak-detection hash
functions but is absent from ``hashlib``.  This implementation follows the
Barreto-Rijmen specification:

* the 8-bit S-box is generated from the published 4-bit mini-boxes ``E``,
  ``E^-1`` and ``R`` rather than embedded as a 256-entry constant;
* the diffusion layer multiplies state rows by the circulant matrix
  ``cir(1, 1, 4, 1, 8, 5, 2, 9)`` over GF(2^8) with the reduction polynomial
  ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D);
* a round's SubBytes, ShiftColumns and MixRows are one lookup per state
  byte in eight 256-entry tables of 64-bit rows, built at import from the
  S-box and the matrix, as in the reference implementation;
* the hash construction is Miyaguchi-Preneel over the 512-bit block cipher W.

Verified against the official ISO test vectors in the test suite.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

_ROUNDS = 10
_POLY = 0x11D

# The 4-bit "E" mini-box (exponential) and the pseudo-random "R" mini-box
# from the Whirlpool reference specification.
_E_BOX = (0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3,
          0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0)
_R_BOX = (0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF,
          0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0)
_E_INV = tuple(_E_BOX.index(i) for i in range(16))

# Circulant row of the MixRows matrix.
_CIR = (0x01, 0x01, 0x04, 0x01, 0x08, 0x05, 0x02, 0x09)


def _build_sbox() -> bytes:
    sbox = bytearray(256)
    for x in range(256):
        upper = _E_BOX[x >> 4]
        lower = _E_INV[x & 0xF]
        mixed = _R_BOX[upper ^ lower]
        sbox[x] = (_E_BOX[upper ^ mixed] << 4) | _E_INV[lower ^ mixed]
    return bytes(sbox)


_SBOX = _build_sbox()
_MASK = (1 << 64) - 1


def _xtime(a: int) -> int:
    """``a`` times x in GF(2^8) modulo ``_POLY``."""
    a <<= 1
    return a ^ _POLY if a & 0x100 else a


def _build_tables() -> Tuple[Tuple[int, ...], ...]:
    """Eight 256-entry tables that fold SubBytes, ShiftColumns and
    MixRows into one lookup per state byte.

    Table ``k`` maps byte ``x`` in column ``k`` to the row it adds to
    its output row: byte ``j`` of that row is ``S[x] * cir[(j - k) % 8]``.
    So table ``k`` is table 0 rotated right by ``k`` bytes.
    """
    first = []
    for x in range(256):
        s1 = _SBOX[x]
        s2 = _xtime(s1)
        s4 = _xtime(s2)
        s8 = _xtime(s4)
        product = {1: s1, 2: s2, 4: s4, 5: s4 ^ s1, 8: s8, 9: s8 ^ s1}
        first.append(int.from_bytes(bytes(product[c] for c in _CIR),
                                    "big"))
    return tuple(tuple(((w >> (8 * k)) | (w << (64 - 8 * k))) & _MASK
                       for w in first)
                 for k in range(8))


_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _build_tables()

# Round constants: the first row of rc[r] is eight consecutive S-box
# entries; the other rows are zero.
_RC = tuple(int.from_bytes(_SBOX[8 * r:8 * r + 8], "big")
            for r in range(_ROUNDS))


def _rho(r: Sequence[int]) -> List[int]:
    """SubBytes, ShiftColumns and MixRows of a state held as eight
    big-endian 64-bit rows: output row ``i`` takes column ``k`` from
    row ``i - k`` (mod 8)."""
    return [_T0[r[i] >> 56] ^ _T1[(r[i - 1] >> 48) & 255]
            ^ _T2[(r[i - 2] >> 40) & 255] ^ _T3[(r[i - 3] >> 32) & 255]
            ^ _T4[(r[i - 4] >> 24) & 255] ^ _T5[(r[i - 5] >> 16) & 255]
            ^ _T6[(r[i - 6] >> 8) & 255] ^ _T7[r[i - 7] & 255]
            for i in range(8)]


def _w_cipher(key: List[int], block: List[int]) -> List[int]:
    """The block cipher W: ``block`` encrypted under ``key``, both as
    eight 64-bit rows."""
    state = [s ^ k for s, k in zip(block, key)]
    for constant in _RC:
        key = _rho(key)
        key[0] ^= constant
        state = [s ^ k for s, k in zip(_rho(state), key)]
    return state


def _pad(message: bytes) -> bytes:
    bit_length = len(message) * 8
    padded = message + b"\x80"
    padded += b"\x00" * ((32 - len(padded) % 64) % 64)
    return padded + bit_length.to_bytes(32, "big")


def whirlpool_digest(message: bytes) -> bytes:
    """Return the 64-byte Whirlpool digest of ``message``."""
    state = [0] * 8
    padded = _pad(message)
    for offset in range(0, len(padded), 64):
        block = [int.from_bytes(padded[at:at + 8], "big")
                 for at in range(offset, offset + 64, 8)]
        encrypted = _w_cipher(state, block)
        # Miyaguchi-Preneel chaining.
        state = [e ^ b ^ s for e, b, s in zip(encrypted, block, state)]
    return b"".join(row.to_bytes(8, "big") for row in state)


def whirlpool_hexdigest(message: bytes) -> str:
    """Return the Whirlpool digest of ``message`` as lowercase hex."""
    return whirlpool_digest(message).hex()
