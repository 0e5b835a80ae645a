"""Snefru-128/256 with derived S-boxes.

Snefru (Merkle, 1990) appears in the paper's appendix of supported hash
functions.  The original algorithm depends on 16 "standard" S-boxes of 256
32-bit words each (generated at Xerox PARC from a certified random source).
Those tables are pure data that cannot be re-derived offline, so this module
keeps Snefru's exact *structure* — a 512-bit shift-register compression
function with byte-indexed S-box lookups and the (16, 8, 16, 24) rotation
schedule over eight security passes — while generating the S-boxes
deterministically from SHA-256 in counter mode.

As with :mod:`repro.hashes.md2`, the substitution is flagged via
:data:`FAITHFUL`; within this reproduction both the leaking scripts and the
detector share the tables, so detection semantics are preserved.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import List, Sequence, Tuple

#: False because the original Xerox S-box tables are replaced.
FAITHFUL = False

_MASK = 0xFFFFFFFF
_SECURITY_LEVEL = 8  # Snefru 2.0 uses eight passes.
_ROTATIONS = (16, 8, 16, 24)
_INPUT_WORDS = 16  # the compression function always mixes 16 words

if array("I").itemsize != 4:
    raise ImportError("Snefru's rotated S-boxes need 4-byte array items")

#: One step of a round (see :func:`_build_schedule`).
Step = Tuple[int, int, int, Sequence[int]]


def _build_sboxes() -> Tuple[Tuple[int, ...], ...]:
    boxes: List[Tuple[int, ...]] = []
    for box_index in range(_SECURITY_LEVEL * 2):
        words: List[int] = []
        counter = 0
        while len(words) < 256:
            digest = hashlib.sha256(
                b"repro-snefru-sbox-%d-%d" % (box_index, counter)).digest()
            words.extend(struct.unpack(">8I", digest))
            counter += 1
        boxes.append(tuple(words[:256]))
    return tuple(boxes)


_SBOXES = _build_sboxes()


def _rotated(sbox: Tuple[int, ...], amount: int) -> Sequence[int]:
    """``sbox`` with every entry rotated left by ``amount`` bits, a
    multiple of 8; a 32-bit array (4 bytes an entry) for the rotated
    copies.  Rotating a big-endian word by whole bytes moves its bytes,
    so the copy is made by byte slicing."""
    if amount == 0:
        return sbox
    words = struct.pack(">%dI" % len(sbox), *sbox)
    shift = amount // 8
    rotated = bytearray(len(words))
    for offset in range(4):
        rotated[offset::4] = words[(offset + shift) % 4::4]
    table = array("I")
    table.frombytes(rotated)
    if sys.byteorder == "little":
        table.byteswap()
    return table


def _build_schedule() -> Tuple[Tuple[Tuple[int, Tuple[Step, ...]], ...],
                               ...]:
    """Per pass, per round, the rotation the state has accumulated and
    the round's 16 steps.

    The compression function rotates all 16 words right after every
    round.  Rotation distributes over XOR, so the state can stay
    unrotated instead: with ``shift`` bits of rotation owed, a word's
    low byte is its byte ``shift // 8``, and an S-box entry XORed in
    must be rotated left by ``shift`` first.  The rotations of a pass
    (16, 8, 16, 24) add up to 64 bits, so the owed rotation is 0, 16,
    24 and 8 at the rounds' starts and 0 again at the pass's end.  A
    step is (word, its successor, its predecessor, the S-box it indexes,
    rotated by the owed shift).
    """
    schedule = []
    for pass_index in range(_SECURITY_LEVEL):
        boxes = (_SBOXES[2 * pass_index], _SBOXES[2 * pass_index + 1])
        rounds = []
        shift = 0
        for rotation in _ROTATIONS:
            tables = [_rotated(box, shift) for box in boxes]
            rounds.append((shift, tuple(
                (i, (i + 1) % _INPUT_WORDS, (i - 1) % _INPUT_WORDS,
                 tables[(i // 2) & 1])
                for i in range(_INPUT_WORDS))))
            shift = (shift + rotation) % 32
        schedule.append(tuple(rounds))
    return tuple(schedule)


_SCHEDULE = _build_schedule()


def _compress(block_words: List[int]) -> List[int]:
    """One application of the Snefru compression function.

    ``block_words`` must contain exactly 16 32-bit words: the chaining value
    followed by the message chunk.  Returns the full mixed state; callers
    truncate to the output size.  The state is kept unrotated (see
    :func:`_build_schedule`); every word stays below 2**32, since the
    S-box entries are 32-bit.
    """
    state = list(block_words)
    for rounds in _SCHEDULE:
        for shift, steps in rounds:
            for i, after, before, sbox in steps:
                entry = sbox[(state[i] >> shift) & 0xFF]
                state[after] ^= entry
                state[before] ^= entry
    return [(block_words[i] ^ state[_INPUT_WORDS - 1 - i]) & _MASK
            for i in range(_INPUT_WORDS)]


def _snefru(message: bytes, output_words: int) -> bytes:
    chunk_words = _INPUT_WORDS - output_words
    chunk_bytes = chunk_words * 4
    state = [0] * output_words

    full_len = len(message)
    padded = message + b"\x00" * ((chunk_bytes - len(message) % chunk_bytes)
                                  % chunk_bytes)
    for offset in range(0, len(padded), chunk_bytes):
        chunk = struct.unpack(">%dI" % chunk_words,
                              padded[offset:offset + chunk_bytes])
        mixed = _compress(state + list(chunk))
        state = mixed[:output_words]

    # Final block encodes the bit length, exactly as the reference design.
    length_block = [0] * (chunk_words - 2)
    bit_length = full_len * 8
    length_block.append((bit_length >> 32) & _MASK)
    length_block.append(bit_length & _MASK)
    mixed = _compress(state + length_block)
    state = mixed[:output_words]
    return struct.pack(">%dI" % output_words, *state)


def snefru128_digest(message: bytes) -> bytes:
    """Return the 16-byte Snefru-128 digest of ``message``."""
    return _snefru(message, 4)


def snefru256_digest(message: bytes) -> bytes:
    """Return the 32-byte Snefru-256 digest of ``message``."""
    return _snefru(message, 8)


def snefru128_hexdigest(message: bytes) -> str:
    """Snefru-128 digest as lowercase hex."""
    return snefru128_digest(message).hex()


def snefru256_hexdigest(message: bytes) -> str:
    """Snefru-256 digest as lowercase hex."""
    return snefru256_digest(message).hex()
