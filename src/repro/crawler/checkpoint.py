"""Crawl checkpoint journal.

A checkpoint is an append-only journal, so saving after a site costs
that site rather than the whole crawl so far.  The layout::

    magic | header frame | snapshot frame | record frame | record frame ...

and every frame is ``u64 payload length | pickle payload |
sha256(payload)``.  The header holds the session's shard identity, so a
layout mismatch is refused before anything else is unpickled.  The
snapshot is the session's starting configuration: it holds no capture
entries and no population (the caller supplies the population again at
load).  Each record holds one save's worth of appended crawl output plus
the session's small mutable state as it stood at that save; see
:meth:`repro.crawler.CrawlSession.save`.

The magic, header, snapshot and first record are written together
through a temp file + rename, so that base is all-or-nothing.  Every
later record is appended in place and fsynced.  A writer killed
mid-append leaves a torn final record, which :func:`read_journal` drops
(the site it described is crawled again on resume); damage anywhere
else fails loudly as a :class:`CheckpointError` instead of resuming
garbage.

Only load checkpoints you wrote yourself: like every pickle, the frames
can execute code when deserialized.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
from typing import List, Tuple

#: Format magic + version.  Bump the version on incompatible state changes.
#: Version 2 added the payload-length field and SHA-256 integrity trailer.
#: Version 3: a traced session's recorder holds one ``MetricSet`` instead
#: of the ``Counter``/``Gauge`` objects a version-2 pickle refers to.
#: Version 4: the browser's tracker storage is keyed by site, then by
#: service, and ``Headers`` keep their fields in one tuple.
#: Version 5: ``Url``, ``HttpRequest``, ``HttpResponse`` and
#: ``CaptureEntry`` are slotted and pickle as their field values, where a
#: version-4 pickle holds each one's ``__dict__``.
#: Version 6: an append-only journal of framed records replaces the one
#: pickle of the whole session.
#: Version 7: a record holds only the fault-plan counters and streaks and
#: the circuit-breaker origins changed since the previous record, where a
#: version-6 record repeats them all.
CHECKPOINT_MAGIC = b"repro-crawl-checkpoint:7\n"

#: Payload length prefix of every frame: one big-endian u64.
_LENGTH_STRUCT = struct.Struct(">Q")
_DIGEST_SIZE = hashlib.sha256().digest_size


class CheckpointError(ValueError):
    """The file is not a checkpoint this version can resume."""


@dataclass
class Journal:
    """A checkpoint journal as read back by :func:`read_journal`.

    ``records`` are the unpickled records in write order, a dropped torn
    tail excluded; ``end`` is the byte offset just past the last intact
    record, where the next append belongs.
    """

    header: object
    snapshot: object
    records: List[object]
    end: int


def atomic_write_bytes(path: str, payload: bytes) -> str:
    """Write ``payload`` to ``path`` via temp-file + ``os.replace``.

    The rename is atomic on POSIX, so a crash (or a SIGKILL'd worker)
    mid-write leaves either the previous complete file or nothing —
    never a truncated one.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory,
                                    prefix=os.path.basename(path) + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return path


def atomic_write_text(path: str, text: str) -> str:
    """Atomically write UTF-8 ``text`` to ``path`` (see
    :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def _frame(value: object) -> bytes:
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return b"".join([_LENGTH_STRUCT.pack(len(payload)), payload,
                     hashlib.sha256(payload).digest()])


def start_journal(path: str, header: object, snapshot: object,
                  record: object) -> int:
    """Atomically (re)write ``path`` as a journal holding one record.

    Any previous file at ``path`` is replaced whole.  Returns the
    journal's length, the offset of the next :func:`append_record`.
    """
    base = b"".join([CHECKPOINT_MAGIC, _frame(header), _frame(snapshot),
                     _frame(record)])
    atomic_write_bytes(path, base)
    return len(base)


def append_record(path: str, offset: int, record: object) -> int:
    """Write ``record`` as the frame at ``offset`` of the journal ``path``.

    Anything past ``offset`` (a torn record a killed writer left) is cut
    off before the frame is written, so a writer killed at any point
    leaves at most one torn frame at the end.  The write is fsynced
    before returning.  Returns the new end offset.  Raises
    :class:`FileNotFoundError` if ``path`` is gone and
    :class:`CheckpointError` if it is shorter than ``offset``.
    """
    frame = _frame(record)
    with open(path, "r+b") as handle:
        if os.fstat(handle.fileno()).st_size < offset:
            raise CheckpointError(
                "%s is shorter than the %d bytes this session journaled; "
                "it was truncated behind the writer's back" % (path, offset))
        handle.seek(offset)
        handle.truncate()
        handle.write(frame)
        handle.flush()
        os.fsync(handle.fileno())
    return offset + len(frame)


def _read_frame(blob: bytes, offset: int) -> Tuple[bytes, int, str]:
    """The payload of the frame at ``offset``, the offset after it, and
    ``""`` — or, for a damaged frame, ``"truncated"`` (it runs past the
    end of ``blob``) or ``"digest"``."""
    body = offset + _LENGTH_STRUCT.size
    if len(blob) < body:
        return b"", len(blob), "truncated"
    (length,) = _LENGTH_STRUCT.unpack_from(blob, offset)
    end = body + length + _DIGEST_SIZE
    if len(blob) < end:
        return b"", len(blob), "truncated"
    payload = blob[body:body + length]
    if hashlib.sha256(payload).digest() != blob[end - _DIGEST_SIZE:end]:
        return b"", end, "digest"
    return payload, end, ""


def _holds_a_payload(blob: bytes, body: int) -> bool:
    """Whether a whole payload, digest included, starts at ``body``.

    A torn append leaves a prefix of one frame, so when a frame's length
    field runs past the end of ``blob`` while a payload that matches its
    digest does fit, the length field is damaged.  Every pickle ends
    with its STOP opcode (``.``), so only those bytes can end a payload.
    """
    view = memoryview(blob)
    digest = hashlib.sha256()
    hashed = body
    stop = blob.find(b".", body)
    while stop != -1 and stop + 1 + _DIGEST_SIZE <= len(blob):
        digest.update(view[hashed:stop + 1])
        hashed = stop + 1
        if digest.copy().digest() == blob[hashed:hashed + _DIGEST_SIZE]:
            return True
        stop = blob.find(b".", hashed)
    return False


def _loads(path: str, payload: bytes) -> object:
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            "%s carries an undeserializable payload (%s: %s); it was "
            "probably written by an incompatible code version"
            % (path, type(exc).__name__, exc)) from exc


def _damaged(path: str, what: str, damage: str) -> CheckpointError:
    if damage == "truncated":
        return CheckpointError(
            "%s is truncated (incomplete %s); the writer died mid-write "
            "— delete it and re-crawl the shard" % (path, what))
    return CheckpointError(
        "%s fails its integrity check (%s digest mismatch); refusing to "
        "unpickle a corrupt checkpoint" % (path, what))


def read_journal(path: str) -> Journal:
    """Read a journal written by :func:`start_journal`/:func:`append_record`.

    A torn final record — cut short, or failing its digest, as a writer
    killed mid-append leaves it — is dropped.  Raises
    :class:`CheckpointError` naming the failure for a wrong
    magic/version, a damaged header, snapshot or first record (the
    atomically written base), a digest mismatch in any earlier record, a
    length field that runs past the end over a whole record, or an
    undeserializable frame.  Raises :class:`OSError` if ``path`` cannot
    be read.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(
            "%s is not a version-%s crawl checkpoint (bad or "
            "outdated header; re-crawl rather than resuming it)"
            % (path, CHECKPOINT_MAGIC.decode("ascii").strip()
               .rsplit(":", 1)[-1]))
    offset = len(CHECKPOINT_MAGIC)
    base = []
    for what in ("header", "snapshot", "first record"):
        payload, offset, damage = _read_frame(blob, offset)
        if damage:
            raise _damaged(path, what, damage)
        base.append(_loads(path, payload))
    header, snapshot, first = base
    records = [first]
    while offset < len(blob):
        payload, end, damage = _read_frame(blob, offset)
        if damage == "truncated" and _holds_a_payload(
                blob, offset + _LENGTH_STRUCT.size):
            damage, end = "digest", -1      # a damaged length field
        if damage and end == len(blob):
            break                   # a torn final record: crawl it again
        if damage:
            raise _damaged(path, "record %d" % len(records), damage)
        records.append(_loads(path, payload))
        offset = end
    return Journal(header=header, snapshot=snapshot, records=records,
                   end=offset)
