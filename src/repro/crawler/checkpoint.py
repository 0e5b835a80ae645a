"""Crawl checkpoint serialization.

A :class:`~repro.crawler.runner.CrawlSession` is a closed world of plain
Python data (browser state, cookie jar, capture log, mailbox, fault-plan
counters, circuit breakers, pending site queue), so a checkpoint is simply
a versioned pickle of the session.  The format carries a magic header, an
explicit payload length and a SHA-256 trailer so a stale, foreign, or
*truncated* file fails loudly instead of resuming garbage — a worker
killed mid-write can never be mistaken for a valid checkpoint (writes are
atomic anyway, but the trailer also catches torn copies, half-synced
network filesystems and manual tampering).

Only load checkpoints you wrote yourself: like every pickle, the payload
can execute code when deserialized.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile

#: Format magic + version.  Bump the version on incompatible state changes.
#: Version 2 added the payload-length field and SHA-256 integrity trailer.
#: Version 3: a traced session's recorder holds one ``MetricSet`` instead
#: of the ``Counter``/``Gauge`` objects a version-2 pickle refers to.
#: Version 4: the browser's tracker storage is keyed by site, then by
#: service, and ``Headers`` keep their fields in one tuple.
#: Version 5: ``Url``, ``HttpRequest``, ``HttpResponse`` and
#: ``CaptureEntry`` are slotted and pickle as their field values, where a
#: version-4 pickle holds each one's ``__dict__``.
CHECKPOINT_MAGIC = b"repro-crawl-checkpoint:5\n"

#: Payload length prefix: one big-endian u64 between magic and pickle.
_LENGTH_STRUCT = struct.Struct(">Q")


class CheckpointError(ValueError):
    """The file is not a checkpoint this version can resume."""


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


def save_checkpoint(session, path: str) -> str:
    """Atomically write ``session`` to ``path``; returns the path.

    The write goes through a temp file + rename so a crash mid-write
    never leaves a truncated checkpoint behind — the previous complete
    checkpoint (if any) survives.  The on-disk layout is::

        magic  |  u64 payload length  |  pickle payload  |  sha256(payload)
    """
    payload = pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)
    record = b"".join([CHECKPOINT_MAGIC, _LENGTH_STRUCT.pack(len(payload)),
                       payload, hashlib.sha256(payload).digest()])
    return atomic_write_bytes(path, record)


def load_checkpoint(path: str):
    """Load a session previously written by :func:`save_checkpoint`.

    Raises :class:`CheckpointError` (with a message naming the failure:
    wrong magic/version, truncated payload, digest mismatch, or a
    payload pickle that cannot be deserialized) rather than ever
    surfacing unpickled garbage to the resume path.
    """
    with open(path, "rb") as handle:
        header = handle.read(len(CHECKPOINT_MAGIC))
        if header != CHECKPOINT_MAGIC:
            raise CheckpointError(
                "%s is not a version-%s crawl checkpoint (bad or "
                "outdated header; re-crawl rather than resuming it)"
                % (path, CHECKPOINT_MAGIC.decode("ascii").strip()
                   .rsplit(":", 1)[-1]))
        length_bytes = handle.read(_LENGTH_STRUCT.size)
        if len(length_bytes) != _LENGTH_STRUCT.size:
            raise CheckpointError(
                "%s is truncated (incomplete length field); the writer "
                "died mid-write — delete it and re-crawl the shard"
                % path)
        (length,) = _LENGTH_STRUCT.unpack(length_bytes)
        payload = handle.read(length)
        digest = handle.read(hashlib.sha256().digest_size)
        if len(payload) != length or \
                len(digest) != hashlib.sha256().digest_size:
            raise CheckpointError(
                "%s is truncated (%d of %d payload bytes present); the "
                "writer died mid-write — delete it and re-crawl the "
                "shard" % (path, len(payload), length))
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointError(
                "%s fails its integrity check (payload digest mismatch); "
                "refusing to unpickle a corrupt checkpoint" % path)
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise CheckpointError(
                "%s carries an undeserializable payload (%s: %s); it was "
                "probably written by an incompatible code version"
                % (path, type(exc).__name__, exc)) from exc
