"""Per-job artifact directories, status persistence, and recovery.

Every job owns one directory under the store root::

    jobs/job-000001/
        spec.json          # the validated submission, canonical form
        status.json        # lifecycle state + progress/supervision digest
        progress.jsonl     # machine-readable heartbeat log (append-only)
        trace.jsonl        # merged observability trace (complete jobs)
        result.json        # Table-2-style attribution output (complete)
        checkpoints/       # per-shard checkpoints + study-manifest.json

The directory is the durable truth: a service restart rebuilds its
whole view from disk (:meth:`JobStore.recover`), requeues anything that
was queued or mid-run, and resumes interrupted crawls from the PR-6
``study-manifest.json`` + per-shard checkpoints — the service process
itself holds no state a crash can lose beyond the in-memory SSE replay
buffer, which is rebuilt from ``progress.jsonl``.

Job ids are sequential (``job-%06d``), assigned under a lock by
scanning the store — deterministic and collision-free without OS
entropy, keeping the module clean under the DET103 rule.
"""

from __future__ import annotations

import json
import os
import re
import threading
from typing import Dict, List, Optional

from ..crawler.checkpoint import atomic_write_text
from ..obs.progress import read_progress_log
from .jobs import (
    JOB_STATES,
    JobSpec,
    STATE_PARTIAL,
    STATE_QUEUED,
    STATE_RUNNING,
    TERMINAL_STATES,
)
from .sse import EventLog

#: Artifact file names inside a job directory.
SPEC_NAME = "spec.json"
STATUS_NAME = "status.json"
RESULT_NAME = "result.json"
TRACE_NAME = "trace.jsonl"
PROGRESS_NAME = "progress.jsonl"
CHECKPOINTS_DIR = "checkpoints"

#: Schema version of status.json documents.
STATUS_SCHEMA_VERSION = 1

_JOB_DIR_RE = re.compile(r"^job-(\d{6})$")


class StoreError(RuntimeError):
    """A job directory exists but cannot be read back."""


class JobRecord:
    """The service's runtime view of one job.

    Wraps the durable directory with the live pieces the HTTP layer
    needs: the SSE :class:`~repro.service.sse.EventLog`, the running
    :class:`~repro.service.jobs.JobRun` (for graceful drain), and the
    live :class:`~repro.obs.ProgressAggregator` (for status snapshots).
    Parent-side only — never pickled, never crosses a process boundary.
    """

    def __init__(self, job_id: str, spec: JobSpec, directory: str,
                 state: str = STATE_QUEUED) -> None:
        self.id = job_id
        self.spec = spec
        self.directory = directory
        self.state = state
        self.error = ""
        self.resumable = False
        self.fingerprint = ""
        self.attempts = 0           # times a runner picked this job up
        self.recovered = False      # requeued by a restart's recover()
        self.progress_snapshot: Optional[Dict[str, object]] = None
        self.supervision: Optional[Dict[str, object]] = None
        self.log = EventLog()
        self.run: Optional[object] = None          # live JobRun
        self.aggregator: Optional[object] = None   # live ProgressAggregator

    # -- paths -----------------------------------------------------------

    @property
    def spec_path(self) -> str:
        return os.path.join(self.directory, SPEC_NAME)

    @property
    def status_path(self) -> str:
        return os.path.join(self.directory, STATUS_NAME)

    @property
    def result_path(self) -> str:
        return os.path.join(self.directory, RESULT_NAME)

    @property
    def trace_path(self) -> str:
        return os.path.join(self.directory, TRACE_NAME)

    @property
    def progress_path(self) -> str:
        return os.path.join(self.directory, PROGRESS_NAME)

    @property
    def checkpoint_dir(self) -> str:
        return os.path.join(self.directory, CHECKPOINTS_DIR)

    # -- views -----------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def progress_view(self) -> Optional[Dict[str, object]]:
        """The freshest progress snapshot available (live or stored)."""
        aggregator = self.aggregator
        if aggregator is not None:
            return aggregator.snapshot()
        return self.progress_snapshot

    def status_document(self) -> Dict[str, object]:
        """The JSON body ``GET /studies/{id}`` serves (and status.json)."""
        return {
            "schema": STATUS_SCHEMA_VERSION,
            "id": self.id,
            "state": self.state,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "description": self.spec.describe(),
            "spec": self.spec.as_dict(),
            "error": self.error,
            "resumable": self.resumable,
            "fingerprint": self.fingerprint,
            "attempts": self.attempts,
            "progress": self.progress_view(),
            "supervision": self.supervision,
        }

    def summary(self) -> Dict[str, object]:
        """The compact row ``GET /studies`` lists."""
        return {"id": self.id, "state": self.state,
                "kind": self.spec.kind, "label": self.spec.label}


class JobStore:
    """Creates, persists, lists and recovers :class:`JobRecord`\\ s."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        # Guards id assignment and the record cache; service-side only,
        # never pickled with the store.
        self._lock = threading.Lock()  # statan: ignore[PKL303] -- service-side only, never pickled
        self._records: Dict[str, JobRecord] = {}

    # -- creation --------------------------------------------------------

    def create(self, spec: JobSpec) -> JobRecord:
        """Allocate the next job id, write spec + status, cache the record."""
        with self._lock:
            job_id = "job-%06d" % self._next_index_locked()
            directory = os.path.join(self.root, job_id)
            os.makedirs(directory)
            record = JobRecord(job_id, spec, directory)
            self._records[job_id] = record
        atomic_write_text(record.spec_path,
                          _dumps(spec.as_dict()))
        self.write_status(record)
        return record

    def _next_index_locked(self) -> int:
        highest = 0
        for name in os.listdir(self.root):
            match = _JOB_DIR_RE.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    # -- lookup ----------------------------------------------------------

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The cached record, or one loaded from disk, or ``None``."""
        with self._lock:
            record = self._records.get(job_id)
        if record is not None:
            return record
        if not _JOB_DIR_RE.match(job_id):
            return None
        directory = os.path.join(self.root, job_id)
        if not os.path.isdir(directory):
            return None
        record = self._load(job_id, directory)
        with self._lock:
            return self._records.setdefault(job_id, record)

    def list(self) -> List[JobRecord]:
        """Every job in the store, id order (loads any not yet cached)."""
        for name in sorted(os.listdir(self.root)):
            if _JOB_DIR_RE.match(name):
                self.get(name)
        with self._lock:
            return [self._records[job_id]
                    for job_id in sorted(self._records)]

    def live_records(self) -> List[JobRecord]:
        """Cached records only (no disk scan) — for shutdown fan-out."""
        with self._lock:
            return list(self._records.values())

    # -- persistence -----------------------------------------------------

    def write_status(self, record: JobRecord) -> None:
        atomic_write_text(record.status_path,
                          _dumps(record.status_document()))

    def write_result(self, record: JobRecord,
                     document: Dict[str, object]) -> None:
        atomic_write_text(record.result_path, _dumps(document))

    def read_result(self, record: JobRecord) -> Optional[Dict[str, object]]:
        if not os.path.exists(record.result_path):
            return None
        with open(record.result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- recovery --------------------------------------------------------

    def recover(self) -> List[JobRecord]:
        """Rebuild records from disk; return the ones to requeue.

        Jobs found ``queued`` or ``running`` (the process died under
        them) and ``partial`` jobs marked resumable (a graceful drain
        interrupted them) are reset to ``queued`` and returned for the
        service to requeue — their per-shard checkpoints and study
        manifest make the rerun a resume, not a restart.  Terminal
        non-resumable jobs are cached for serving only.
        """
        requeue: List[JobRecord] = []
        for record in self.list():
            if record.state in (STATE_QUEUED, STATE_RUNNING) or \
                    (record.state == STATE_PARTIAL and record.resumable):
                if record.log.closed:
                    # The terminal load closed the replay log; reopen it
                    # (history intact) so the rerun can keep appending.
                    record.log = self._replay_log(record)
                record.state = STATE_QUEUED
                record.recovered = True
                self.write_status(record)
                requeue.append(record)
        return requeue

    def _replay_log(self, record: JobRecord) -> EventLog:
        """A fresh, open event log preloaded with the durable history."""
        log = EventLog()
        if os.path.exists(record.progress_path):
            for event in read_progress_log(record.progress_path):
                log.append(event)
        return log

    def _load(self, job_id: str, directory: str) -> JobRecord:
        spec_path = os.path.join(directory, SPEC_NAME)
        status_path = os.path.join(directory, STATUS_NAME)
        try:
            with open(spec_path, "r", encoding="utf-8") as handle:
                spec = JobSpec.from_stored(json.load(handle))
        except (OSError, ValueError) as exc:
            raise StoreError("%s has no readable spec.json (%s)"
                             % (directory, exc)) from exc
        record = JobRecord(job_id, spec, directory)
        if os.path.exists(status_path):
            try:
                with open(status_path, "r", encoding="utf-8") as handle:
                    status = json.load(handle)
            except (OSError, ValueError) as exc:
                raise StoreError("%s is not readable (%s)"
                                 % (status_path, exc)) from exc
            state = status.get("state")
            if state in JOB_STATES:
                record.state = str(state)
            record.error = str(status.get("error", ""))
            record.resumable = bool(status.get("resumable", False))
            record.fingerprint = str(status.get("fingerprint", ""))
            record.attempts = int(status.get("attempts", 0))
            progress = status.get("progress")
            if isinstance(progress, dict):
                record.progress_snapshot = progress
            supervision = status.get("supervision")
            if isinstance(supervision, dict):
                record.supervision = supervision
        # Rebuild the SSE replay buffer from the durable heartbeat log.
        if os.path.exists(record.progress_path):
            for event in read_progress_log(record.progress_path):
                record.log.append(event)
        if record.terminal:
            record.log.append({"type": "end", "job": record.id,
                               "state": record.state,
                               "fingerprint": record.fingerprint,
                               "error": record.error})
            record.log.close()
        return record


def _dumps(document: Dict[str, object]) -> str:
    return json.dumps(document, sort_keys=True) + "\n"


__all__ = ["CHECKPOINTS_DIR", "JobRecord", "JobStore", "PROGRESS_NAME",
           "RESULT_NAME", "SPEC_NAME", "STATUS_NAME",
           "STATUS_SCHEMA_VERSION", "StoreError", "TRACE_NAME"]
