"""The gate, aimed at ourselves: src/repro must be clean, and a seeded
violation of each rule family must be caught.

This mirrors the CI ``lint`` job exactly: ``repro-lint src/`` against
the committed ``.repro-lint-baseline.json`` exits 0, and introducing a
violation of any family flips the exit code to 1.
"""

import os
import textwrap

from repro.statan import analyze_paths, default_rules
from repro.statan.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.statan.cli import EXIT_CLEAN, EXIT_FINDINGS, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
BASELINE = os.path.join(REPO_ROOT, DEFAULT_BASELINE_NAME)

#: One violation per rule family, as it would be typed into a real
#: module in scope.
SEEDED_VIOLATIONS = {
    "determinism": "import time\nT0 = time.time()\n",
    "pii-taint": textwrap.dedent("""
        def debug_dump(persona):
            print(persona.email)
    """),
    "pickle-safety": textwrap.dedent("""
        class Job:
            def __init__(self):
                self.key = lambda item: item
    """),
    "concurrency": textwrap.dedent("""
        import threading

        class Waiter:
            def __init__(self):
                self._cond = threading.Condition()  # statan: ignore[PKL303] -- fixture primitive, parent-side only

            def pause(self):
                with self._cond:
                    self._cond.wait(0.1)
    """),
    "suppression-hygiene":
        "import time\nT0 = time.time()  # statan: ignore[DET101]\n",
}

#: Exactly one violation per CON rule (the lock constructors carry
#: justified PKL303 suppressions so each fixture trips its CON rule
#: and nothing else).
SEEDED_CON_VIOLATIONS = {
    "CON401": textwrap.dedent("""
        import threading

        class SharedState:
            def __init__(self):
                self._lock = threading.Lock()  # statan: ignore[PKL303] -- fixture primitive, parent-side only
                self._value = 0

            def read(self):
                with self._lock:
                    return self._value

            def poke(self):
                self._value = 1
    """),
    "CON402": textwrap.dedent("""
        import threading

        class TwoLocks:
            def __init__(self):
                self._a = threading.Lock()  # statan: ignore[PKL303] -- fixture primitive, parent-side only
                self._b = threading.Lock()  # statan: ignore[PKL303] -- fixture primitive, parent-side only

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    """),
    "CON403": textwrap.dedent("""
        import subprocess
        import threading

        class Launcher:
            def __init__(self):
                self._lock = threading.Lock()  # statan: ignore[PKL303] -- fixture primitive, parent-side only

            def launch(self):
                with self._lock:
                    return self._spawn()

            def _spawn(self):
                return subprocess.run(["true"])
    """),
    "CON404": SEEDED_VIOLATIONS["concurrency"],
    "CON405": textwrap.dedent("""
        import threading

        def fire_and_forget():
            thread = threading.Thread(target=print)
            thread.start()
    """),
}


def test_committed_baseline_exists():
    assert os.path.exists(BASELINE), \
        "missing %s — run: repro-lint src/ --write-baseline" % BASELINE


def test_src_is_clean_against_committed_baseline(capsys):
    report = analyze_paths([SRC], default_rules())
    assert report.errors == []
    new, _ = Baseline.load(BASELINE).split(report.findings)
    assert new == [], "new findings:\n" + \
        "\n".join(finding.format() for finding in new)


def test_cli_gate_passes_like_ci(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == EXIT_CLEAN


def _gate(tmp_path, family, capsys):
    """Exit code of the gate over src/ plus one seeded violation."""
    pkg = tmp_path / "repro" / "crawler"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "seeded_violation.py").write_text(SEEDED_VIOLATIONS[family])
    code = main([SRC, str(tmp_path), "--baseline", BASELINE])
    capsys.readouterr()
    return code


def test_seeded_determinism_violation_fails_gate(tmp_path, capsys):
    assert _gate(tmp_path, "determinism", capsys) == EXIT_FINDINGS


def test_seeded_pii_taint_violation_fails_gate(tmp_path, capsys):
    assert _gate(tmp_path, "pii-taint", capsys) == EXIT_FINDINGS


def test_seeded_pickle_violation_fails_gate(tmp_path, capsys):
    assert _gate(tmp_path, "pickle-safety", capsys) == EXIT_FINDINGS


def test_seeded_concurrency_violation_fails_gate(tmp_path, capsys):
    assert _gate(tmp_path, "concurrency", capsys) == EXIT_FINDINGS


def test_seeded_suppression_hygiene_violation_fails_gate(tmp_path,
                                                         capsys):
    assert _gate(tmp_path, "suppression-hygiene", capsys) == \
        EXIT_FINDINGS


def test_every_family_has_at_least_one_rule_and_fixture():
    families = {rule.family for rule in default_rules()}
    assert families == set(SEEDED_VIOLATIONS)


def test_each_con_seed_trips_exactly_its_rule(tmp_path):
    """Every CON401–CON405 fixture yields exactly one finding, of
    exactly its own rule, under the full default rule set."""
    for rule_id, source in sorted(SEEDED_CON_VIOLATIONS.items()):
        pkg = tmp_path / rule_id / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "seeded_violation.py").write_text(source)
        report = analyze_paths([str(tmp_path / rule_id)],
                               default_rules())
        assert report.errors == []
        assert [finding.rule for finding in report.findings] == \
            [rule_id], ("%s fixture produced: %s" % (
                rule_id,
                [finding.format() for finding in report.findings]))


def test_seeded_con_violations_fail_ci_gate(tmp_path, capsys):
    """The CI-shaped invocation (src + seeds against the committed
    baseline) flips to exit 1 for every CON fixture."""
    for rule_id, source in sorted(SEEDED_CON_VIOLATIONS.items()):
        pkg = tmp_path / rule_id / "repro" / "service"
        pkg.mkdir(parents=True)
        (pkg / "seeded_violation.py").write_text(source)
        code = main([SRC, str(tmp_path / rule_id),
                     "--baseline", BASELINE])
        capsys.readouterr()
        assert code == EXIT_FINDINGS, rule_id


# -- the observability package is inside the gate's scope ----------------


def test_obs_package_is_in_determinism_scope():
    from repro.statan.rules.determinism import DETERMINISM_SCOPE
    assert "repro.obs" in DETERMINISM_SCOPE


def test_obs_package_is_in_pickle_scope():
    from repro.statan.rules.pickle_safety import PICKLE_SCOPE
    assert "repro.obs" in PICKLE_SCOPE


def test_seeded_violation_under_obs_fails_gate(tmp_path, capsys):
    """A wall-clock read planted in repro/obs must trip DET101 — the
    recorder's clocks stay deterministic by rule, not by convention."""
    pkg = tmp_path / "repro" / "obs"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "seeded_violation.py").write_text(
        SEEDED_VIOLATIONS["determinism"])
    code = main([SRC, str(tmp_path), "--baseline", BASELINE])
    capsys.readouterr()
    assert code == EXIT_FINDINGS


# -- the PR-5 observability modules stay inside both scopes ---------------
#
# Scope matching is by dotted prefix, so repro.obs.diff / .progress and
# repro.crawler.parallel are covered automatically — but that coverage
# is itself a contract worth pinning: heartbeat payloads cross the
# multiprocessing boundary (PKL301–303) and the trace diff must never
# read the host clock (DET1xx).


def test_new_obs_submodules_are_in_both_scopes():
    from repro.statan.engine import ModuleContext
    from repro.statan.rules.determinism import DETERMINISM_SCOPE
    from repro.statan.rules.pickle_safety import PICKLE_SCOPE
    for module in ("repro.obs.diff", "repro.obs.progress",
                   "repro.crawler.parallel"):
        ctx = ModuleContext(path="test.py", source="", module=module)
        assert ctx.module_matches(DETERMINISM_SCOPE), module
        assert ctx.module_matches(PICKLE_SCOPE), module


def _seed(tmp_path, relpath, source):
    """Plant ``source`` at tmp_path/<relpath> and run the CI gate."""
    target = tmp_path
    for part in relpath.split("/")[:-1]:
        target = target / part
    target.mkdir(parents=True, exist_ok=True)
    (target / relpath.split("/")[-1]).write_text(source)
    return main([SRC, str(tmp_path), "--baseline", BASELINE])


def test_seeded_lambda_in_heartbeat_state_fails_gate(tmp_path, capsys):
    """PKL301 covers heartbeat payloads: a lambda smuggled into an
    event dataclass would die at the worker->parent queue boundary."""
    code = _seed(tmp_path, "repro/obs/progress_seeded.py", textwrap.dedent("""
        class HeartbeatEventSeeded:
            def __init__(self, shard):
                self.shard = shard
                self.render = lambda: "shard %d" % shard
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_handle_in_heartbeat_state_fails_gate(tmp_path, capsys):
    """PKL303 covers heartbeat payloads: events must carry data, not
    live queues or files (those stay parent-side in the aggregator)."""
    code = _seed(tmp_path, "repro/obs/progress_seeded.py", textwrap.dedent("""
        import multiprocessing

        class HeartbeatEventSeeded:
            def __init__(self):
                self.queue = multiprocessing.Queue()
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_local_class_in_crawler_fails_gate(tmp_path, capsys):
    """PKL302: shard jobs built from function-local classes cannot be
    re-imported by pickle in the worker process."""
    code = _seed(tmp_path, "repro/crawler/parallel_seeded.py",
                 textwrap.dedent("""
        def make_job():
            class LocalJob:
                pass
            return LocalJob()
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_clock_read_in_obs_fails_gate(tmp_path, capsys):
    """DET101 covers repro.obs: a trace diff compares recorded values
    and stamps its report with none of its own clock reads."""
    code = _seed(tmp_path, "repro/obs/diff_seeded.py", textwrap.dedent("""
        import time

        def stamp_entry(entry):
            entry["unix_time"] = time.time()
            return entry
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


# -- the supervised executor and chaos harness stay inside both scopes ----
#
# The supervisor deliberately reads the monotonic clock for liveness —
# but only behind explicit ``statan: ignore[DET101]`` markers.  Pinning
# the modules in scope guarantees any *new* clock read (or unpicklable
# state on the worker-crossing types) trips the gate instead of slipping
# in silently.


def test_supervisor_and_chaos_are_in_both_scopes():
    from repro.statan.engine import ModuleContext
    from repro.statan.rules.determinism import DETERMINISM_SCOPE
    from repro.statan.rules.pickle_safety import PICKLE_SCOPE
    for module in ("repro.crawler.supervisor", "repro.crawler.chaos"):
        ctx = ModuleContext(path="test.py", source="", module=module)
        assert ctx.module_matches(DETERMINISM_SCOPE), module
        assert ctx.module_matches(PICKLE_SCOPE), module


def test_seeded_clock_read_in_supervisor_fails_gate(tmp_path, capsys):
    """DET101 covers the supervisor: unmarked wall-clock reads (e.g. in
    a manifest writer — timestamps belong to the caller) trip the gate;
    only the inline-suppressed liveness reads are exempt."""
    code = _seed(tmp_path, "repro/crawler/supervisor_seeded.py",
                 textwrap.dedent("""
        import time

        def stamp_manifest(document):
            document["written_at"] = time.time()
            return document
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_handle_in_worker_message_fails_gate(tmp_path, capsys):
    """PKL303 covers the supervision channel: worker messages must be
    plain data — a queue handle on a _Beat-like type would die (or
    deadlock) at the process boundary."""
    code = _seed(tmp_path, "repro/crawler/supervisor_seeded.py",
                 textwrap.dedent("""
        import multiprocessing

        class BeatSeeded:
            def __init__(self, shard):
                self.shard = shard
                self.reply_to = multiprocessing.Queue()
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_lambda_in_chaos_plan_fails_gate(tmp_path, capsys):
    """PKL301 covers chaos plans: they ship to every worker, so a
    callable trigger (instead of plain (shard, site, attempt) data)
    would break the launch pickle."""
    code = _seed(tmp_path, "repro/crawler/chaos_seeded.py",
                 textwrap.dedent("""
        class WorkerFaultSeeded:
            def __init__(self, shard):
                self.trigger = lambda site: site == shard
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


# -- the service layer stays inside both scopes ---------------------------
#
# repro.service is deliberately pinned into DETERMINISM_SCOPE and
# PICKLE_SCOPE: job ids, result documents and replay logs must be
# reproducible, and job specs cross the runner/worker process boundary.
# Its legitimate edges — drain deadlines on the monotonic clock, the
# parent-side SSE condition/locks — carry inline ``statan: ignore``
# markers; anything *new* must trip the gate.


def test_service_package_is_in_both_scopes():
    from repro.statan.engine import ModuleContext
    from repro.statan.rules.determinism import DETERMINISM_SCOPE
    from repro.statan.rules.pickle_safety import PICKLE_SCOPE
    for module in ("repro.service", "repro.service.jobs",
                   "repro.service.server", "repro.service.sse"):
        ctx = ModuleContext(path="test.py", source="", module=module)
        assert ctx.module_matches(DETERMINISM_SCOPE), module
        assert ctx.module_matches(PICKLE_SCOPE), module


def test_seeded_clock_read_in_service_fails_gate(tmp_path, capsys):
    """DET101 covers the service: a wall-clock timestamp stamped into a
    job document would make replayed runs differ — only the inline-
    suppressed drain-deadline reads are exempt."""
    code = _seed(tmp_path, "repro/service/jobs_seeded.py", textwrap.dedent("""
        import time

        def stamp_job(document):
            document["submitted_at"] = time.time()
            return document
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_uuid_job_id_in_service_fails_gate(tmp_path, capsys):
    """DET103 covers job ids: they are sequential on purpose — an
    os-entropy id would be unreproducible across reruns."""
    code = _seed(tmp_path, "repro/service/store_seeded.py",
                 textwrap.dedent("""
        import uuid

        def mint_job_id():
            return "job-%s" % uuid.uuid4()
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_handle_in_service_spec_fails_gate(tmp_path, capsys):
    """PKL303 covers job specs: a live handle on a spec-like object
    would die at the runner->worker pickle boundary."""
    code = _seed(tmp_path, "repro/service/jobs_seeded.py", textwrap.dedent("""
        import threading

        class JobSpecSeeded:
            def __init__(self):
                self.guard = threading.Lock()
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


# -- the compiled hot path stays inside the gate's scopes ------------------
#
# The compile-once layers added for the hot path — the PSL's caches, the
# Aho-compiled blocklist matcher, and repro.core.assets — sit directly
# under the fingerprint-invariance contract, and StudyAssetsSpec rides
# shard-job pickles.  Pin them in scope so any nondeterminism (or
# unpicklable state on the spec) trips the gate.


def test_hot_path_modules_are_in_scope():
    from repro.statan.engine import ModuleContext
    from repro.statan.rules.determinism import DETERMINISM_SCOPE
    from repro.statan.rules.pickle_safety import PICKLE_SCOPE
    for module in ("repro.psl.rules", "repro.blocklist.matcher",
                   "repro.core.assets"):
        ctx = ModuleContext(path="test.py", source="", module=module)
        assert ctx.module_matches(DETERMINISM_SCOPE), module
    ctx = ModuleContext(path="test.py", source="",
                        module="repro.core.assets")
    assert ctx.module_matches(PICKLE_SCOPE)


def test_seeded_clock_read_in_psl_fails_gate(tmp_path, capsys):
    """DET101 covers the PSL cache layer: a TTL-style clock read in a
    lookup cache would make suffix answers time-dependent."""
    code = _seed(tmp_path, "repro/psl/rules_seeded.py", textwrap.dedent("""
        import time

        def cache_entry(suffix):
            return (suffix, time.time())
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_builtin_hash_in_matcher_fails_gate(tmp_path, capsys):
    """DET104 covers the compiled matcher: keying the token index on
    builtin hash() would reorder candidates across processes."""
    code = _seed(tmp_path, "repro/blocklist/matcher_seeded.py",
                 textwrap.dedent("""
        def bucket_for(token, n_buckets):
            return hash(token) % n_buckets
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS


def test_seeded_handle_on_assets_spec_fails_gate(tmp_path, capsys):
    """PKL303 covers StudyAssetsSpec: the recipe crosses the shard-job
    pickle boundary, so live handles on spec-like state must trip."""
    code = _seed(tmp_path, "repro/core/assets/seeded.py", textwrap.dedent("""
        import threading

        class AssetsSpecSeeded:
            def __init__(self):
                self.build_lock = threading.Lock()
    """))
    capsys.readouterr()
    assert code == EXIT_FINDINGS
