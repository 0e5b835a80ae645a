"""CLI surface: parsing, scan/tokens subcommands (fast paths only)."""

import pytest

from repro import hashes
from repro.cli import build_parser, main
from repro.core.persona import DEFAULT_PERSONA


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_tokens_subcommand_redacts_email(capsys):
    from repro.reporting import redact_email
    assert main(["tokens"]) == 0
    output = capsys.readouterr().out
    assert DEFAULT_PERSONA.email not in output
    assert redact_email(DEFAULT_PERSONA.email) in output
    assert "candidate tokens" in output


def test_tokens_show_pii_escape_hatch(capsys):
    assert main(["tokens", "--show-pii"]) == 0
    assert DEFAULT_PERSONA.email in capsys.readouterr().out


def test_scan_detects_leaky_url(capsys):
    token = hashes.apply_chain(DEFAULT_PERSONA.email, ["sha256"])
    exit_code = main(["scan", "https://t.net/p?uid=%s" % token])
    assert exit_code == 1
    output = capsys.readouterr().out
    assert "LEAK" in output and "sha256" in output


def test_scan_redacts_leaked_tokens_by_default(capsys):
    url = "https://t.net/p?uid=%s" % DEFAULT_PERSONA.email
    assert main(["scan", url]) == 1
    output = capsys.readouterr().out
    assert DEFAULT_PERSONA.email not in output
    assert "https://t.net/p?uid=" in output  # non-PII part intact


def test_scan_show_pii_escape_hatch(capsys):
    url = "https://t.net/p?uid=%s" % DEFAULT_PERSONA.email
    assert main(["scan", "--show-pii", url]) == 1
    assert DEFAULT_PERSONA.email in capsys.readouterr().out


def test_scan_clean_url(capsys):
    assert main(["scan", "https://t.net/p?uid=nothing"]) == 0
    assert "clean" in capsys.readouterr().out


def test_scan_mixed_urls_exit_code(capsys):
    token = hashes.apply_chain(DEFAULT_PERSONA.email, ["md5"])
    exit_code = main(["scan", "https://a.net/?x=%s" % token,
                      "https://b.net/?x=clean"])
    assert exit_code == 1
    output = capsys.readouterr().out
    assert "LEAK" in output and "clean" in output


def test_crowd_subcommand(capsys):
    assert main(["crowd", "--seed", "3", "--sites", "10",
                 "--contributors", "2"]) == 0
    output = capsys.readouterr().out
    assert "single vantage" in output


def test_selection_subcommand(capsys):
    assert main(["selection"]) == 0
    output = capsys.readouterr().out
    assert "404 sites" in output
    assert "307" in output and "130" in output


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_study_accepts_fault_and_resume_flags():
    args = build_parser().parse_args(
        ["study", "--faults", "0.2", "--seed", "7",
         "--checkpoint", "crawl.ckpt", "--resume", "old.ckpt"])
    assert args.faults == 0.2
    assert args.seed == 7
    assert args.checkpoint == "crawl.ckpt"
    assert args.resume == "old.ckpt"


def test_fault_flags_default_off():
    for argv in (["study"], ["report"], ["blocklists"]):
        args = build_parser().parse_args(argv)
        assert args.faults is None
        assert args.seed == 0


def test_report_and_blocklists_accept_fault_flags():
    args = build_parser().parse_args(
        ["report", "--faults", "0.1", "--resume", "x.ckpt"])
    assert args.faults == 0.1 and args.resume == "x.ckpt"
    args = build_parser().parse_args(["blocklists", "--faults", "0.1"])
    assert args.faults == 0.1


def test_fault_plan_built_from_args():
    from repro.cli import _fault_plan
    args = build_parser().parse_args(["study", "--faults", "0.3",
                                      "--seed", "9"])
    plan = _fault_plan(args)
    assert plan is not None
    assert plan.seed == 9 and plan.transient_rate == 0.3
    assert _fault_plan(build_parser().parse_args(["study"])) is None


def test_study_parser_accepts_trace_flag():
    args = build_parser().parse_args(
        ["study", "--workers", "4", "--trace", "out.jsonl"])
    assert args.trace == "out.jsonl"
    assert build_parser().parse_args(["study"]).trace is None
    assert build_parser().parse_args(
        ["report", "--trace", "t.jsonl"]).trace == "t.jsonl"


def test_study_parser_accepts_progress_flags():
    args = build_parser().parse_args(
        ["study", "--progress", "--progress-log", "p.jsonl"])
    assert args.progress is True
    assert args.progress_log == "p.jsonl"
    plain = build_parser().parse_args(["study"])
    assert plain.progress is False and plain.progress_log is None
    assert build_parser().parse_args(
        ["report", "--progress-log", "q.jsonl"]).progress_log == "q.jsonl"


def test_study_for_args_wires_progress_sink(tmp_path):
    from repro.cli import _study_for_args
    from repro.core import StudyConfig
    from repro.obs import ProgressAggregator

    path = str(tmp_path / "p.jsonl")
    args = build_parser().parse_args(
        ["study", "--progress", "--progress-log", path])
    study = _study_for_args(args, StudyConfig())
    sink = study.config.progress
    assert isinstance(sink, ProgressAggregator)
    assert sink.jsonl_path == path
    sink.close()

    plain = _study_for_args(build_parser().parse_args(["study"]),
                            StudyConfig())
    assert plain.config.progress is None


def test_study_for_args_wires_workers_shards_and_trace():
    from repro.cli import _study_for_args
    from repro.core import StudyConfig
    from repro.obs import Recorder

    args = build_parser().parse_args(
        ["study", "--workers", "2", "--shards", "6", "--trace", "t.jsonl"])
    study = _study_for_args(args, StudyConfig())
    assert study.config.workers == 2
    assert study.config.num_shards == 6
    assert isinstance(study.config.recorder, Recorder)

    plain = _study_for_args(build_parser().parse_args(["study"]),
                            StudyConfig())
    assert plain.config.workers == 1
    assert plain.config.recorder is None


def test_write_trace_helper_writes_jsonl(tmp_path, capsys):
    from repro.cli import _write_trace
    from repro.core import Study, StudyConfig
    from repro.obs import read_trace

    path = str(tmp_path / "t.jsonl")
    config = StudyConfig().with_observability()
    study = Study(object(), config=config)
    with config.recorder.span("crawl"):
        pass

    class _Args:
        trace = path

    _write_trace(_Args(), study)
    records = read_trace(path)
    assert [span["name"] for span in records["span"]] == ["crawl"]
    assert "repro-trace summarize" in capsys.readouterr().err


def test_write_trace_helper_noop_without_flag(tmp_path, capsys):
    from repro.cli import _write_trace
    from repro.core import Study

    class _Args:
        trace = None

    _write_trace(_Args(), Study(object()))
    assert capsys.readouterr().err == ""


def test_study_parser_accepts_supervision_flags():
    args = build_parser().parse_args(
        ["study", "--workers", "2", "--chaos", "kill:0",
         "--chaos", "hang:2:1", "--watchdog-deadline", "15",
         "--max-shard-retries", "3", "--drain-timeout", "2.5"])
    assert args.chaos == ["kill:0", "hang:2:1"]
    assert args.watchdog_deadline == 15.0
    assert args.max_shard_retries == 3
    assert args.drain_timeout == 2.5
    plain = build_parser().parse_args(["study"])
    assert plain.chaos is None and plain.watchdog_deadline is None
    report = build_parser().parse_args(
        ["report", "--workers", "2", "--chaos", "kill:1"])
    assert report.chaos == ["kill:1"]


def test_supervision_args_wire_chaos_plan_and_config():
    from repro.cli import _apply_supervision_args
    from repro.core import StudyConfig
    from repro.crawler import ChaosPlan, SupervisorConfig

    args = build_parser().parse_args(
        ["study", "--workers", "2", "--chaos", "kill:0",
         "--watchdog-deadline", "15", "--max-shard-retries", "3"])
    config = _apply_supervision_args(args, StudyConfig(workers=2))
    assert isinstance(config.chaos, ChaosPlan)
    assert config.chaos.faults[0].kind == "kill"
    assert isinstance(config.supervision, SupervisorConfig)
    assert config.supervision.heartbeat_deadline == 15.0
    assert config.supervision.max_retries == 3

    plain = _apply_supervision_args(
        build_parser().parse_args(["study"]), StudyConfig())
    assert plain.chaos is None and plain.supervision is None


def test_chaos_flag_requires_multiple_workers():
    from repro.cli import _apply_supervision_args
    from repro.core import StudyConfig
    args = build_parser().parse_args(["study", "--chaos", "kill:0"])
    with pytest.raises(SystemExit) as excinfo:
        _apply_supervision_args(args, StudyConfig(workers=1))
    assert "--workers >= 2" in str(excinfo.value)


@pytest.mark.parametrize("command", ["study", "report"])
def test_shards_flag_requires_multiple_workers(command):
    # The serial crawl is unsharded: --shards would be silently ignored.
    from repro.cli import _study_for_args
    from repro.core import StudyConfig
    args = build_parser().parse_args([command, "--shards", "3"])
    with pytest.raises(SystemExit) as excinfo:
        _study_for_args(args, StudyConfig())
    assert "--shards requires --workers >= 2" in str(excinfo.value)


def test_bad_chaos_spec_errors_echo_grammar():
    from repro.cli import _apply_supervision_args
    from repro.core import StudyConfig
    args = build_parser().parse_args(
        ["study", "--workers", "2", "--chaos", "explode:1"])
    with pytest.raises(SystemExit) as excinfo:
        _apply_supervision_args(args, StudyConfig(workers=2))
    message = str(excinfo.value)
    assert "explode" in message and "KIND:SHARD" in message


def test_require_complete_exit_codes(capsys):
    from repro.cli import _require_complete
    from repro.core.pipeline import CrawlOutcome
    from repro.crawler import SupervisionOutcome

    args = build_parser().parse_args(
        ["study", "--workers", "2", "--checkpoint", "ckpt-dir"])

    _require_complete(args, CrawlOutcome(dataset=None))  # complete: no-op

    interrupted = CrawlOutcome(
        dataset=None, complete=False, incomplete_shards=(2, 3),
        supervision=SupervisionOutcome(unfinished=[2, 3],
                                       interrupted=True))
    with pytest.raises(SystemExit) as excinfo:
        _require_complete(args, interrupted)
    assert excinfo.value.code == 130
    err = capsys.readouterr().err
    assert "--resume ckpt-dir" in err     # the exact resume recipe

    quarantined = SupervisionOutcome(interrupted=False)
    quarantined.quarantined[1] = object()
    partial = CrawlOutcome(dataset=None, complete=False,
                           incomplete_shards=(1,),
                           supervision=quarantined)
    with pytest.raises(SystemExit) as excinfo:
        _require_complete(args, partial)
    assert excinfo.value.code == 1
    assert "quarantined" in capsys.readouterr().err


def test_serve_subcommand_is_wired():
    args = build_parser().parse_args(
        ["serve", "--port", "0", "--runners", "2", "--queue-size", "3"])
    from repro.service.cli import serve
    assert args.func is serve
    assert (args.port, args.runners, args.queue_size) == (0, 2, 3)


def test_repro_serve_parser_defaults():
    from repro.service.cli import build_parser as build_serve_parser
    args = build_serve_parser().parse_args([])
    assert args.host == "127.0.0.1"
    assert args.port == 8642
    assert args.runners == 1


def test_repro_serve_rejects_bad_config():
    from repro.service.cli import build_parser as build_serve_parser, serve
    args = build_serve_parser().parse_args(["--queue-size", "0"])
    with pytest.raises(SystemExit):
        serve(args)


def test_study_parser_accepts_resources_flag():
    args = build_parser().parse_args(["study", "--progress", "--resources"])
    assert args.resources is True
    assert build_parser().parse_args(["study"]).resources is False


def test_resources_flag_requires_a_progress_sink():
    from repro.cli import _study_for_args
    from repro.core import StudyConfig

    args = build_parser().parse_args(["study", "--resources"])
    with pytest.raises(SystemExit) as excinfo:
        _study_for_args(args, StudyConfig())
    assert "--progress" in str(excinfo.value)


def test_resources_flag_wires_the_config(tmp_path):
    from repro.cli import _study_for_args
    from repro.core import StudyConfig

    args = build_parser().parse_args(
        ["study", "--resources", "--progress-log",
         str(tmp_path / "p.jsonl")])
    study = _study_for_args(args, StudyConfig())
    assert study.config.resources is True
    study.config.progress.close()

    plain = _study_for_args(
        build_parser().parse_args(["study", "--progress"]), StudyConfig())
    assert plain.config.resources is False
    plain.config.progress.close()


def test_metrics_command_scrapes_a_live_service(tmp_path, capsys):
    from repro.service import ServiceConfig, StudyService

    service = StudyService(ServiceConfig(port=0, runners=0, queue_size=2,
                                         jobs_dir=str(tmp_path / "jobs")))
    service.start()
    service.start_in_thread()
    try:
        url = "http://127.0.0.1:%d" % service.port
        assert main(["metrics", "--url", url]) == 0
        scrape = capsys.readouterr().out
        assert "# TYPE repro_service_queue_depth gauge" in scrape
        assert "repro_service_accepting 1" in scrape

        assert main(["metrics", "--url", url, "--live",
                     "--interval", "0.05", "--count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("queue 0/2" in line and "jobs" in line
                   for line in lines)
    finally:
        service.close()


def test_metrics_command_reports_unreachable_service():
    with pytest.raises(SystemExit) as excinfo:
        main(["metrics", "--url", "http://127.0.0.1:9"])
    assert "cannot scrape" in str(excinfo.value)
