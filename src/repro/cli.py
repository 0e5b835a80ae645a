"""Command-line interface.

Exposes the main experiments as subcommands::

    repro-study study                # headline + Tables 1-3 + Figure 2
    repro-study study --workers 4    # same study, parallel sharded crawl
    repro-study study --trace t.jsonl  # same study, with structured tracing
    repro-study browsers             # §7.1 browser comparison
    repro-study blocklists           # §7.2 Table 4
    repro-study crowd --seed 21      # crowdsourced expansion demo
    repro-study tokens               # candidate-token set statistics
    repro-study scan URL [URL...]    # scan URLs for the persona's PII

All experiments run fully offline against the synthetic web.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import __version__
from .core import CandidateTokenSet, LeakDetector, Study
from .core.persona import DEFAULT_PERSONA


def _fault_plan(args: argparse.Namespace):
    """Build the seeded FaultPlan requested by --faults/--seed (or None)."""
    if getattr(args, "faults", None) is None:
        return None
    from .netsim.faults import FaultPlan
    try:
        return FaultPlan(seed=args.seed, transient_rate=args.faults)
    except ValueError as exc:
        raise SystemExit("repro-study: error: --faults: %s" % exc)


def _study_for_args(args: argparse.Namespace, study_config) -> Study:
    """The calibrated study the CLI flags describe.

    Applies ``--workers``/``--shards``; ``--trace`` enables
    observability on the config so the crawl and the analysis record
    into one recorder; ``--progress``/``--progress-log`` attach a live
    :class:`~repro.obs.ProgressAggregator` heartbeat sink.
    """
    config = study_config.replace(
        workers=getattr(args, "workers", 1) or 1,
        num_shards=getattr(args, "shards", None))
    if config.num_shards is not None and config.workers < 2:
        raise SystemExit(
            "repro-study: error: --shards requires --workers >= 2 (the "
            "serial crawl at one worker is unsharded)")
    if getattr(args, "trace", None):
        config = config.with_observability()
    progress = _progress_sink(args)
    if progress is not None:
        config = config.replace(progress=progress)
    if getattr(args, "resources", False):
        if progress is None:
            raise SystemExit(
                "repro-study: error: --resources rides the heartbeat "
                "channel; pass --progress and/or --progress-log too")
        config = config.replace(resources=True)
    config = _apply_supervision_args(args, config)
    return Study.calibrated(config)


def _apply_supervision_args(args: argparse.Namespace, config):
    """Fold --chaos and the supervision knobs into the study config."""
    chaos_specs = getattr(args, "chaos", None)
    if chaos_specs:
        from .crawler import ChaosError, parse_chaos_plan
        if config.workers < 2:
            raise SystemExit(
                "repro-study: error: --chaos requires --workers >= 2 "
                "(faults kill or hang worker processes; with one worker "
                "that process is the study itself)")
        try:
            config = config.replace(chaos=parse_chaos_plan(chaos_specs))
        except ChaosError as exc:
            raise SystemExit("repro-study: error: %s" % exc)
    knobs = {}
    deadline = getattr(args, "watchdog_deadline", None)
    if deadline is not None:
        knobs["heartbeat_deadline"] = deadline
    retries = getattr(args, "max_shard_retries", None)
    if retries is not None:
        knobs["max_retries"] = retries
    drain = getattr(args, "drain_timeout", None)
    if drain is not None:
        knobs["drain_timeout"] = drain
    if knobs:
        from .crawler import SupervisorConfig
        try:
            config = config.replace(supervision=SupervisorConfig(**knobs))
        except ValueError as exc:
            raise SystemExit("repro-study: error: %s" % exc)
    return config


def _progress_sink(args: argparse.Namespace):
    """The ProgressAggregator ``--progress``/``--progress-log`` ask for.

    Status lines render to stderr (stdout stays reserved for the
    study's tables); the JSONL sink is the machine-readable twin.
    Returns ``None`` when neither flag was given.
    """
    render = getattr(args, "progress", False)
    log_path = getattr(args, "progress_log", None)
    if not render and not log_path:
        return None
    from .obs import ProgressAggregator
    try:
        return ProgressAggregator(stream=sys.stderr if render else None,
                                  jsonl_path=log_path)
    except OSError as exc:
        raise SystemExit("repro-study: error: --progress-log: %s" % exc)


def _crawl_study(args: argparse.Namespace, study_config):
    """The shared resilient-crawl front half of the crawling subcommands.

    Builds the calibrated :class:`Study` and runs its single crawl
    entry point — :meth:`Study.crawl` dispatches on ``--workers`` and
    honors ``--checkpoint``/``--resume`` for both engines.  Returns
    ``(study, outcome)`` so callers analyze with the same study (and
    recorder) that crawled.
    """
    from .crawler import CheckpointError
    study = _study_for_args(args, study_config)
    resume = getattr(args, "resume", None)
    if resume:
        if study.config.workers > 1:
            print("Resuming %d-worker crawl from %s/..."
                  % (study.config.workers, resume), file=sys.stderr)
        else:
            print("Resuming crawl from %s..." % resume, file=sys.stderr)
    try:
        outcome = study.crawl(checkpoint=getattr(args, "checkpoint", None),
                              resume=resume)
    except CheckpointError as exc:
        raise SystemExit("repro-study: error: --resume: %s" % exc)
    except OSError as exc:
        if resume:
            raise SystemExit("repro-study: error: --resume: %s" % exc)
        raise
    finally:
        progress = study.config.progress
        if progress is not None and hasattr(progress, "close"):
            progress.close()    # flush the --progress-log JSONL sink
    return study, outcome


def _require_complete(args: argparse.Namespace, outcome) -> None:
    """Refuse to analyze a partial crawl; exit with the resume recipe.

    A SIGINT/SIGTERM'd supervised crawl drains, checkpoints, and
    returns an outcome marked incomplete; analysis over the salvaged
    shards would produce tables that look authoritative but are not.
    Exit 130 (interrupted) with the exact resume invocation instead.
    Quarantined poison shards exit 1 — re-running will not fix those.
    """
    if outcome.complete:
        return
    supervision = outcome.supervision
    interrupted = supervision is not None and supervision.interrupted
    missing = ", ".join(str(index) for index in outcome.incomplete_shards)
    target = getattr(args, "resume", None) or getattr(args, "checkpoint",
                                                      None)
    if interrupted:
        hint = (" ; resume with: repro-study %s --workers %d --resume %s"
                % (args.command, getattr(args, "workers", 1), target)
                if target else
                " (no --checkpoint directory was set, so the progress "
                "was not persisted)")
        print("repro-study: crawl interrupted before completion; "
              "shard(s) %s unfinished%s" % (missing, hint),
              file=sys.stderr)
        raise SystemExit(130)
    print("repro-study: crawl incomplete: shard(s) %s quarantined after "
          "repeated worker failures (see the study manifest%s)"
          % (missing, " in %s" % target if target else ""),
          file=sys.stderr)
    raise SystemExit(1)


def _write_trace(args: argparse.Namespace, study: Study) -> None:
    """Write the study recorder to ``--trace`` (JSONL) if requested."""
    path = getattr(args, "trace", None)
    recorder = study.config.recorder
    if not path or recorder is None:
        return
    from .obs import write_trace
    try:
        write_trace(recorder, path)
    except OSError as exc:
        raise SystemExit("repro-study: error: --trace: %s" % exc)
    print("trace: %d spans -> %s (summarize with: repro-trace summarize %s)"
          % (recorder.span_count(), path, path), file=sys.stderr)


def _cmd_study(args: argparse.Namespace) -> int:
    from .core import StudyConfig
    from .reporting import (
        render_crawl_health,
        render_figure2,
        render_headline,
        render_table1,
        render_table2,
        render_table3,
    )
    plan = _fault_plan(args)
    print("Running the calibrated study (about 20 seconds)...",
          file=sys.stderr)
    study, outcome = _crawl_study(args, StudyConfig(fault_plan=plan))
    _require_complete(args, outcome)
    dataset, plan = outcome.dataset, outcome.fault_plan
    result = study.analyze(dataset)
    print(render_headline(result.analysis, total_sites=307,
                          leaking_requests=result.leaking_request_count))
    print()
    print(render_table1(result.analysis, compare=not args.no_compare))
    print()
    print(render_figure2(result.analysis, compare=not args.no_compare))
    print()
    print(render_table2(result.persistence, compare=not args.no_compare))
    print()
    print(render_table3(result.table3_counts, compare=not args.no_compare))
    if plan is not None:
        print()
        print(render_crawl_health(dataset, plan))
    _write_trace(args, study)
    return 0


def _cmd_browsers(args: argparse.Namespace) -> int:
    from .protection import BrowserCountermeasureEvaluator
    from .websim.shopping import build_study_population
    spec = build_study_population()
    print("Re-crawling the 130 leaking senders under every browser "
          "profile (about a minute)...", file=sys.stderr)
    study = BrowserCountermeasureEvaluator(
        spec.population, spec.leaking_domains).run()
    print("baseline: %d senders / %d receivers"
          % (study.baseline.senders, study.baseline.receivers))
    for name, result in study.results.items():
        sender_pct, receiver_pct = study.reductions()[name]
        print("%-14s %4d senders (-%5.1f%%)  %4d receivers (-%5.1f%%)  %s"
              % (name, result.senders, sender_pct, result.receivers,
                 receiver_pct, ",".join(result.failed_signups)))
    return 0


def _cmd_blocklists(args: argparse.Namespace) -> int:
    from .blocklist import BlocklistEvaluator
    from .crawler import StudyCrawler
    from .reporting import render_table4
    from .websim.shopping import build_study_population
    spec = build_study_population()
    print("Crawling and matching against EasyList/EasyPrivacy...",
          file=sys.stderr)
    dataset = StudyCrawler(spec.population,
                           fault_plan=_fault_plan(args)).crawl()
    detector = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                            catalog=spec.catalog,
                            resolver=spec.population.resolver())
    report = BlocklistEvaluator(detector).evaluate(dataset.log)
    print(render_table4(report, compare=not args.no_compare))
    return 0


def _cmd_crowd(args: argparse.Namespace) -> int:
    from .crowd import CrowdStudy, make_panel
    from .websim.generator import GeneratorConfig, generate_population
    population = generate_population(
        seed=args.seed,
        config=GeneratorConfig(n_sites=args.sites, n_trackers=8,
                               leak_probability=0.6))
    panel = make_panel(list(population.sites), args.contributors,
                       overlap=args.overlap)
    single = CrowdStudy(population, panel[:1]).run()
    merged = CrowdStudy(population, panel).run()
    print("single vantage : %3d receivers, %2d cross-site"
          % (len(single.analysis.receivers()),
             len(single.persistence_report.cross_site_receivers)))
    print("%d contributors: %3d receivers, %2d cross-site"
          % (args.contributors, len(merged.analysis.receivers()),
             len(merged.persistence_report.cross_site_receivers)))
    confirmed = merged.receivers_confirmed_by(2)
    print("receivers confirmed by >= 2 contributors: %d" % len(confirmed))
    return 0


def _cmd_selection(args: argparse.Namespace) -> int:
    """Print the §3.2 data-acquisition funnel."""
    from .websim.shopping import build_study_population
    from .websim.tranco import select_study_sites
    spec = build_study_population()
    selected = select_study_sites(spec.tranco, spec.categories)
    sites = spec.population.sites
    with_auth = [d for d in selected if sites[d].auth.has_auth]
    reachable = [d for d in selected if not sites[d].auth.unreachable]
    crawlable = [d for d in selected if sites[d].is_crawlable]
    print("Tranco top-10k universe:          %6d sites" % len(spec.tranco))
    print("shopping category (FortiGuard):   %6d sites" % len(selected))
    print("  with authentication flows:      %6d (%.1f%%)"
          % (len(with_auth), 100.0 * len(with_auth) / len(selected)))
    print("  reachable:                      %6d" % len(reachable))
    print("  sign-up possible (crawlable):   %6d" % len(crawlable))
    print("  leaking PII to third parties:   %6d"
          % len(spec.leaking_domains))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run the study and write the dataset release + HAR + tables."""
    import pathlib

    from .core import StudyConfig
    from .datasets.export import write_release
    from .netsim import to_har_json
    from .reporting import (
        render_crawl_health,
        render_figure2,
        render_headline,
        render_table1,
        render_table2,
        render_table3,
    )
    plan = _fault_plan(args)
    print("Running the calibrated study...", file=sys.stderr)
    study, outcome = _crawl_study(args, StudyConfig(fault_plan=plan))
    _require_complete(args, outcome)
    dataset, plan = outcome.dataset, outcome.fault_plan
    result = study.analyze(dataset)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_release(result, str(out_dir))
    sections = [
        render_headline(result.analysis, total_sites=307,
                        leaking_requests=result.leaking_request_count),
        render_table1(result.analysis),
        render_figure2(result.analysis),
        render_table2(result.persistence),
        render_table3(result.table3_counts),
    ]
    if plan is not None:
        sections.append(render_crawl_health(dataset, plan))
    tables = "\n\n".join(sections)
    tables_path = out_dir / "tables.txt"
    tables_path.write_text(tables + "\n")
    written.append(str(tables_path))
    if args.har:
        har_path = out_dir / "crawl.har"
        har_path.write_text(to_har_json(result.dataset.log))
        written.append(str(har_path))
    for path in written:
        print(path)
    _write_trace(args, study)
    return 0


def _cmd_tokens(args: argparse.Namespace) -> int:
    from .reporting import redact_email
    tokens = CandidateTokenSet(DEFAULT_PERSONA)
    email = (DEFAULT_PERSONA.email if args.show_pii
             else redact_email(DEFAULT_PERSONA.email))
    print("persona email: %s" % email)  # statan: ignore[PII201] -- redacted unless the user passed --show-pii explicitly
    print("candidate tokens: %d" % tokens.token_count)
    by_depth: dict = {}
    for token in tokens.tokens():
        for origin in tokens.origins_of(token):
            by_depth[len(origin.chain)] = by_depth.get(len(origin.chain),
                                                       0) + 1
    for depth in sorted(by_depth):
        label = "plaintext" if depth == 0 else "depth %d" % depth
        print("  %-10s %6d token origins" % (label, by_depth[depth]))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .reporting import redact_spans
    tokens = CandidateTokenSet(DEFAULT_PERSONA)
    exit_code = 0
    for url in args.urls:
        matches = tokens.scan(url)
        if not matches:
            print("%s: clean" % url)
            continue
        exit_code = 1
        if args.show_pii:
            shown = url
        else:
            # The URL embeds the leaked tokens (possibly plaintext PII)
            # — mask exactly the matched spans before echoing it.
            shown = redact_spans(url, [(m.start, m.end) for m in matches])
        seen = []
        for match in matches:
            if match.payload in seen:
                continue
            seen.append(match.payload)
            print("%s: LEAK pii=%s encoding=%s"
                  % (shown, match.payload.pii_type,
                     match.payload.encoding_label))
    return exit_code


def _add_fault_args(sub: argparse.ArgumentParser) -> None:
    """--seed/--faults: seeded fault injection for the resilient crawl."""
    sub.add_argument("--faults", type=float, default=None, metavar="RATE",
                     help="inject seeded transient network faults at this "
                          "per-exchange rate (e.g. 0.1) and crawl "
                          "resiliently")
    sub.add_argument("--seed", type=int, default=0,
                     help="fault-plan seed (default: 0); the same seed "
                          "reproduces the identical failure log")


def _add_resume_args(sub: argparse.ArgumentParser) -> None:
    """--checkpoint/--resume: interruptible-crawl persistence."""
    sub.add_argument("--checkpoint", metavar="PATH",
                     help="save a resumable crawl checkpoint to PATH after "
                          "every site (with --workers > 1: a directory of "
                          "per-shard checkpoints)")
    sub.add_argument("--resume", metavar="PATH",
                     help="resume a crawl from a checkpoint written by "
                          "--checkpoint (fault plan travels with it; with "
                          "--workers > 1: the checkpoint directory)")


def _add_parallel_args(sub: argparse.ArgumentParser) -> None:
    """--workers/--shards: the parallel sharded crawl engine."""
    sub.add_argument("--workers", type=int, default=1, metavar="N",
                     help="crawl with N worker processes (default: 1, the "
                          "serial engine); the merged dataset fingerprint "
                          "is identical for every N")
    sub.add_argument("--shards", type=int, default=None, metavar="M",
                     help="partition the site list into M deterministic "
                          "shards (requires --workers >= 2; default: "
                          "automatic, independent of --workers)")


def _add_supervision_args(sub: argparse.ArgumentParser) -> None:
    """--chaos + supervised-executor knobs (workers > 1 only)."""
    sub.add_argument("--chaos", action="append", metavar="SPEC",
                     default=None,
                     help="inject a deterministic worker fault (repeatable; "
                          "requires --workers >= 2): "
                          "KIND:SHARD[:AFTER_SITES[:ATTEMPTS]] with KIND "
                          "kill|hang|slow, e.g. 'kill:0' or 'hang:2:1'; "
                          "the supervisor must retry or quarantine the "
                          "shard, and the merged fingerprint is unchanged")
    sub.add_argument("--watchdog-deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="declare a worker lost after this many seconds "
                          "without a heartbeat (default: 60)")
    sub.add_argument("--max-shard-retries", type=int, default=None,
                     metavar="N",
                     help="retry a lost shard at most N times before "
                          "quarantining it (default: 2)")
    sub.add_argument("--drain-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="on SIGINT/SIGTERM, give in-flight shards this "
                          "long to finish before killing them (default: "
                          "10; per-site checkpoints survive either way)")


def _add_trace_arg(sub: argparse.ArgumentParser) -> None:
    """--trace: structured-tracing export (repro.obs)."""
    sub.add_argument("--trace", metavar="PATH",
                     help="record structured spans/metrics for the whole "
                          "pipeline and write them to PATH as JSONL "
                          "(inspect with `repro-trace summarize PATH`, "
                          "compare runs with `repro-trace diff A B`); "
                          "tracing never changes the dataset fingerprint")


def _add_progress_args(sub: argparse.ArgumentParser) -> None:
    """--progress/--progress-log: live per-site crawl heartbeats."""
    sub.add_argument("--progress", action="store_true",
                     help="render a live line-oriented progress stream "
                          "(sites crawled, failures, retries, "
                          "circuit-breaker quarantines) to stderr; "
                          "never changes the dataset fingerprint")
    sub.add_argument("--progress-log", metavar="PATH",
                     help="append every crawl heartbeat to PATH as JSONL "
                          "(the machine-readable twin of --progress)")
    sub.add_argument("--resources", action="store_true",
                     help="attach per-shard CPU/RSS/GC samples to every "
                          "heartbeat (lands in --progress-log and the "
                          "study manifest; requires --progress or "
                          "--progress-log; never changes the dataset "
                          "fingerprint)")


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape a running repro-serve's /metrics endpoint.

    One-shot by default (prints the raw Prometheus exposition, pipeable
    into promtool or a file); ``--live`` renders a one-line ops ticker
    from the scraped series every ``--interval`` seconds instead.
    """
    import time
    import urllib.error
    import urllib.request

    from .obs.exposition import parse_exposition
    from .obs.runtime import render_ticker

    url = args.url.rstrip("/") + "/metrics"

    def scrape() -> str:
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.read().decode("utf-8")
        except (OSError, ValueError, urllib.error.URLError) as exc:
            raise SystemExit("repro-study: error: cannot scrape %s: %s"
                             % (url, exc))

    if not args.live:
        sys.stdout.write(scrape())
        return 0
    iterations = 0
    try:
        while True:
            print(render_ticker(parse_exposition(scrape())), flush=True)
            iterations += 1
            if args.count and iterations >= args.count:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _add_show_pii_arg(sub: argparse.ArgumentParser) -> None:
    """--show-pii: print persona PII / leaked tokens unredacted."""
    sub.add_argument("--show-pii", action="store_true",
                     help="print PII values unredacted (default: mask "
                          "them; see repro.reporting.redact)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="CoNEXT'21 PII-leakage tracking study, offline.")
    parser.add_argument("--version", action="version",
                        version="repro %s" % __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    study = subparsers.add_parser("study", help="full §3-§6 pipeline")
    study.add_argument("--no-compare", action="store_true",
                       help="omit the paper comparison columns")
    _add_fault_args(study)
    _add_resume_args(study)
    _add_parallel_args(study)
    _add_supervision_args(study)
    _add_trace_arg(study)
    _add_progress_args(study)
    study.set_defaults(func=_cmd_study)

    browsers = subparsers.add_parser("browsers",
                                     help="§7.1 browser comparison")
    browsers.set_defaults(func=_cmd_browsers)

    blocklists = subparsers.add_parser("blocklists", help="§7.2 Table 4")
    blocklists.add_argument("--no-compare", action="store_true")
    _add_fault_args(blocklists)
    blocklists.set_defaults(func=_cmd_blocklists)

    crowd = subparsers.add_parser("crowd",
                                  help="crowdsourced expansion demo")
    crowd.add_argument("--seed", type=int, default=21)
    crowd.add_argument("--sites", type=int, default=24)
    crowd.add_argument("--contributors", type=int, default=3)
    crowd.add_argument("--overlap", type=float, default=0.2)
    crowd.set_defaults(func=_cmd_crowd)

    selection = subparsers.add_parser(
        "selection", help="§3.2 data-acquisition funnel")
    selection.set_defaults(func=_cmd_selection)

    report = subparsers.add_parser(
        "report", help="write the dataset release (CSV/JSON [+HAR])")
    report.add_argument("--out", default="release",
                        help="output directory (default: ./release)")
    report.add_argument("--har", action="store_true",
                        help="also export the full crawl as HAR 1.2")
    _add_fault_args(report)
    _add_resume_args(report)
    _add_parallel_args(report)
    _add_supervision_args(report)
    _add_trace_arg(report)
    _add_progress_args(report)
    report.set_defaults(func=_cmd_report)

    tokens = subparsers.add_parser("tokens",
                                   help="candidate-token statistics")
    _add_show_pii_arg(tokens)
    tokens.set_defaults(func=_cmd_tokens)

    scan = subparsers.add_parser(
        "scan", help="scan URLs for the persona's PII tokens")
    scan.add_argument("urls", nargs="+")
    _add_show_pii_arg(scan)
    scan.set_defaults(func=_cmd_scan)

    metrics = subparsers.add_parser(
        "metrics", help="scrape a running repro-serve's /metrics")
    metrics.add_argument("--url", default="http://127.0.0.1:8642",
                         metavar="URL",
                         help="service base URL (default: "
                              "http://127.0.0.1:8642)")
    metrics.add_argument("--live", action="store_true",
                         help="render a one-line ops ticker repeatedly "
                              "instead of dumping the raw exposition")
    metrics.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="--live refresh period (default: 2.0)")
    metrics.add_argument("--count", type=int, default=0, metavar="N",
                         help="--live: stop after N ticks (default: "
                              "run until interrupted)")
    metrics.set_defaults(func=_cmd_metrics)

    serve = subparsers.add_parser(
        "serve", help="run the study-as-a-service HTTP API "
                      "(alias for repro-serve)")
    # Imported here so `import repro.cli` stays service-free.
    from .service.cli import add_serve_arguments, serve as _cmd_serve
    add_serve_arguments(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
