"""Text renderers for the paper's tables.

Each renderer prints the measured structure in the paper's layout, with an
optional "paper" column for side-by-side comparison — the format used by
the per-table benchmarks (``benchmarks/bench_table*.py``) and
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.analysis import LeakAnalysis
from ..crawler.flows import ALL_STATUSES, STATUS_TAXONOMY
from ..datasets import paper
from ..tracking import PersistenceReport


def _format_cell(count: int, pct: float) -> str:
    return "%d/%.1f%%" % (count, pct)


def render_table1(analysis: LeakAnalysis,
                  compare: bool = True) -> str:
    """Table 1 (a, b, c): breakdowns of PII leakage to third parties."""
    sections: List[str] = []
    specs = (
        ("(a) By method.", analysis.table1a(), paper.TABLE1A),
        ("(b) By encoding/hashing.", analysis.table1b(), paper.TABLE1B),
        ("(c) By PII type.", analysis.table1c(), paper.TABLE1C),
    )
    for title, rows, reference in specs:
        lines = [title]
        header = "%-18s %-14s %-14s" % ("", "# Senders", "# Receivers")
        if compare:
            header += "  %-16s" % "paper (S, R)"
        lines.append(header)
        for row in rows:
            line = "%-18s %-14s %-14s" % (
                row.label,
                _format_cell(row.senders, row.sender_pct),
                _format_cell(row.receivers, row.receiver_pct))
            if compare and row.label in reference:
                ref_senders, ref_receivers = reference[row.label]
                line += "  (%d, %d)" % (ref_senders, ref_receivers)
            lines.append(line)
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def render_table2(report: PersistenceReport, compare: bool = True) -> str:
    """Table 2: persistent-tracking providers."""
    lines = ["Table 2: persistent tracking based on PII leakage "
             "(%d providers; paper: %d)"
             % (report.provider_count, paper.PERSISTENT_TRACKING_PROVIDERS)]
    lines.append("%-20s %8s  %-14s %-16s %s"
                 % ("Receiver", "#Senders", "Method", "Encoding",
                    "trackid parameter"))
    for row in report.rows:
        lines.append("%-20s %8d  %-14s %-16s %s"
                     % (row.receiver, row.senders, row.methods,
                        row.encoding, row.parameters))
    if compare:
        lines.append("")
        lines.append("Paper sender totals per provider: " + ", ".join(
            "%s=%d" % (domain, paper.table2_sender_count(domain))
            for domain in sorted(paper.TABLE2)))
    return "\n".join(lines)


def render_table3(counts: Dict[str, int], compare: bool = True) -> str:
    """Table 3: privacy-policy disclosures."""
    total = sum(counts.values()) or 1
    labels = {
        "disclose_not_specific": "Disclose PII sharing (not specific)",
        "disclose_specific": "Disclose PII sharing (specific)",
        "no_description": "No description of PII sharing",
        "explicitly_not_shared": "Explicitly disclose PII NOT shared",
    }
    lines = ["Table 3: privacy policy disclosures of leaking senders"]
    for key, label in labels.items():
        count = counts.get(key, 0)
        line = "%-38s %4d/%5.1f%%" % (label, count, 100.0 * count / total)
        if compare:
            line += "   (paper: %d)" % paper.TABLE3[key]
        lines.append(line)
    lines.append("%-38s %4d/100.0%%" % ("Total", total))
    return "\n".join(lines)


def render_table4(report, compare: bool = True) -> str:
    """Table 4: blocklist detection performance."""
    lines = ["Table 4: detection performance of well-known filters"]
    order = ("referer", "uri", "payload", "cookie", "combined", "total")
    for section_name, section, reference in (
            ("Senders", report.senders, paper.TABLE4_SENDERS),
            ("Receivers", report.receivers, paper.TABLE4_RECEIVERS)):
        lines.append("-- %s --" % section_name)
        header = "%-10s" % "Method"
        for list_name in ("easylist", "easyprivacy", "combined"):
            header += " %-18s" % list_name
        lines.append(header)
        for row_name in order:
            line = "%-10s" % row_name
            for list_name in ("easylist", "easyprivacy", "combined"):
                cell = section[list_name][row_name]
                text = "%d/%.1f%%" % (cell.blocked, cell.pct)
                if compare:
                    ref = reference[list_name][row_name]
                    text += " (%d)" % ref[0]
                line += " %-18s" % text
            lines.append(line)
    return "\n".join(lines)


def render_crawl_health(dataset, fault_plan=None) -> str:
    """Crawl-health accounting: §3.2 population table under faults.

    Every attempted site appears in exactly one outcome row (the total
    line equals the number of flows — nothing is silently dropped), each
    failure row carries its transient-vs-permanent class, and quarantined
    sites are listed by name.  Pass the crawl's ``FaultPlan`` to append
    the ground-truth injected-fault counts.
    """
    counts = dataset.status_counts()
    lines = ["Crawl health: %d sites attempted" % len(dataset.flows)]
    lines.append("%-22s %6s  %s" % ("outcome", "sites", "class"))
    for status in ALL_STATUSES:
        count = counts.get(status, 0)
        if count == 0 and status != "success":
            continue
        failure_class = STATUS_TAXONOMY.get(status)
        lines.append("%-22s %6d  %s"
                     % (status, count, failure_class or "-"))
    for status in sorted(set(counts) - set(ALL_STATUSES)):
        lines.append("%-22s %6d  %s" % (status, counts[status], "?"))
    lines.append("%-22s %6d" % ("total", len(dataset.flows)))
    retried = dataset.retried_flow_count()
    if retried:
        lines.append("flows that needed retries: %d" % retried)
    quarantined = dataset.quarantined_sites()
    if quarantined:
        lines.append("quarantined sites: %s" % ", ".join(quarantined))
    if fault_plan is not None and fault_plan.events:
        parts = ["%s=%d" % (kind, count) for kind, count
                 in sorted(fault_plan.fault_counts().items())]
        lines.append("injected faults: %s" % ", ".join(parts))
    return "\n".join(lines)


def render_headline(analysis: LeakAnalysis, total_sites: int,
                    leaking_requests: Optional[int] = None) -> str:
    """§4.2 headline statistics with paper comparison."""
    stats = analysis.headline(total_sites=total_sites)
    top = analysis.max_receiver_sender()
    lines = [
        "Headline results (measured vs paper):",
        "  leaking senders:         %d (paper %d)"
        % (stats["senders"], paper.LEAKING_SENDERS),
        "  third-party receivers:   %d (paper %d)"
        % (stats["receivers"], paper.LEAK_RECEIVERS),
        "  %% of sites leaking:      %.1f%% (paper %.1f%%)"
        % (stats.get("pct_sites_leaking", 0.0), paper.PCT_SITES_LEAKING),
        "  mean receivers/sender:   %.2f (paper %.2f)"
        % (stats["mean_receivers_per_sender"],
           paper.MEAN_RECEIVERS_PER_SENDER),
        "  %% senders with >=3:      %.2f%% (paper %.2f%%)"
        % (stats["pct_senders_with_3plus"],
           paper.PCT_SENDERS_WITH_3PLUS_RECEIVERS),
        "  max receivers/sender:    %d by %s (paper %d by %s)"
        % (stats["max_receivers_per_sender"],
           top[0] if top else "-", paper.MAX_RECEIVERS_PER_SENDER,
           paper.MAX_RECEIVERS_SENDER_DOMAIN),
    ]
    if leaking_requests is not None:
        lines.append("  leaking requests:        %d (paper %d)"
                     % (leaking_requests, paper.LEAKING_REQUESTS))
    return "\n".join(lines)
