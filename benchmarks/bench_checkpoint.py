"""Checkpoint overhead on the seed-404 crawl.

Crawls the generated seed-404 web (404 sites, 20 trackers, 8 shards) in
this process with ``workers=1``, alternating runs without and with a
checkpoint directory, and prints each run's wall time.  For the
checkpointed runs it also prints the saves (journal records) and the
bytes written, read back from the shard journals.  The last line is the
overhead: the median checkpointed wall time over the median plain one.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_checkpoint.py [--pairs 3]

This is a standalone script, not a pytest-benchmark module: it defines
no tests.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import tempfile
import time

from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.crawler.checkpoint import read_journal
from repro.websim.generator import GeneratorConfig

SEED = 404
SITES = 404
SHARDS = 8


def _crawl(spec, checkpoint_dir=None):
    """Wall seconds and fingerprint of one in-process crawl."""
    engine = ParallelCrawler(spec, workers=1, num_shards=SHARDS,
                             checkpoint_dir=checkpoint_dir)
    start = time.perf_counter()
    dataset = engine.crawl()
    return time.perf_counter() - start, dataset.fingerprint()


def _journal_totals(directory):
    """(saves, bytes) over the shard journals in ``directory``."""
    saves = size = 0
    for name in sorted(os.listdir(directory)):
        if name.endswith(".ckpt"):
            path = os.path.join(directory, name)
            saves += len(read_journal(path).records)
            size += os.path.getsize(path)
    return saves, size


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pairs", type=int, default=3,
                        help="alternating plain/checkpointed pairs (3)")
    args = parser.parse_args(argv)
    spec = GeneratedPopulationSpec(seed=SEED, config=GeneratorConfig(
        n_sites=SITES, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    spec.build()        # warm imports and the PSL before timing
    plain, checkpointed = [], []
    for pair in range(args.pairs):
        wall, expected = _crawl(spec)
        plain.append(wall)
        print("pair %d  plain         %6.2f s" % (pair, wall))
        directory = tempfile.mkdtemp(prefix="bench-checkpoint-")
        try:
            wall, fingerprint = _crawl(spec, checkpoint_dir=directory)
            saves, size = _journal_totals(directory)
        finally:
            shutil.rmtree(directory)
        if fingerprint != expected:
            raise SystemExit("checkpointing changed the fingerprint")
        checkpointed.append(wall)
        print("pair %d  checkpointed  %6.2f s  %d saves  %.1f MB written"
              % (pair, wall, saves, size / 1e6))
    overhead = statistics.median(checkpointed) / statistics.median(plain)
    print("checkpointing adds %.0f%% (median %.2f s vs %.2f s)"
          % ((overhead - 1.0) * 100.0, statistics.median(checkpointed),
             statistics.median(plain)))


if __name__ == "__main__":
    main()
