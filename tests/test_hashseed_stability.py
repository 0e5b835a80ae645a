"""PYTHONHASHSEED invariance of the determinism contract.

Builtin ``hash()`` on str/bytes is salted per-process by
``PYTHONHASHSEED``, so any fingerprint, shard layout or ordering built
on it would differ between two interpreter processes.  The audit for
ISSUE 3 found ``crawler.sharding`` and ``CrawlDataset.fingerprint()``
already on ``hashlib`` exclusively (and statan rule DET104 now forbids
regressions); this test is the dynamic half of that guarantee: two
*subprocesses with explicitly different hash seeds* must agree on the
crawl fingerprint, on the shard layout digest and on the population
digest a checkpoint journal is resumed against.
"""

import os
import subprocess
import sys

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Crawl a small seeded population and print (layout digest, dataset
#: fingerprint).  Runs in a fresh interpreter so PYTHONHASHSEED applies.
_PROBE = """
from repro.crawler import StudyCrawler
from repro.crawler.runner import population_digest
from repro.crawler.sharding import ShardLayout
from repro.websim.generator import GeneratorConfig, generate_population

population = generate_population(
    seed=7, config=GeneratorConfig(n_sites=8, n_trackers=4,
                                   leak_probability=0.6))
layout = ShardLayout.for_domains(population.sites, num_shards=3)
dataset = StudyCrawler(population).crawl()
print(layout.digest())
print(dataset.fingerprint())
print(population_digest(population, population.site_list()))
"""


def _probe(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, timeout=300,
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    layout_digest, fingerprint, population = result.stdout.split()
    return layout_digest, fingerprint, population


def test_fingerprint_and_layout_survive_hashseed_change():
    first = _probe(0)
    second = _probe(4242)
    assert first == second


def test_probe_interpreters_really_had_different_hash_salts():
    # Sanity check on the harness itself: with different PYTHONHASHSEED
    # values, builtin hash() of a str *does* differ across the two
    # subprocesses — so the equality above is meaningful.
    script = "print(hash('pii-leakage'))"
    values = set()
    for seed in (0, 4242):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(seed)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                timeout=60, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        values.add(result.stdout.strip())
    assert len(values) == 2
