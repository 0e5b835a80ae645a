"""Non-fork start methods: shards crawl the parent's population there too.

Forked workers inherit the parallel engine's population; under
``forkserver`` (the Linux default from Python 3.14) and ``spawn`` the job
list, population included, is pickled once per worker start.  Each case
runs in a fresh interpreter, since a process sets its start method once.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import sys

    from repro.crawler import ParallelCrawler
    from repro.websim.generator import GeneratorConfig, generate_population


    def main(method):
        multiprocessing.set_start_method(method)
        population = generate_population(seed=5, config=GeneratorConfig(
            n_sites=10, n_trackers=4, leak_probability=0.6,
            confirmation_probability=0.4))
        serial = ParallelCrawler(population, workers=1,
                                 num_shards=5).crawl().fingerprint()
        result = ParallelCrawler(population, workers=2, num_shards=5).run()
        assert result.complete, "a shard was lost"
        assert result.dataset.fingerprint() == serial, \\
            "2 workers merged to another fingerprint"
        assert result.dataset.population is population
        print("ok", method, serial[:16])


    if __name__ == "__main__":
        main(sys.argv[1])
""")


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_two_workers_match_one_under_a_non_fork_start_method(method,
                                                            tmp_path):
    script = tmp_path / "crawl.py"
    script.write_text(_SCRIPT)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(script), method],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok %s " % method)
