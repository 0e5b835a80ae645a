"""What importing ``repro`` loads, checked in fresh interpreters.

The package declares no runtime dependencies, so its entry points must
import nothing beyond the standard library.  And the crawl path must not
pay for the report renderers it never calls.
"""

import json
import os
import subprocess
import sys

import pytest

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

ENTRY_POINTS = ("repro", "repro.crawler", "repro.service", "repro.cli",
                "repro.obs.cli", "repro.statan.cli", "repro.service.cli")

#: Import ``argv[1:]`` and print, as JSON, the module names that
#: appeared in ``sys.modules`` meanwhile.
_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _modules_loaded_by(*names):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *names], env=env, timeout=120,
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.skipif(sys.version_info < (3, 10),
                    reason="sys.stdlib_module_names is new in Python 3.10")
def test_repro_imports_only_the_standard_library():
    top_level = {name.split(".")[0]
                 for name in _modules_loaded_by(*ENTRY_POINTS)}
    # multiprocessing registers ``__main__`` again as ``__mp_main__``.
    third_party = sorted(top_level - {"repro", "__mp_main__"}
                         - set(sys.stdlib_module_names))
    assert third_party == []


def test_the_crawl_path_does_not_import_the_report_renderers():
    loaded = _modules_loaded_by("repro.crawler")
    assert "repro.crawler.parallel" in loaded
    assert [name for name in loaded
            if name.startswith("repro.reporting")] == []
