"""What a fresh ``mfctrl`` process imports, and the first SciPy import on the noise worker.

``mfctrl.cli`` loads ``scipy.linalg.lapack`` only in the Riccati recursion on
blocks larger than 1x1 and ``scipy.special`` only in the Gaussian draws, so a
finite solve or simulation, and the Riccati recursion of a model with a scalar
state and control, start without SciPy. It imports ``lq``, ``particles`` (with
``moments``) and ``verify`` only in the subcommands that run them, so
``solve-finite`` loads none of them. Each test runs its script in a fresh interpreter, since the test
process has imported all of these long before.
"""

import json
import os
import subprocess
import sys

import pytest

from mfctrl.fixtures import list_fixtures
from mfctrl.particles import _BLOCK

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "src", "mfctrl", "fixtures")
FINITE = [name for name in list_fixtures() if name.startswith(("finite_", "fo_"))]

PRELUDE = """
import json, os, sys, threading
def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
def engines():
    names = ("mfctrl.lq", "mfctrl.particles", "mfctrl.moments", "mfctrl.verify")
    return [name for name in names if name in sys.modules]
"""


def _fresh(script, *args):
    """The last stdout line of ``script`` run in a fresh interpreter, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PRELUDE + script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_finite_commands_never_load_scipy(tmp_path):
    # nor, up to the last solve-finite, any engine but dpp
    script = """
seen = {}
import mfctrl.cli
seen["import mfctrl.cli"] = scipy_modules() + engines()
fixtures, out = sys.argv[1], sys.argv[2]
for name in sys.argv[3:]:
    argv = ["solve-finite", os.path.join(fixtures, name), "--out", out]
    seen[" ".join(argv[:2])] = [mfctrl.cli.main(argv)] + scipy_modules() + engines()
argv = ["simulate", os.path.join(fixtures, "finite_mean_reverting.json"), "--n-particles",
        "1000", "--seed", "3", "--policy", "zero", "--out", out]
seen["simulate --policy zero"] = [mfctrl.cli.main(argv)] + scipy_modules()
print(json.dumps(seen))
"""
    seen = _fresh(script, FIXTURES, str(tmp_path / "out.json"), *FINITE)
    assert len(seen) == len(FINITE) + 2
    assert seen.pop("import mfctrl.cli") == []
    assert seen == {step: [0] for step in seen}


def test_riccati_loads_lapack_but_not_special(tmp_path):
    script = """
import mfctrl.cli
code = mfctrl.cli.main(["riccati", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, "scipy.linalg.lapack" in sys.modules, "scipy.special" in sys.modules,
                  engines()]))
"""
    assert _fresh(script, os.path.join(FIXTURES, "lq_multivariate.json"),
                  str(tmp_path / "out.json")) == [0, True, False, ["mfctrl.lq"]]


def test_riccati_on_scalar_blocks_loads_no_scipy(tmp_path):
    script = """
import mfctrl.cli
code = mfctrl.cli.main(["riccati", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, scipy_modules(), engines()]))
"""
    assert _fresh(script, os.path.join(FIXTURES, "lq_mean_variance.json"),
                  str(tmp_path / "out.json")) == [0, [], ["mfctrl.lq"]]


# Records the thread that first imports scipy.special; when ``warm`` is set the
# module is imported on the main thread before the run instead. The main thread
# draws no normals until the noise worker has drawn its first block, so a cold
# run imports on the worker whatever the threads' timing.
SIMULATE = """
class Spy:
    threads = []
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            self.threads.append(threading.current_thread().name)
        return None
sys.meta_path.insert(0, Spy())
config, policy, out, warm = sys.argv[1:5]
if warm == "1":
    import scipy.special
import mfctrl.cli, mfctrl.particles
real, first_drawn = mfctrl.particles.normals, threading.Event()
def normals(*args, **kwargs):
    if threading.current_thread() is threading.main_thread():
        first_drawn.wait(60)
        return real(*args, **kwargs)
    try:
        return real(*args, **kwargs)
    finally:
        first_drawn.set()
mfctrl.particles.normals = normals
before = threading.active_count()
code = mfctrl.cli.main(["simulate", config, "--n-particles", sys.argv[5], "--seed", "11",
                        "--policy", policy, "--out", out])
print(json.dumps({"code": code, "importers": Spy.threads, "worker_first": first_drawn.is_set(),
                  "threads_left": threading.active_count() - before}))
"""


@pytest.mark.parametrize("policy", ["zero", "riccati"])
def test_first_ndtri_import_on_the_noise_worker_changes_no_byte(tmp_path, policy):
    config = os.path.join(FIXTURES, "lq_multivariate.json")
    n = str(_BLOCK + 7)
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    first = _fresh(SIMULATE, config, policy, str(cold), "0", n)
    assert first["code"] == 0 and first["threads_left"] == 0 and first["worker_first"]
    assert len(first["importers"]) == 1 and first["importers"][0] != "MainThread"
    second = _fresh(SIMULATE, config, policy, str(warm), "1", n)
    assert second == {"code": 0, "importers": ["MainThread"], "worker_first": True,
                      "threads_left": 0}
    assert cold.read_bytes() == warm.read_bytes()
